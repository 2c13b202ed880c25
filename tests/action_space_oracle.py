"""The ordering MDP's action space, recomputed from nothing.

``repro.rl.env.place`` grows the masks one step at a time; this is the
rule it must agree with after every prefix of an order, written from
the definition (Sec. III-C) rather than from ``place``.  The rollout and
greedy-order oracles walk their episodes on it, so they stay independent
of the transition they check.

Test-only by design.  ``tests/conftest.py`` puts this directory on
``sys.path``, so any test module can ``from action_space_oracle import
masks_from_scratch``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph


def masks_from_scratch(query: Graph, order: list[int]):
    """The state after ``order``, recomputed from nothing: the action
    space is every unordered neighbour of an ordered vertex, or every
    unordered vertex when there is none (start, exhausted component)."""
    n = query.num_vertices
    ordered = np.zeros(n, dtype=bool)
    ordered[order] = True
    action = np.zeros(n, dtype=bool)
    for u in order:
        for v in query.neighbors(u):
            if not ordered[int(v)]:
                action[int(v)] = True
    if not action.any() and len(order) < n:
        action = ~ordered
    return ordered, action
