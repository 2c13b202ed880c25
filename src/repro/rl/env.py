"""The query-vertex-ordering MDP (Sec. III-C).

State at step ``t``: the partial order ``φ_t`` plus the query feature
matrix ``H_t`` (whose last two columns — remaining-count and ordered
indicator — change per step).  Action space: neighbours of the ordered
vertices not yet ordered, ``N(φ_t)``; at ``t = 0`` every vertex is
available.  The episode ends when ``φ`` is a full permutation.

The MDP has one transition, :func:`place`, on three boolean masks the
caller owns: a rollout (:func:`repro.rl.rollout.collect_trajectory`) and
the greedy :class:`repro.core.orderer.RLQVOOrderer` both start from
nothing ordered and every vertex selectable and take their steps there.
The policy masks every vertex outside the action space, so no step
needs checking.

The MDP is reward-free: the dominant reward term (Δ#enum against
the RI baseline) is only computable after the full order is known, so the
trainer attaches rewards post-episode (see :mod:`repro.rl.reward`).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["place"]


def place(
    query: Graph,
    action: int,
    ordered: np.ndarray,
    frontier: np.ndarray,
    action_mask: np.ndarray,
) -> None:
    """Append ``action`` to the order: the action-space update, in place.

    ``ordered`` gains ``action``, ``frontier`` (every vertex adjacent to
    an ordered one) gains its CSR row, and ``action_mask`` becomes the
    unordered part of the frontier — or, on a disconnected query whose
    ordered part has no unordered neighbour left, every unordered vertex,
    so the episode can always finish.  ``action_mask``'s old contents are
    never read, so it may be a fresh array.
    """
    ordered[action] = True
    frontier[query.neighbors(action)] = True
    np.greater(frontier, ordered, out=action_mask)  # frontier & ~ordered
    if not action_mask.any():
        np.logical_not(ordered, out=action_mask)
