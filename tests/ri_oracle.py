"""The RI ordering every set-based rewrite of it is compared to.

This is the body of ``repro.matching.ordering.ri.RIOrderer.order`` as it
stood before its tie-break keys were computed from per-step sets, moved
here: for every unordered candidate at every step it rescans the
neighbour set of each ordered vertex (``|u_neig|``) and of each of the
candidate's neighbours (``|u_unv|``).  The production orderer must return
the same order for every query; the last ties go to the lowest vertex
id in both.

Test-only by design.  ``tests/conftest.py`` puts this directory on
``sys.path``, so any test module can ``from ri_oracle import ri_order``.
"""

from __future__ import annotations

from repro.graphs.graph import Graph


def ri_order(query: Graph) -> list[int]:
    """RI's greedy order of ``query``, the last ties broken by vertex id."""
    n = query.num_vertices
    if n == 0:
        return []
    degrees = query.degrees

    def pick(choices: list[int], keys: list[tuple]) -> int:
        best = max(keys)
        return min(c for c, k in zip(choices, keys) if k == best)

    first_choices = list(range(n))
    first_keys = [(int(degrees[u]),) for u in first_choices]
    phi = [pick(first_choices, first_keys)]
    ordered: set[int] = set(phi)

    while len(phi) < n:
        remaining = [u for u in range(n) if u not in ordered]
        keys = []
        for u in remaining:
            nbrs_u = query.neighbor_set(u)
            ordered_nbrs = len(nbrs_u & ordered)
            u_neig = sum(
                1
                for w in ordered
                if w in nbrs_u
                and any(x not in ordered for x in query.neighbor_set(w))
            )
            u_unv = sum(
                1
                for x in nbrs_u
                if x not in ordered
                and not (query.neighbor_set(x) & ordered)
            )
            keys.append((ordered_nbrs, u_neig, u_unv))
        # Prefer connected extensions: candidates with ordered_nbrs == 0
        # are only taken when no connected vertex remains.
        connected = [
            (u, k) for u, k in zip(remaining, keys) if k[0] > 0
        ]
        if connected:
            remaining = [u for u, _ in connected]
            keys = [k for _, k in connected]
        nxt = pick(remaining, keys)
        phi.append(nxt)
        ordered.add(nxt)
    return phi
