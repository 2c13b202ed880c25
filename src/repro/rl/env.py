"""The query-vertex-ordering MDP (Sec. III-C).

State at step ``t``: the partial order ``φ_t`` plus the query feature
matrix ``H_t`` (whose last two columns — remaining-count and ordered
indicator — change per step).  Action space: neighbours of the ordered
vertices not yet ordered, ``N(φ_t)``; at ``t = 0`` every vertex is
available.  The episode ends when ``φ`` is a full permutation.

The environment is reward-free: the dominant reward term (Δ#enum against
the RI baseline) is only computable after the full order is known, so the
trainer attaches rewards post-episode (see :mod:`repro.rl.reward`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.graphs.graph import Graph

__all__ = ["OrderingState", "OrderingEnv", "place"]


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
    so the episode can always finish.  :meth:`OrderingEnv.step` and
    :class:`repro.core.orderer.RLQVOOrderer` both take their steps here.
    """
    ordered[action] = True
    frontier[query.neighbors(action)] = True
    np.greater(frontier, ordered, out=action_mask)  # frontier & ~ordered
    if not action_mask.any():
        np.logical_not(ordered, out=action_mask)


class OrderingState:
    """Immutable snapshot of the MDP state exposed to the policy.

    The masks are read-only arrays the environment never writes again
    (each step builds new ones), so a snapshot costs no copy.
    """

    __slots__ = ("step", "order", "ordered_mask", "action_mask")

    def __init__(
        self,
        step: int,
        order: tuple[int, ...],
        ordered_mask: np.ndarray,
        action_mask: np.ndarray,
    ):
        self.step = step
        self.order = order
        self.ordered_mask = ordered_mask
        self.action_mask = action_mask

    @property
    def action_space(self) -> np.ndarray:
        """Vertex ids currently selectable."""
        return np.flatnonzero(self.action_mask)


def _frozen(mask: np.ndarray) -> np.ndarray:
    mask.setflags(write=False)
    return mask


class OrderingEnv:
    """MDP over matching-order prefixes of one query graph."""

    def __init__(self, query: Graph):
        self.query = query
        self.reset()

    def reset(self) -> OrderingState:
        """Restart the episode; initially every vertex is selectable."""
        n = self.query.num_vertices
        self._order: list[int] = []
        self._ordered_mask = _frozen(np.zeros(n, dtype=bool))
        self._action_mask = _frozen(np.ones(n, dtype=bool))
        #: Every vertex adjacent to an ordered one (ordered ones among
        #: them), grown by one CSR row per step.
        self._frontier = np.zeros(n, dtype=bool)
        self._done = n == 0
        return self.state()

    def state(self) -> OrderingState:
        """Current state snapshot."""
        return OrderingState(
            step=len(self._order),
            order=tuple(self._order),
            ordered_mask=self._ordered_mask,
            action_mask=self._action_mask,
        )

    @property
    def done(self) -> bool:
        """Whether the full order has been generated."""
        return self._done

    @property
    def order(self) -> list[int]:
        """The order built so far."""
        return list(self._order)

    def step(self, action: int) -> OrderingState:
        """Add ``action`` to the order; update masks (action-space update).

        Raises
        ------
        TrainingError
            If the episode is over or ``action`` is outside the action
            space (the policy layer masks invalid vertices, so reaching
            this is a programming error, not a learning failure).
        """
        if self._done:
            raise TrainingError("step() on a finished episode")
        action = int(action)
        if not self._action_mask[action]:
            raise TrainingError(f"vertex {action} is not in the action space")

        self._order.append(action)
        ordered = self._ordered_mask.copy()
        mask = np.empty_like(ordered)
        place(self.query, action, ordered, self._frontier, mask)
        self._done = len(self._order) == ordered.size
        self._ordered_mask = _frozen(ordered)
        self._action_mask = _frozen(mask)
        return self.state()
