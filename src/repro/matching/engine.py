"""The per-phase result of one matching run (Algorithm 1).

:class:`MatchResult` carries the matching order, the enumeration outcome
and the paper's timing decomposition ``t = t_filter + t_order + t_enum``
(Sec. IV-B).  It is what :meth:`repro.api.matcher.Matcher.execute`
returns — the facade is the one pipeline composition; all Phase (1) work
(candidate sets *and* the per-edge
:class:`~repro.matching.candidate_space.CandidateSpace` index) is billed
to ``filter_time``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.matching.enumeration import EnumerationResult

__all__ = ["MatchResult"]


@dataclass(frozen=True)
class MatchResult:
    """Result of one full matching run with per-phase timings."""

    order: tuple[int, ...]
    enumeration: EnumerationResult
    filter_time: float
    order_time: float

    @property
    def enum_time(self) -> float:
        """Enumeration phase wall-clock seconds."""
        return self.enumeration.elapsed

    @property
    def total_time(self) -> float:
        """``t_filter + t_order + t_enum`` (Sec. IV-B)."""
        return self.filter_time + self.order_time + self.enum_time

    @property
    def num_matches(self) -> int:
        """Embeddings found."""
        return self.enumeration.num_matches

    @property
    def num_enumerations(self) -> int:
        """``#enum`` of the run."""
        return self.enumeration.num_enumerations

    @property
    def solved(self) -> bool:
        """Whether the run finished without hitting the deadline."""
        return not self.enumeration.timed_out
