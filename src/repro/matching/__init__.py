"""Subgraph matching substrate: filters, orderings, enumeration.

Data flows through one CSR-flat storage chain: :class:`repro.graphs.Graph`
holds adjacency as contiguous ``(indptr, indices)`` int64 buffers, the
filters carve sorted candidate arrays out of them (:class:`CandidateSets`),
and :class:`CandidateSpace` lays the per-query-edge candidate adjacency out
as flat ``(offsets, concat_indices)`` buffers plus dense position maps.

:class:`MatchingContext` bundles those Phase (1) artifacts — query, data,
candidates, candidate space — into the object that travels through the
pipeline: :meth:`repro.api.Matcher.plan` builds it once per query (the
space build is billed to ``filter_time``), hands it to the orderer via
:meth:`Orderer.order_context`, and :meth:`repro.api.Matcher.execute`
hands it to the enumerator via :meth:`Enumerator.run_context`.  Callers that enumerate one instance many
times (reward rollouts, optimal-order sweeps) construct a
context themselves and reuse it; the positional ``Enumerator.run``
signature remains as a one-shot convenience.
"""

from repro.matching.bipartite import has_semi_perfect_matching
from repro.matching.candidate_space import CandidateSpace
from repro.matching.candidates import CandidateFilter, CandidateSets
from repro.matching.context import MatchingContext
from repro.matching.engine import MatchResult
from repro.matching.enumeration import (
    DEFAULT_TIME_LIMIT,
    EnumerationResult,
    Enumerator,
)
from repro.matching.enumeration_batch import intersect_sorted
from repro.matching.filters import (
    FILTERS,
    DPisoFilter,
    GQLFilter,
    LDFFilter,
    NLFFilter,
)
from repro.matching.cost import estimate_order_cost
from repro.matching.verify import verify_all
from repro.matching.ordering import (
    ORDERERS,
    GQLOrderer,
    OptimalOrderer,
    Orderer,
    QSIOrderer,
    RandomOrderer,
    RIOrderer,
    VEQOrderer,
    VF2PPOrderer,
)

__all__ = [
    "CandidateFilter",
    "CandidateSets",
    "CandidateSpace",
    "DEFAULT_TIME_LIMIT",
    "DPisoFilter",
    "EnumerationResult",
    "Enumerator",
    "FILTERS",
    "GQLFilter",
    "GQLOrderer",
    "LDFFilter",
    "MatchResult",
    "MatchingContext",
    "NLFFilter",
    "ORDERERS",
    "OptimalOrderer",
    "Orderer",
    "QSIOrderer",
    "RIOrderer",
    "RandomOrderer",
    "VEQOrderer",
    "VF2PPOrderer",
    "estimate_order_cost",
    "has_semi_perfect_matching",
    "intersect_sorted",
    "verify_all",
]
