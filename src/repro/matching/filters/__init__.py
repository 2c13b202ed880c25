"""Candidate filtering strategies (Phase 1 of Algorithm 1)."""

from repro.matching.filters.dpiso import DPisoFilter
from repro.matching.filters.gql import GQLFilter
from repro.matching.filters.ldf import LDFFilter
from repro.matching.filters.nlf import NLFFilter

FILTERS = {
    cls.name: cls for cls in (LDFFilter, NLFFilter, GQLFilter, DPisoFilter)
}

__all__ = [
    "DPisoFilter",
    "FILTERS",
    "GQLFilter",
    "LDFFilter",
    "NLFFilter",
]
