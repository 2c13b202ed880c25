"""Matching-order generation strategies (Phase 2 of Algorithm 1)."""

from repro.matching.ordering.base import Orderer, connected_extension
from repro.matching.ordering.gql_order import GQLOrderer
from repro.matching.ordering.optimal import OptimalOrderer, connected_permutations
from repro.matching.ordering.qsi import QSIOrderer
from repro.matching.ordering.random_order import RandomOrderer
from repro.matching.ordering.ri import RIOrderer
from repro.matching.ordering.veq_order import VEQOrderer, nec_classes
from repro.matching.ordering.vf2pp import VF2PPOrderer

ORDERERS = {
    cls.name: cls
    for cls in (
        QSIOrderer,
        RIOrderer,
        VF2PPOrderer,
        GQLOrderer,
        VEQOrderer,
        RandomOrderer,
        OptimalOrderer,
    )
}

__all__ = [
    "GQLOrderer",
    "ORDERERS",
    "OptimalOrderer",
    "Orderer",
    "QSIOrderer",
    "RIOrderer",
    "RandomOrderer",
    "VEQOrderer",
    "VF2PPOrderer",
    "connected_extension",
    "connected_permutations",
    "nec_classes",
]
