"""Graph substrate: labeled graphs, IO, generators, query extraction, stats."""

from repro.graphs.canonical import (
    CanonicalForm,
    canonical_fingerprint,
    canonical_form,
    deduplicate_queries,
    relabel_graph,
)
from repro.graphs.generators import chung_lu, connect_components, erdos_renyi
from repro.graphs.graph import Graph, edges_to_csr
from repro.graphs.io import load_graph, save_graph
from repro.graphs.query_gen import extract_query, generate_query_set
from repro.graphs.stats import GraphStats
from repro.graphs.validation import check_order

__all__ = [
    "CanonicalForm",
    "Graph",
    "GraphStats",
    "canonical_fingerprint",
    "canonical_form",
    "chung_lu",
    "check_order",
    "connect_components",
    "deduplicate_queries",
    "edges_to_csr",
    "erdos_renyi",
    "extract_query",
    "generate_query_set",
    "load_graph",
    "relabel_graph",
    "save_graph",
]
