"""Graph substrate: labeled graphs, IO, generators, query extraction, stats."""

from repro.graphs.canonical import (
    CanonicalForm,
    canonical_fingerprint,
    canonical_form,
    deduplicate_queries,
    relabel_graph,
    wl_hash,
)
from repro.graphs.generators import chung_lu, connect_components, erdos_renyi, random_tree, zipf_labels
from repro.graphs.graph import Graph, edges_to_csr
from repro.graphs.io import dumps_graph, load_graph, loads_graph, save_graph
from repro.graphs.query_gen import extract_query, generate_query_set
from repro.graphs.stats import GraphStats, degree_histogram, label_histogram
from repro.graphs.validation import check_graph, check_order, is_connected_order

__all__ = [
    "CanonicalForm",
    "Graph",
    "GraphStats",
    "canonical_fingerprint",
    "canonical_form",
    "chung_lu",
    "check_graph",
    "check_order",
    "connect_components",
    "deduplicate_queries",
    "degree_histogram",
    "dumps_graph",
    "edges_to_csr",
    "erdos_renyi",
    "extract_query",
    "generate_query_set",
    "is_connected_order",
    "label_histogram",
    "load_graph",
    "loads_graph",
    "random_tree",
    "relabel_graph",
    "save_graph",
    "wl_hash",
    "zipf_labels",
]
