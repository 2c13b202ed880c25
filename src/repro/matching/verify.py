"""Embedding verification utilities.

Independent re-checking of matcher output against Def. II.1: an embedding
must be injective, label-preserving and edge-preserving.  Used by tests
and available to downstream users who want to validate results from any
engine configuration.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.graphs.graph import Graph

__all__ = ["explain_embedding", "verify_all"]


def explain_embedding(
    query: Graph, data: Graph, mapping: Sequence[int] | Mapping[int, int]
) -> str | None:
    """``None`` for a valid embedding, else a human-readable violation.

    Checks, in order: arity, image range, injectivity (Def. II.1's
    injective function), label preservation (condition 1) and edge
    preservation (condition 2).
    """
    if isinstance(mapping, Mapping):
        if sorted(mapping) != list(range(query.num_vertices)):
            return "mapping does not cover all query vertices"
        images = [int(mapping[u]) for u in range(query.num_vertices)]
    else:
        images = [int(v) for v in mapping]
        if len(images) != query.num_vertices:
            return (
                f"mapping has {len(images)} entries for "
                f"{query.num_vertices} query vertices"
            )

    for u, v in enumerate(images):
        if not 0 <= v < data.num_vertices:
            return f"image {v} of query vertex {u} is out of range"
    if len(set(images)) != len(images):
        return "mapping is not injective"
    for u, v in enumerate(images):
        if query.label(u) != data.label(v):
            return (
                f"label mismatch at query vertex {u}: "
                f"{query.label(u)} != {data.label(v)}"
            )
    for u, w in query.edges():
        if not data.has_edge(images[u], images[w]):
            return f"query edge ({u}, {w}) has no image edge"
    return None


def verify_all(
    query: Graph, data: Graph, matches: Sequence[Sequence[int]]
) -> list[str]:
    """Violations across a batch of matches (empty list = all valid)."""
    problems = []
    for index, match in enumerate(matches):
        reason = explain_embedding(query, data, match)
        if reason is not None:
            problems.append(f"match {index}: {reason}")
    return problems
