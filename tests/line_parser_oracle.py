"""The line-at-a-time ``t/v/e`` reader the bulk parser is compared to.

This is ``repro.graphs.io.loads_graph`` as it stood before it parsed in
bulk, moved here: one ``str.strip`` / ``str.split`` / ``int()`` per line
in file order, a dict of labels keyed by vertex id, and the edges as a
list of tuples.  One change rides along, and the production parser makes
it too: an ``e`` line with an endpoint outside ``0..n-1`` or a self loop
raises :class:`GraphFormatError` naming its line (before, the edge list
went to ``edges_to_csr`` unchecked and came back as an
``InvalidGraphError`` with no line number).

Test-only by design.  ``tests/conftest.py`` puts this directory on
``sys.path``, so any test module can
``from line_parser_oracle import loads_graph_by_line``.
"""

from __future__ import annotations

import io

from repro.errors import GraphFormatError
from repro.graphs.graph import Graph, edges_to_csr


def loads_graph_by_line(text: str) -> Graph:
    """Parse a graph from a string in the ``t/v/e`` text format."""
    labels: dict[int, int] = {}
    declared_degrees: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    n_decl: int | None = None
    m_decl: int | None = None

    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "t":
                if n_decl is not None:
                    raise GraphFormatError(f"line {lineno}: duplicate 't' header")
                n_decl, m_decl = int(parts[1]), int(parts[2])
            elif tag == "v":
                vid, lab = int(parts[1]), int(parts[2])
                if vid in labels:
                    raise GraphFormatError(f"line {lineno}: duplicate vertex {vid}")
                labels[vid] = lab
                if len(parts) > 3:
                    declared_degrees[vid] = int(parts[3])
            elif tag == "e":
                edges.append((int(parts[1]), int(parts[2])))
                edge_lines.append(lineno)
            else:
                raise GraphFormatError(f"line {lineno}: unknown record '{tag}'")
        except (IndexError, ValueError) as exc:
            raise GraphFormatError(f"line {lineno}: malformed record: {line!r}") from exc

    if n_decl is None:
        raise GraphFormatError("missing 't <n> <m>' header")
    if len(labels) != n_decl:
        raise GraphFormatError(
            f"header declares {n_decl} vertices but {len(labels)} 'v' lines found"
        )
    if sorted(labels) != list(range(n_decl)):
        raise GraphFormatError("vertex ids must be dense 0..n-1")
    if m_decl is not None and len(edges) != m_decl:
        raise GraphFormatError(
            f"header declares {m_decl} edges but {len(edges)} 'e' lines found"
        )
    for lineno, (u, v) in zip(edge_lines, edges):
        if not (0 <= u < n_decl and 0 <= v < n_decl):
            raise GraphFormatError(
                f"line {lineno}: edge ({u}, {v}) out of range for n={n_decl}"
            )
        if u == v:
            raise GraphFormatError(f"line {lineno}: self loop on vertex {u}")

    indptr, indices = edges_to_csr(n_decl, edges)
    graph = Graph.from_csr([labels[v] for v in range(n_decl)], indptr, indices)
    for vid, deg in declared_degrees.items():
        if graph.degree(vid) != deg:
            raise GraphFormatError(
                f"vertex {vid}: declared degree {deg} != actual {graph.degree(vid)}"
            )
    return graph
