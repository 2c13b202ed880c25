"""Reading and writing graphs in the CSR text format of Sun & Luo [14].

The format used by the in-memory subgraph matching study (and by the paper's
query/data graph files) is::

    t <num_vertices> <num_edges>
    v <vertex-id> <label> <degree>
    ...
    e <u> <v>
    ...

Vertex lines must appear for ids ``0..n-1``; the recorded degree is
validated against the edge lines.

Lines are split on ``"\\n"`` and read as whitespace-separated tokens; blank
lines and lines whose first token starts with ``#`` or ``%`` are skipped,
and tokens past the ones a record needs (the degree is optional) are
ignored.  A number is whatever ``int()`` accepts (``+3``, ``1_0``,
non-ASCII digits).

:func:`loads_graph` parses in bulk: it splits the text into one token list,
classifies every line once by its first token, then converts each column of
the ``v`` and ``e`` records in one numpy pass.  The contract is the one a
line-at-a-time reader keeps (it lives on as the test oracle): every input
gives the same :class:`Graph`, or the same error.  A record that cannot be
read raises :class:`GraphFormatError` naming the first such line in file
order, with the check a line-at-a-time reader makes first on that line (on
a ``v`` line: its id and label, then a repeated id, then the degree).  Then,
in this order: a missing header, a vertex count, non-dense ids, an edge
count, the first ``e`` line with an endpoint outside ``0..n-1`` or a self
loop (named by its line), a label :class:`Graph` refuses, and the first
declared degree that is wrong.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.graph import Graph, edges_to_csr

__all__ = ["load_graph", "loads_graph", "save_graph", "dumps_graph"]


#: A column of tokens read by ``int()``: the values, and the index of the
#: first token it refuses (the column's length if none).
_Column = tuple[np.ndarray, int]


def _ints(tokens: list[str]) -> _Column:
    """``tokens`` read by ``int()`` in one numpy pass (see :data:`_Column`).

    Entries from the first refused token on are placeholders.  A value
    outside int64 makes the array an object array of Python ints, so it
    still compares exactly.
    """
    try:
        return np.array(tokens, dtype=np.int64), len(tokens)
    except (ValueError, OverflowError):
        pass
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            break
    bad = len(values)
    values += [0] * (len(tokens) - bad)
    try:
        return np.array(values, dtype=np.int64), bad
    except OverflowError:
        return np.array(values, dtype=object), bad


@dataclass(frozen=True)
class _Records:
    """A graph file's records, by kind, in file order (line numbers 1-based)."""

    #: Line and tokens of every ``t`` record.
    headers: list[tuple[int, list[str]]]
    v_lines: list[int]
    v_ids: _Column
    v_labels: _Column
    #: Index into the ``v`` records of each one that declares a degree.
    degree_of: np.ndarray
    degrees: _Column
    e_lines: list[int]
    e_u: _Column
    e_v: _Column
    #: Line and tag of the first record of no known kind.
    unknown: tuple[int, str] | None = None


def _records(text: str) -> _Records:
    """Every record of ``text``, each line classified once.

    ``"\\n"`` is whitespace, so ``text.split()`` is every line's ``split()``
    joined in file order: one token list and each line's token count place
    every token on its line, and no list is kept per line.
    """
    lines = text.split("\n")
    width = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    start = np.cumsum(width) - width
    # Padded so that a field past the last token still indexes.
    tokens = np.array(text.split() + [""] * 3, dtype=object)
    tag = np.where(width > 0, tokens[start], "#")
    at = {kind: np.flatnonzero(tag == kind) for kind in "tve"}
    other = np.flatnonzero((tag != "t") & (tag != "v") & (tag != "e"))
    unknown = next(((int(i) + 1, tag[i]) for i in other if tag[i][0] not in "#%"), None)

    def field(rows: np.ndarray, k: int) -> list[str]:
        # A record with too few tokens reads "" in their place, which
        # int() refuses like any other malformed token.
        values = tokens[start[rows] + k]
        values[width[rows] <= k] = ""
        return values.tolist()

    v, e = at["v"], at["e"]
    degree_of = np.flatnonzero(width[v] > 3)
    return _Records(
        headers=[(int(i) + 1, lines[i].split()) for i in at["t"]],
        v_lines=(v + 1).tolist(),
        v_ids=_ints(field(v, 1)),
        v_labels=_ints(field(v, 2)),
        degree_of=degree_of,
        degrees=_ints(field(v[degree_of], 3)),
        e_lines=(e + 1).tolist(),
        e_u=_ints(field(e, 1)),
        e_v=_ints(field(e, 2)),
        unknown=unknown,
    )


def _first_repeat(values: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one (``len`` if none)."""
    _, first = np.unique(values, return_index=True)
    repeat = np.ones(values.size, dtype=bool)
    repeat[first] = False
    return int(np.argmax(repeat)) if repeat.any() else int(values.size)


def loads_graph(text: str) -> Graph:
    """Parse a graph from a string in the ``t/v/e`` text format."""
    recs = _records(text)

    def malformed(line: int) -> str:
        record = text.split("\n")[line - 1].strip()
        return f"malformed record: {record!r}"

    # Every record error as (line, rank on that line, message); the first
    # one in file order is the one a line-at-a-time reader stops at.
    found: list[tuple[int, int, str]] = []
    if recs.unknown is not None:
        line, tag = recs.unknown
        found.append((line, 0, f"unknown record '{tag}'"))
    header = None
    if recs.headers:
        line, parts = recs.headers[0]
        try:
            header = int(parts[1]), int(parts[2])
        except (IndexError, ValueError):
            found.append((line, 0, malformed(line)))
        if len(recs.headers) > 1:
            found.append((recs.headers[1][0], 0, "duplicate 't' header"))
    (vid, bad_id), (lab, bad_label) = recs.v_ids, recs.v_labels
    if min(bad_id, bad_label) < vid.size:
        line = recs.v_lines[min(bad_id, bad_label)]
        found.append((line, 0, malformed(line)))
    repeat = _first_repeat(vid)
    if repeat < vid.size:
        found.append((recs.v_lines[repeat], 1, f"duplicate vertex {vid[repeat]}"))
    deg, bad_deg = recs.degrees
    if bad_deg < deg.size:
        line = recs.v_lines[int(recs.degree_of[bad_deg])]
        found.append((line, 2, malformed(line)))
    (eu, bad_u), (ev, bad_v) = recs.e_u, recs.e_v
    if min(bad_u, bad_v) < eu.size:
        line = recs.e_lines[min(bad_u, bad_v)]
        found.append((line, 0, malformed(line)))
    if found:
        line, _, message = min(found)
        raise GraphFormatError(f"line {line}: {message}")

    if header is None:
        raise GraphFormatError("missing 't <n> <m>' header")
    n, m = header
    if vid.size != n:
        raise GraphFormatError(
            f"header declares {n} vertices but {vid.size} 'v' lines found"
        )
    if not ((vid >= 0) & (vid < n)).all():
        raise GraphFormatError("vertex ids must be dense 0..n-1")
    if eu.size != m:
        raise GraphFormatError(
            f"header declares {m} edges but {eu.size} 'e' lines found"
        )
    outside = (eu < 0) | (eu >= n) | (ev < 0) | (ev >= n)
    bad = outside | (eu == ev)
    if bad.any():
        i = int(np.argmax(bad))
        what = (
            f"edge ({eu[i]}, {ev[i]}) out of range for n={n}"
            if outside[i]
            else f"self loop on vertex {eu[i]}"
        )
        raise GraphFormatError(f"line {recs.e_lines[i]}: {what}")

    vid = vid.astype(np.int64)
    indptr, indices = edges_to_csr(n, np.stack([eu, ev], axis=1).astype(np.int64, copy=False))
    labels = np.empty(n, dtype=lab.dtype)
    labels[vid] = lab
    graph = Graph.from_csr(labels, indptr, indices)
    if deg.size:
        actual = graph.degrees[vid[recs.degree_of]]
        wrong = deg != actual
        if wrong.any():
            i = int(np.argmax(wrong))
            raise GraphFormatError(
                f"vertex {vid[recs.degree_of[i]]}: declared degree {deg[i]} "
                f"!= actual {actual[i]}"
            )
    return graph


def load_graph(path: str | os.PathLike[str]) -> Graph:
    """Load a graph file in the ``t/v/e`` text format."""
    return loads_graph(Path(path).read_text())


def dumps_graph(graph: Graph) -> str:
    """Serialize a graph to the ``t/v/e`` text format."""
    lines = [f"t {graph.num_vertices} {graph.num_edges}"]
    lines.extend(
        f"v {v} {graph.label(v)} {graph.degree(v)}" for v in graph.vertices()
    )
    lines.extend(f"e {u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def save_graph(graph: Graph, path: str | os.PathLike[str]) -> None:
    """Write a graph file in the ``t/v/e`` text format."""
    Path(path).write_text(dumps_graph(graph))
