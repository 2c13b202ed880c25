"""The bulk ``t/v/e`` parser against the line-at-a-time oracle.

``loads_graph`` must return the same :class:`Graph` as
``tests/line_parser_oracle.py`` or raise the same exception with the
same message, for every input: files in the layout ``dumps_graph``
writes and files with comments, blank lines, CRLF, tabs, extra tokens, an
optional degree, records out of order, malformed or out-of-range tokens
and every spelling of a number ``int()`` accepts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from line_parser_oracle import loads_graph_by_line

from repro.datasets.registry import _data_dir
from repro.errors import GraphFormatError, InvalidGraphError
from repro.graphs import Graph
from repro.graphs.io import loads_graph

BUNDLED = ("citeseer", "dblp", "eu2005", "wordnet", "yeast", "youtube")

#: Tokens ``int()`` refuses, or that parse outside int64.
BAD_TOKENS = ("x", "", "1.0", "_1", "1__0", "0x1", "--1", "1e3", "٣x")
HUGE = ("99999999999999999999", "-99999999999999999999")


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: a graph, or (type, message)."""
    try:
        graph = parse(text)
    except (GraphFormatError, InvalidGraphError, OverflowError) as exc:
        return type(exc), str(exc)
    return graph.labels.tolist(), graph.indptr.tolist(), graph.indices.tolist()


def assert_same(text: str) -> None:
    assert outcome(loads_graph, text) == outcome(loads_graph_by_line, text), text


@st.composite
def spelling(draw, value: int) -> str:
    """``value`` written in a form ``int()`` reads back as ``value``."""
    form = draw(st.sampled_from(["plain"] * 4 + ["plus", "zeros", "underscore", "arabic"]))
    digits = str(abs(value))
    sign = "-" if value < 0 else ""
    if form == "plus" and value >= 0:
        return "+" + digits
    if form == "zeros":
        return sign + "00" + digits
    if form == "underscore" and len(digits) > 1:
        return sign + digits[0] + "_" + digits[1:]
    if form == "arabic":
        return sign + "".join(chr(0x660 + int(d)) for d in digits)
    return str(value)


@st.composite
def record_lists(draw) -> list[list[str]]:
    """A graph's records as token lists, valid or nearly so."""
    n = draw(st.integers(0, 6))
    labels = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = Graph(labels, edges)
    with_degree = draw(st.sampled_from(["all", "none", "some"]))
    records = [["t", n, len(edges)]]
    for v in range(n):
        record = ["v", v, labels[v]]
        if with_degree == "all" or (with_degree == "some" and draw(st.booleans())):
            record.append(graph.degree(v))
        records.append(record)
    records += [["e", u, v] if draw(st.booleans()) else ["e", v, u] for u, v in edges]
    # Faults, each rare enough that most files still parse.
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(
            st.sampled_from(
                [
                    "count", "degree", "edge", "loop", "duplicate", "drop",
                    "extra", "short", "token", "huge", "negative", "unknown", "header",
                ]
            )
        )
        i = draw(st.integers(0, len(records) - 1))
        record = records[i]
        if len(record) < 3 and fault in ("edge", "loop", "short", "negative"):
            continue
        if fault == "count" and record[0] == "t" and isinstance(record[-1], int):
            record[-1] += draw(st.sampled_from([-1, 1]))
        elif fault == "degree" and record[0] == "v":
            record[3:] = [draw(st.integers(0, 9))]
        elif fault == "edge" and record[0] == "e":
            record[draw(st.integers(1, 2))] = draw(st.sampled_from([-1, n, n + 3]))
        elif fault == "loop" and record[0] == "e":
            record[2] = record[1]
        elif fault == "duplicate" and i > 0:
            records.insert(draw(st.integers(1, len(records))), list(record))
        elif fault == "drop" and i > 0:
            del records[i]
        elif fault == "extra":
            extra = st.sampled_from(["7", "x", "#", "v", "e"])
            record += draw(st.lists(extra, min_size=1, max_size=2))
        elif fault == "short":
            del record[draw(st.integers(1, len(record) - 1)) :]
        elif fault == "token" and len(record) > 1:
            record[draw(st.integers(1, len(record) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif fault == "huge" and len(record) > 1:
            record[draw(st.integers(1, len(record) - 1))] = draw(st.sampled_from(HUGE))
        elif fault == "negative" and record[0] == "v":
            record[2] = -1
        elif fault == "unknown":
            records.insert(i, [draw(st.sampled_from(["x", "E", "tt", "vertex"])), 0, 1])
        elif fault == "header":
            records.insert(i, ["t", n, len(edges)])
    return records


@st.composite
def dumped_texts(draw) -> str:
    """Files in the layout ``dumps_graph`` writes, faults included."""
    lines = [" ".join(map(str, record)) for record in draw(record_lists())]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n  ", "\n\n"]))


@st.composite
def any_texts(draw) -> str:
    """Files in any layout the format allows, faults included."""
    records = draw(record_lists())
    body = records[1:]
    if draw(st.booleans()):
        body = draw(st.permutations(body))
    records = [records[0], *body]
    if draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), records.pop(0))
    lines = []
    for record in records:
        tokens = [
            draw(spelling(token)) if isinstance(token, int) else token
            for token in record
        ]
        sep = draw(st.sampled_from([" ", " ", "\t", "  ", " \t"]))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        tail = draw(st.sampled_from(["", "", " ", "\r", "\t", "\x0c"]))
        lines.append(lead + sep.join(tokens) + tail)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\r", "# c v 1", "% x", "#", " # t 1 1"])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


class TestAgainstTheLineParser:
    @settings(max_examples=400)
    @given(dumped_texts())
    def test_dumps_graph_layout(self, text):
        assert_same(text)

    @settings(max_examples=400)
    @given(any_texts())
    def test_any_layout(self, text):
        assert_same(text)

    @settings(max_examples=200)
    @given(st.text(alphabet="tve #%\n\r\t0123_-+x9", max_size=60))
    def test_noise(self, text):
        assert_same(text)

    @settings(max_examples=500)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["t", "v", "e"]),
                st.lists(st.sampled_from(["0", "1", "2", "v", "e", "t", "x"]), max_size=4),
            ).map(lambda row: [row[0], *row[1]]),
            min_size=1,
            max_size=7,
        ),
        st.sampled_from(["\n", ""]),
    )
    def test_tag_soup(self, rows, end):
        """Single-spaced lines that start with a tag, tags among the values:
        a token list in which the tags alone do not mark the lines."""
        rows[0][0] = "t"
        assert_same("\n".join(" ".join(row) for row in rows) + end)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "t 0 0",
            "t 0 0\n",
            "t 1 0\nv 0 1_0 0\n",
            "t 2 1\r\nv 0 0 1\r\nv 1 0 1\r\ne 0 1\r\n",
            "t 2 1\nv 0 0\nv 1 0 1\ne 1 0 extra tokens\n",
            "t 2 1\nv 0 0 1\nv 1 0 1\nv 1 0 1\ne 0 1\n",
            "t 2 0\nv 0 0 x\nv 0 0 0\n",
            "t 2 0\nv 0 0 0\nv 0 0 x\n",
            "t 2 0\nv 0 0 0\nv 0 x 0\n",
            "t 2 0\nv 0 0\nv 0 x 0\n",
            "t 1 0\nt 1 x\nv 0 0\n",
            "t 1 x\nt 1 0\nv 0 0\n",
            "t 1 0\nv 99999999999999999999 0\n",
            "t 2 0\nv 99999999999999999999 0\nv 99999999999999999999 0\n",
            "t 1 0\nv 0 99999999999999999999\n",
            "t 1 0\nv 0 0 99999999999999999999\n",
            "t 2 1\nv 0 0\nv 1 0\ne 0 99999999999999999999\n",
            "t 1 0\nv 0 -1\n",
            "t 2 1\nv 0 0 1\r\nv 1 0 1\ne\t0\t1\n",
            "t 1 0\nv 0\x000 0\n",
            "t 1 0\n" + "1" * 5000 + "\n",
            "t 1 0\nv 0 " + "1" * 5000 + "\n",
            "# c\nt 1 0\nv 0 0 0\n",
            "t 2 1\nv 0 0 1\ne 0 1\nv 1 0 1\n",
            "t 2 1\nv 0 0 1\n\nv 1 0 1\ne 0 1\n",
            "t 2 1\nv 0 0 1 v 1 0 1\ne 0 1\n\n",
            "t 1 0\nv\t0 0 0\n",
            "t 2 0\nv 0 0\nv 1 0 0\n",
            # A tag among the header's extra tokens.
            "t 1 0 v\nv 0 2\n",
            # A v line after the e block, and a long v line before it.
            "t 2 1\nv 0 0 v 1 0\ne 0\nv \n",
            # Long e lines, then short ones.
            "t 2 3\nv 0 0\nv 1 0\ne 0 1 e 1 0\ne \ne x\n",
            "t 2 3\nv 0 0\nv 1 0\ne 0 1 1 1 0\ne \ne 1\n",
            # Extra tokens on the last e line.
            "t 2 1\nv 0 0\nv 1 0\ne 0 1 5 6\n",
            # A short record before a line that starts with a number: the
            # record must not read that line's tokens as its own.
            "t 1 0\nv 0\n5\n",
            "t 1 0\nv\n0 1\n",
            "t 2 1\nv 0 0\nv 1 0\ne 0\n1\n",
            # Whitespace other than "\n" separates tokens but not lines.
            "t 2 1\u2028v 0 0\nv 1 0\x85\ne 0\x1c1\n",
            "t 2 1\nv\xa00 0\nv 1\x0b0\ne\u30000 1\n",
        ],
    )
    def test_edge_cases(self, text):
        assert_same(text)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_files(self, name):
        text = (_data_dir() / f"{name}.graph").read_text()
        assert loads_graph(text) == loads_graph_by_line(text)


class TestBadEdgesNameTheirLine:
    """An ``e`` record the graph cannot hold is a format error with a line."""

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphFormatError, match=r"^line 4: edge \(0, 5\) out of range for n=2$"):
            loads_graph("t 2 1\nv 0 0\nv 1 0\ne 0 5\n")

    def test_negative_endpoint(self):
        message = r"^line 5: edge \(-1, 1\) out of range for n=2$"
        with pytest.raises(GraphFormatError, match=message):
            loads_graph("t 2 2\nv 0 0\nv 1 0\ne 0 1\ne -1 1\n")

    def test_self_loop(self):
        with pytest.raises(GraphFormatError, match=r"^line 6: self loop on vertex 1$"):
            loads_graph("t 2 2\nv 0 0\nv 1 0\n# c\ne 0 1\ne 1 1\n")

    def test_the_first_bad_line_is_named(self):
        with pytest.raises(GraphFormatError, match=r"^line 4: self loop on vertex 0$"):
            loads_graph("t 2 2\nv 0 0\nv 1 0\ne 0 0\ne 0 9\n")

    def test_endpoint_beyond_int64(self):
        with pytest.raises(GraphFormatError, match=r"^line 4: edge \(0, 99999999999999999999\)"):
            loads_graph("t 2 1\nv 0 0\nv 1 0\ne 0 99999999999999999999\n")
