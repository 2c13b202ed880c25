"""Plain-text tables and the counts record of the experiment suite.

Every experiment prints rows shaped like the corresponding paper table or
figure series.  :func:`~repro.bench.experiments.run_experiment` captures
them; given a directory (``REPRO_RESULTS_DIR``, read by
:func:`results_dir`) it writes them to ``<id>.txt`` and the payload's
integer counts to ``counts.json`` (:func:`record_counts`).  Times,
percentiles of times and degrees stay in the text.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

__all__ = [
    "count_entries",
    "format_seconds",
    "format_table",
    "print_table",
    "geometric_mean",
    "percentile_series",
    "record_counts",
    "results_dir",
]


def format_seconds(seconds: float) -> str:
    """Human-scaled seconds (µs/ms/s) for table cells."""
    if seconds != seconds:  # NaN
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> None:
    """Print :func:`format_table` output."""
    print()
    print(format_table(headers, rows, title))


def geometric_mean(values: Sequence[float], floor: float = 1e-9) -> float:
    """Geometric mean with a floor guarding zero values."""
    if not values:
        return float("nan")
    return math.exp(sum(math.log(max(v, floor)) for v in values) / len(values))


def percentile_series(
    values: Sequence[float], percentiles: Sequence[float]
) -> list[tuple[float, float]]:
    """``(percentile, value)`` pairs over sorted ``values`` (Fig. 4 curves)."""
    if not values:
        return [(p, float("nan")) for p in percentiles]
    ordered = sorted(values)
    out = []
    for p in percentiles:
        rank = min(len(ordered) - 1, max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
        out.append((p, ordered[rank]))
    return out


def results_dir() -> Path | None:
    """Where experiment records go: ``REPRO_RESULTS_DIR``, or ``None`` if unset."""
    raw = os.environ.get("REPRO_RESULTS_DIR")
    return Path(raw) if raw else None


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """An integer, or a non-empty sequence of integers and ``None``."""
    if isinstance(value, (list, tuple)):
        return bool(value) and all(v is None or _is_int(v) for v in value)
    return _is_int(value)


def count_entries(name: str, payload) -> dict[str, dict]:
    """The integer fields of every dict in ``payload``, keyed by its path.

    A dict (or list of dicts) nested under key ``k`` of the entry at
    ``path`` is the entry at ``path/k``; a field that is not a count
    (a time, a percentile series, a degree) is left out.

    >>> count_entries("fig", {"a": {"m": {"enum": 9, "time": 0.5}}, "n": 2})
    {'fig/a/m': {'enum': 9}, 'fig': {'n': 2}}
    """
    entries: dict[str, dict] = {}

    def walk(path: str, node) -> None:
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, (list, tuple)) and all(isinstance(v, dict) for v in node):
            items = enumerate(node)
        else:
            return
        fields = {}
        for key, value in items:
            if _is_count(value):
                fields[str(key)] = list(value) if isinstance(value, tuple) else value
            else:
                walk(f"{path}/{key}", value)
        if fields:
            entries[path] = fields

    walk(name, payload)
    return entries


def record_counts(directory: Path, settings, name: str, payload) -> None:
    """Put experiment ``name``'s :func:`count_entries` into ``directory/counts.json``.

    The file keeps the other experiments' entries when they were made at
    the same ``settings`` and starts over otherwise, so one file never
    mixes two settings.  Keys are sorted, one entry a line.
    """
    path = directory / "counts.json"
    counts = json.loads(path.read_text()) if path.exists() else {}
    current = asdict(settings)
    if counts.get("settings") != current:
        counts = {"settings": current}
    counts = {k: v for k, v in counts.items() if k.split("/")[0] != name}
    counts.update(count_entries(name, payload))
    lines = [
        f"{json.dumps(key)}: {json.dumps(value, sort_keys=True, default=int)}"
        for key, value in sorted(counts.items())
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
