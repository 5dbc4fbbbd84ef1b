"""ASCII rendering shared by every benchmark harness.

The paper's figures are bar charts and line series; the benches print the
same rows/series as plain-text tables so the numbers can be compared
against the paper directly (and diffed between runs).
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Union

from ..obs.jsonl import write_atomic

Number = Union[int, float]


def write_csv(
    path: Union[str, Path],
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Replace ``path`` with one table as CSV (the machine twin of
    :func:`render_table`), atomically."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(headers)
    writer.writerows(rows)
    write_atomic(path, text.getvalue())


def fmt_si(value: float, unit: str = "") -> str:
    """Engineering-notation formatting: 1.23e4 -> '12.3k'."""
    if value == 0:
        return f"0{unit}"
    magnitude = abs(value)
    for threshold, suffix in [
        (1e12, "T"),
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
    ]:
        if magnitude >= threshold:
            return f"{value / threshold:.3g}{suffix}{unit}"
    if magnitude >= 1:
        return f"{value:.3g}{unit}"
    for threshold, suffix in [(1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p")]:
        if magnitude >= threshold:
            return f"{value / threshold:.3g}{suffix}{unit}"
    return f"{value:.3g}{unit}"


def fmt_bytes(value: float) -> str:
    for threshold, suffix in [(1 << 30, "GiB"), (1 << 20, "MiB"), (1 << 10, "KiB")]:
        if abs(value) >= threshold:
            return f"{value / threshold:.2f} {suffix}"
    return f"{value:.0f} B"


def fmt_seconds(value: float) -> str:
    return fmt_si(value, "s")


def fmt_joules(value: float) -> str:
    return fmt_si(value, "J")


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Monospace table with column auto-widths."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    title: str,
    xs: Sequence[Number],
    series: Dict[str, Sequence[Number]],
    x_label: str = "x",
    max_points: int = 25,
) -> str:
    """Print aligned multi-series rows, downsampling long series."""
    n = len(xs)
    if n == 0:
        return f"{title}\n(empty series)"
    stride = max(1, math.ceil(n / max_points))
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    headers = [x_label, *series.keys()]
    rows = []
    for i in idx:
        row = [xs[i]]
        for values in series.values():
            row.append(fmt_si(values[i]) if i < len(values) else "")
        rows.append(row)
    return render_table(headers, rows, title=title)


def summarize_distribution(values: Sequence[Number]) -> Dict[str, float]:
    """min/p25/median/p75/max summary (the Fig. 5 violin equivalents)."""
    if not values:
        raise ValueError("empty distribution")
    ordered = sorted(float(v) for v in values)

    def pct(p: float) -> float:
        k = (len(ordered) - 1) * p
        lo, hi = math.floor(k), math.ceil(k)
        if lo == hi:
            return ordered[lo]
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)

    return {
        "min": ordered[0],
        "p25": pct(0.25),
        "median": pct(0.5),
        "p75": pct(0.75),
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
    }


def render_distribution_table(
    title: str, distributions: Dict[str, Sequence[Number]], unit: str = ""
) -> str:
    headers = ["workload", "min", "p25", "median", "p75", "max", "mean"]
    rows = []
    for name, values in distributions.items():
        s = summarize_distribution(values)
        rows.append(
            [
                name,
                fmt_si(s["min"], unit),
                fmt_si(s["p25"], unit),
                fmt_si(s["median"], unit),
                fmt_si(s["p75"], unit),
                fmt_si(s["max"], unit),
                fmt_si(s["mean"], unit),
            ]
        )
    return render_table(headers, rows, title=title)


def orders_of_magnitude(a: float, b: float) -> float:
    """How many orders of magnitude larger a is than b."""
    if a <= 0 or b <= 0:
        raise ValueError("orders_of_magnitude needs positive values")
    return math.log10(a / b)
