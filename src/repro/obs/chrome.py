"""Post-hoc trace analysis: Chrome trace export and phase breakdown.

``telemetry.jsonl`` rows (see :mod:`repro.obs.tracer`) convert to the
`Chrome trace event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
so any traced run opens in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: spans become complete (``"ph": "X"``) duration
events on their process track, counters become counter (``"ph": "C"``)
events.  ``repro trace RUN_DIR --export chrome`` is the CLI entry.

:func:`phase_summary` aggregates span rows into the software equivalent
of the paper's Fig. 10 runtime breakdown — where a run's wall-clock
went, phase by phase — which ``repro trace RUN_DIR`` prints by default.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from .jsonl import read_jsonl, write_atomic


def chrome_trace(rows: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Telemetry rows -> a Chrome trace-event JSON object.

    Timestamps and durations are microseconds in the trace format; wall
    clock anchors each event so multi-process rows line up on one
    timeline.  Unknown row types are ignored (forward compatibility).
    """
    events: List[Dict[str, Any]] = []
    for row in rows:
        kind = row.get("type")
        ts_us = float(row.get("ts", 0.0)) * 1e6
        pid = int(row.get("pid", 0))
        if kind == "span":
            event = {
                "name": str(row.get("name", "?")),
                "ph": "X",
                "ts": ts_us,
                "dur": float(row.get("dur_s", 0.0)) * 1e6,
                "pid": pid,
                "tid": pid,
                "cat": "repro",
            }
            args = dict(row.get("attrs") or {})
            if "error" in row:
                args["error"] = row["error"]
            if args:
                event["args"] = args
            events.append(event)
        elif kind == "counter":
            events.append({
                "name": str(row.get("name", "?")),
                "ph": "C",
                "ts": ts_us,
                "pid": pid,
                "cat": "repro",
                "args": {"total": row.get("total", row.get("value", 0))},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(
    telemetry_path: Union[str, Path], out_path: Union[str, Path]
) -> int:
    """Write the Chrome trace for one telemetry file; returns the event
    count."""
    trace = chrome_trace(read_jsonl(telemetry_path))
    write_atomic(out_path, json.dumps(trace, sort_keys=True) + "\n")
    return len(trace["traceEvents"])


def phase_summary(
    rows: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Aggregate span rows by name: count, total/mean seconds, share.

    The share is of the summed span time (phases nest — ``run`` contains
    ``evaluate`` — so shares are a profile, not a partition).  Sorted by
    total time, longest first.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for row in rows:
        if row.get("type") != "span":
            continue
        name = str(row.get("name", "?"))
        if name not in totals:
            totals[name] = {"phase": name, "count": 0, "total_s": 0.0}
            order.append(name)
        totals[name]["count"] += 1
        totals[name]["total_s"] += float(row.get("dur_s", 0.0))
    grand = sum(t["total_s"] for t in totals.values()) or 1.0
    summary = [
        {
            **totals[name],
            "mean_s": totals[name]["total_s"] / totals[name]["count"],
            "share": totals[name]["total_s"] / grand,
        }
        for name in order
    ]
    summary.sort(key=lambda entry: -entry["total_s"])
    return summary
