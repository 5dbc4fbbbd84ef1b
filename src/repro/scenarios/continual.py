"""Continuous-learning reporting: forgetting/recovery across task switches.

The task-switch bench (Section II motivation: agents that keep learning
as the world changes) records per-generation ``scenario_stage``,
``scenario_forgetting`` and ``scenario_recovery`` into ``metrics.jsonl``;
this module turns those rows into the per-switch summary table and the
CSV artifact the CI scenarios-smoke job uploads.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from ..analysis.reporting import write_csv
from .curriculum import switch_report

CSV_COLUMNS = (
    "generation",
    "from_stage",
    "to_stage",
    "max_forgetting",
    "recovery_generations",
)


def export_continual_csv(
    rows: Iterable[Dict[str, Any]], path: Union[str, Path]
) -> List[Dict[str, Any]]:
    """Write the per-switch summary (:func:`~repro.scenarios.curriculum.
    switch_report`) to ``path``; returns the rows."""
    report = switch_report(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, CSV_COLUMNS,
              ([row.get(key) for key in CSV_COLUMNS] for row in report))
    return report
