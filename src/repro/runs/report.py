"""Rebuild result tables from run artifacts — no re-simulation.

``repro report <dir...>`` goes through here: everything is computed from
``spec.json`` + ``metrics.jsonl`` (+ ``result.json``/``champion.json``
when present), so reporting on a finished — or still-running, or
interrupted — run costs file reads only.  Exports ride the same
CSV writer as the benchmark harness (:mod:`repro.analysis.reporting`)
and the one JSON document writer (:func:`repro.obs.jsonl.write_json`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis.reporting import (
    fmt_bytes,
    fmt_joules,
    fmt_seconds,
    write_csv,
)
from ..api.spec import ExperimentSpec
from ..obs.jsonl import write_json
from .artifacts import RunDir, RunError

#: The per-generation columns every backend reports (fitness curve).
FITNESS_COLUMNS = (
    "generation", "best_fitness", "mean_fitness", "num_species",
    "num_genes", "footprint_bytes",
)

#: The per-generation hardware/cost columns; the optional ones appear
#: only on backends that can measure them.
HARDWARE_COLUMNS = ("env_steps", "inference_macs", "energy_j", "cycles",
                    "runtime_s")

#: The per-generation curriculum columns; present only on scenario runs
#: (see :mod:`repro.scenarios`).
SCENARIO_COLUMNS = ("scenario_stage", "scenario_forgetting",
                    "scenario_recovery")


@dataclass
class RunReport:
    """One run directory, loaded: spec + metrics rows + optional summary."""

    run_dir: RunDir
    spec: ExperimentSpec
    metrics: List[Dict[str, Any]]
    summary: Optional[Dict[str, Any]]

    @property
    def name(self) -> str:
        return self.run_dir.path.name

    @property
    def generations(self) -> int:
        if self.summary is not None:
            return int(self.summary["generations"])
        return len(self.metrics)

    @property
    def best_fitness(self) -> Optional[float]:
        if self.summary is not None:
            return self.summary.get("best_fitness")
        best = [m["best_fitness"] for m in self.metrics]
        return max(best) if best else None

    @property
    def converged(self) -> Optional[bool]:
        return self.summary.get("converged") if self.summary else None

    @property
    def complete(self) -> bool:
        return self.summary is not None

    def total(self, column: str) -> Optional[float]:
        values = [m.get(column) for m in self.metrics]
        present = [v for v in values if v is not None]
        return sum(present) if present else None


def load_run(path: Union[str, Path, RunDir]) -> RunReport:
    """Load one run directory's artifacts (spec.json is the only
    requirement; an interrupted run reports what it has so far)."""
    run_dir = path if isinstance(path, RunDir) else RunDir(path)
    spec = run_dir.load_spec()  # raises RunError for a non-run directory
    return RunReport(
        run_dir=run_dir,
        spec=spec,
        metrics=run_dir.read_metrics(),
        summary=run_dir.load_result(),
    )


def _fmt(value: Any) -> Any:
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return "-"
    return value


def fitness_table(report: RunReport) -> Tuple[List[str], List[List[Any]]]:
    """The Fig. 4(a)-style fitness curve, rebuilt from metrics.jsonl."""
    headers = ["gen", "best fitness", "mean fitness", "species", "genes",
               "footprint"]
    rows = []
    for m in report.metrics:
        rows.append([
            m["generation"],
            _fmt(m["best_fitness"]),
            _fmt(m["mean_fitness"]),
            m["num_species"],
            m["num_genes"],
            fmt_bytes(m["footprint_bytes"]),
        ])
    return headers, rows


def hardware_table(report: RunReport) -> Tuple[List[str], List[List[Any]]]:
    """Per-generation workload/cost columns, with a totals row.

    Optional columns (energy, cycles, modelled runtime) appear only when
    the backend recorded them.
    """
    present = [
        column for column in HARDWARE_COLUMNS
        if any(m.get(column) is not None for m in report.metrics)
    ]
    formatters = {
        "energy_j": fmt_joules,
        "runtime_s": fmt_seconds,
    }

    def cell(column: str, value: Any) -> Any:
        if value is None:
            return "-"
        return formatters.get(column, _fmt)(value)

    headers = ["gen"] + present
    rows = [
        [m["generation"]] + [cell(c, m.get(c)) for c in present]
        for m in report.metrics
    ]
    rows.append(
        ["total"] + [cell(c, report.total(c)) for c in present]
    )
    return headers, rows


def scenario_table(report: RunReport) -> Tuple[List[str], List[List[Any]]]:
    """Per-generation curriculum columns (stage, forgetting, recovery).

    Empty (no rows) for runs recorded without a scenario — callers skip
    the table entirely in that case.
    """
    if not any(m.get("scenario_stage") is not None for m in report.metrics):
        return [], []
    headers = ["gen", "stage", "forgetting", "recovery"]
    rows = [
        [
            m["generation"],
            _fmt(m.get("scenario_stage")),
            _fmt(m.get("scenario_forgetting")),
            _fmt(m.get("scenario_recovery")),
        ]
        for m in report.metrics
    ]
    return headers, rows


def summary_table(
    reports: List[RunReport],
) -> Tuple[List[str], List[List[Any]]]:
    """One row per run directory: outcome + cost totals at a glance."""
    headers = ["run", "env", "backend", "gens", "best fitness", "converged",
               "env steps", "energy", "runtime", "state"]
    rows = []
    for report in reports:
        energy = report.total("energy_j")
        runtime = report.total("runtime_s")
        rows.append([
            report.name,
            report.spec.env_id,
            report.spec.backend,
            report.generations,
            _fmt(report.best_fitness),
            {True: "yes", False: "no", None: "-"}[report.converged],
            report.total("env_steps") or 0,
            fmt_joules(energy) if energy is not None else "-",
            fmt_seconds(runtime) if runtime is not None else "-",
            "complete" if report.complete else "in progress",
        ])
    return headers, rows


def export_reports(
    reports: List[RunReport], prefix: Union[str, Path]
) -> Tuple[Path, Path]:
    """Write ``<prefix>.csv`` (per-generation rows, one ``run`` column)
    and ``<prefix>.json`` (full spec + metrics + summary per run)."""
    if not reports:
        raise RunError("nothing to export: no run directories loaded")
    columns = list(FITNESS_COLUMNS) + [
        column for column in HARDWARE_COLUMNS + SCENARIO_COLUMNS
        if any(
            m.get(column) is not None
            for report in reports for m in report.metrics
        )
    ]
    csv_path = Path(f"{prefix}.csv")
    json_path = Path(f"{prefix}.json")
    write_csv(
        csv_path,
        ["run"] + columns,
        (
            [report.name] + [m.get(column, "") for column in columns]
            for report in reports
            for m in report.metrics
        ),
    )
    write_json(json_path, [
        {
            "run_dir": str(report.run_dir.path),
            "spec": report.spec.to_dict(),
            "summary": report.summary,
            "metrics": report.metrics,
        }
        for report in reports
    ])
    return csv_path, json_path
