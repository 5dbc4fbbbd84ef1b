"""The sweep engine: expand, memoise, execute in parallel, tabulate.

:class:`SweepRunner` turns a :class:`repro.dse.SweepSpec` into a
:class:`SweepResult` table:

1. the spec expands into concrete points;
2. each point is keyed by content hash; points already in the on-disk
   cache (or duplicated within the sweep) are served without running a
   backend, so re-running an edited sweep only evaluates the new points;
3. the remaining points run through :class:`repro.api.Experiment` —
   serially, or across a process pool (``jobs=N``).  Within a point the
   experiment's own ``workers``/``vectorizer`` settings still apply, so
   a sweep can shard across points while each point batches inside.

A custom ``evaluate`` callable replaces the experiment executor —
the trace-replay harnesses (``examples/hw_design_space.py``,
``benchmarks/bench_fig11_design_space.py``) drive the paper's
single-generation EvE replays through the same axis/table machinery.
Custom evaluators run in-process (``jobs`` does not apply) and are only
cached when an ``evaluator_version`` string declares their identity.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import obs
from ..analysis.reporting import write_csv
from ..obs.jsonl import write_json
from .cache import EXPERIMENT_EVALUATOR, SweepCache, point_key
from .pareto import ObjectiveError, pareto_front
from .spec import SweepPoint, SweepSpec

#: A point evaluator: point -> flat metrics dict (JSON-serialisable).
PointEvaluator = Callable[[SweepPoint], Mapping[str, Any]]
#: Progress observer fired as each row lands: (done, total, row).
ProgressObserver = Callable[[int, int, Dict[str, Any]], None]

#: Metric columns the default executor reports, in table order.
METRIC_COLUMNS = (
    "fitness",
    "generations",
    "converged",
    "runtime_s",
    "energy_j",
    "env_steps",
    "cached",
)


def evaluate_experiment_point(
    spec_json: str, run_dir: Optional[str] = None
) -> Dict[str, Any]:
    """The default executor: run one experiment spec, summarise it.

    Takes the spec as JSON (not a pickled object) so process-pool
    workers rebuild it exactly the way a spec file would.  With
    ``run_dir`` the point executes through :func:`repro.runs.run_in_dir`
    in ``resume="auto"`` mode: the point leaves durable artifacts
    (metrics, checkpoints, champion) and an interrupted sweep point
    continues from its last checkpoint instead of restarting.
    """
    from ..api import Experiment, ExperimentSpec

    spec = ExperimentSpec.from_json(spec_json)
    with obs.span(
        "dse.point", env_id=spec.env_id, backend=spec.backend
    ):
        if run_dir is not None:
            from ..runs import run_in_dir

            result = run_in_dir(spec, run_dir, resume="auto")
        else:
            result = Experiment(spec).run()
    return {
        "fitness": result.best_fitness,
        "generations": result.generations,
        "converged": result.converged,
        "runtime_s": result.total_runtime_s,
        "energy_j": result.total_energy_j,
        "env_steps": sum(m.env_steps for m in result.metrics),
        "inference_macs": sum(m.inference_macs for m in result.metrics),
    }


@dataclass
class SweepResult:
    """The tabulated outcome of one sweep run.

    ``rows`` are flat dicts — axis values first, then metrics, then the
    bookkeeping columns ``point`` (expansion index), ``key`` (content
    hash, when caching applies), ``cached`` (served without running a
    backend: an on-disk hit or an intra-sweep duplicate) and — when the
    runner was given ``runs_dir`` — ``run_dir``, the point's durable
    artifact directory (inspect with ``repro report <run_dir>``).
    """

    sweep: SweepSpec
    rows: List[Dict[str, Any]] = field(default_factory=list)
    cache_dir: Optional[str] = None

    # -- counters ---------------------------------------------------------

    @property
    def points(self) -> int:
        return len(self.rows)

    @property
    def cache_hits(self) -> int:
        return sum(1 for row in self.rows if row.get("cached"))

    @property
    def evaluated(self) -> int:
        return self.points - self.cache_hits

    # -- shaping ----------------------------------------------------------

    @property
    def axis_names(self) -> List[str]:
        return self.sweep.axis_names

    def metric_names(self) -> List[str]:
        """Every non-axis, non-bookkeeping column present in the rows —
        canonical metrics first (in :data:`METRIC_COLUMNS` order, which
        also undoes the sorted-key order cached records come back in),
        then any evaluator-specific extras, with ``cached`` last."""
        skip = set(self.axis_names) | {"point", "key", "run_dir"}
        seen: List[str] = []
        for row in self.rows:
            for name in row:
                if name not in skip and name not in seen:
                    seen.append(name)
        head = [name for name in METRIC_COLUMNS if name in seen and name != "cached"]
        tail = [name for name in seen if name not in head and name != "cached"]
        return head + tail + (["cached"] if "cached" in seen else [])

    def table(
        self, columns: Optional[Sequence[str]] = None
    ) -> Tuple[List[str], List[List[Any]]]:
        """(headers, rows) ready for :func:`repro.analysis.render_table`."""
        headers = list(columns) if columns else (
            self.axis_names + self.metric_names()
        )
        return headers, [
            [_format_cell(row.get(name)) for name in headers]
            for row in self.rows
        ]

    def group_by(
        self, axis: str, metric: str
    ) -> List[Dict[str, Any]]:
        """Per-axis-value summary of one metric: count/mean/min/max.

        Raises :class:`repro.dse.ObjectiveError` for an unknown axis or
        a metric no row carries — a typo, not an empty summary.
        """
        if self.rows:
            if axis not in self.axis_names:
                raise ObjectiveError(
                    f"unknown axis {axis!r}; sweep axes: {self.axis_names}"
                )
            if not any(
                isinstance(row.get(metric), (int, float))
                and not isinstance(row.get(metric), bool)
                for row in self.rows
            ):
                raise ObjectiveError(
                    f"metric {metric!r} is not a numeric column of any "
                    f"result row"
                )
        groups: Dict[Any, List[float]] = {}
        order: List[Any] = []
        for row in self.rows:
            value = row.get(metric)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            key = row.get(axis)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(float(value))
        return [
            {
                axis: key,
                "count": len(groups[key]),
                "mean": sum(groups[key]) / len(groups[key]),
                "min": min(groups[key]),
                "max": max(groups[key]),
            }
            for key in order
            if groups[key]
        ]

    def pareto_front(
        self, objectives: Mapping[str, str]
    ) -> List[Dict[str, Any]]:
        """Non-dominated rows under ``{column: "min"|"max"}`` objectives."""
        return pareto_front(self.rows, objectives)

    # -- export -----------------------------------------------------------

    def to_csv(self, path: Union[str, Path]) -> None:
        headers = (
            self.axis_names + self.metric_names() + ["point", "key"]
        )
        if any("run_dir" in row for row in self.rows):
            headers = headers + ["run_dir"]
        write_csv(
            path,
            headers,
            ([row.get(name, "") for name in headers] for row in self.rows),
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep.to_dict(),
            "points": self.points,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "cache_dir": self.cache_dir,
            "rows": self.rows,
        }

    def to_json(self, path: Union[str, Path]) -> None:
        write_json(path, self.summary())


def _format_cell(value: Any) -> Any:
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return "-"
    return value


class SweepRunner:
    """Execute a :class:`SweepSpec` with memoisation and parallelism.

    ``cache_dir=None`` disables the on-disk cache (intra-sweep duplicate
    points still collapse); the CLI defaults it to
    :func:`repro.dse.default_cache_dir`.  ``jobs=N`` shards uncached
    points across a process pool (default executor only).
    """

    def __init__(
        self,
        sweep: SweepSpec,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: int = 1,
        evaluate: Optional[PointEvaluator] = None,
        evaluator_version: Optional[str] = None,
        runs_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if runs_dir is not None and evaluate is not None:
            raise ValueError(
                "runs_dir applies to the default experiment executor "
                "only; custom evaluators do not run experiments"
            )
        self.sweep = sweep
        self.cache = SweepCache(cache_dir) if cache_dir is not None else None
        self.jobs = jobs
        #: With ``runs_dir`` every evaluated point gets a durable,
        #: resumable run directory ``<runs_dir>/<content-key>`` —
        #: content-addressed like the cache, so re-sweeps find (and
        #: interrupted sweeps resume) their points' artifacts.
        self.runs_dir = Path(runs_dir) if runs_dir is not None else None
        self.evaluate = evaluate
        if evaluate is None:
            self.evaluator_version = EXPERIMENT_EVALUATOR
        else:
            # Custom evaluators must declare an identity to be cacheable;
            # their keys also hash the raw axis values (the evaluator sees
            # the whole point, not just the effective spec).
            self.evaluator_version = evaluator_version
        if self.evaluator_version is None:
            self.cache = None

    def _key(self, point: SweepPoint) -> str:
        return point_key(
            point,
            evaluator=self.evaluator_version or "uncached",
            include_axes=self.evaluate is not None,
        )

    def _point_run_dir(self, key: str) -> Optional[str]:
        if self.runs_dir is None:
            return None
        return str(self.runs_dir / key)

    def _run_point(self, point: SweepPoint, key: str) -> Dict[str, Any]:
        if self.evaluate is not None:
            return dict(self.evaluate(point))
        return evaluate_experiment_point(
            point.spec.to_json(), run_dir=self._point_run_dir(key)
        )

    def run(
        self,
        progress: Optional[ProgressObserver] = None,
        points: Optional[Sequence[SweepPoint]] = None,
    ) -> SweepResult:
        """Run the sweep; ``points`` overrides the expansion with an
        explicit subset (the successive-halving scheduler re-runs
        surviving points at growing budgets this way)."""
        points = list(points) if points is not None else self.sweep.expand()
        keys = [self._key(point) for point in points]
        rows: List[Optional[Dict[str, Any]]] = [None] * len(points)
        done = 0

        def land(index: int, metrics: Mapping[str, Any], cached: bool) -> None:
            nonlocal done
            row = dict(points[index].axes)
            row.update(metrics)
            row["point"] = points[index].index
            row["key"] = keys[index]
            row["cached"] = cached
            if self.runs_dir is not None:
                # Cached rows point at their artifacts too, when an
                # earlier sweep (or this one, via a duplicate) left them.
                point_dir = self.runs_dir / keys[index]
                if point_dir.exists():
                    row["run_dir"] = str(point_dir)
            rows[index] = row
            done += 1
            if progress is not None:
                progress(done, len(points), row)

        # Pass 1: serve on-disk hits and collapse intra-sweep duplicates.
        pending: Dict[str, List[int]] = {}
        for index, (point, key) in enumerate(zip(points, keys)):
            record = self.cache.get(key) if self.cache is not None else None
            if record is not None:
                obs.incr("dse.cache_hit")
                land(index, record["metrics"], cached=True)
            else:
                obs.incr("dse.cache_miss")
                pending.setdefault(key, []).append(index)

        # Pass 2: evaluate one representative per unique key.  Each
        # record is persisted the moment it lands, so an interrupted or
        # failing sweep keeps every already-finished point.
        fresh: Dict[str, Mapping[str, Any]] = {}

        def land_fresh(index: int, metrics: Mapping[str, Any]) -> None:
            fresh[keys[index]] = metrics
            if self.cache is not None:
                self.cache.put(keys[index], metrics, points[index])
            land(index, metrics, cached=False)

        leaders = [indices[0] for indices in pending.values()]
        if self.evaluate is None and self.jobs > 1 and len(leaders) > 1:
            self._run_pool(points, keys, leaders, land_fresh)
        else:
            for index in leaders:
                land_fresh(
                    index, self._run_point(points[index], keys[index])
                )
        for key, metrics in fresh.items():
            for index in pending[key][1:]:
                land(index, metrics, cached=True)

        result_rows = [row for row in rows if row is not None]
        result_rows.sort(key=lambda row: row["point"])
        return SweepResult(
            sweep=self.sweep,
            rows=result_rows,
            cache_dir=str(self.cache.root) if self.cache is not None else None,
        )

    def _run_pool(
        self,
        points: Sequence[SweepPoint],
        keys: Sequence[str],
        leaders: Sequence[int],
        land_fresh: Callable[[int, Mapping[str, Any]], None],
    ) -> None:
        max_workers = min(self.jobs, len(leaders))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(
                    evaluate_experiment_point,
                    points[index].spec.to_json(),
                    self._point_run_dir(keys[index]),
                ): index
                for index in leaders
            }
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    land_fresh(futures[future], future.result())


def run_sweep(
    sweep: Union[SweepSpec, str, Path],
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    progress: Optional[ProgressObserver] = None,
    **runner_kwargs: Any,
) -> SweepResult:
    """Convenience: run a sweep spec object or a sweep JSON file."""
    if not isinstance(sweep, SweepSpec):
        sweep = SweepSpec.load(sweep)
    runner = SweepRunner(sweep, cache_dir=cache_dir, jobs=jobs, **runner_kwargs)
    return runner.run(progress=progress)
