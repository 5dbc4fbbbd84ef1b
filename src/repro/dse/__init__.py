"""Declarative design-space exploration over the unified experiment API.

The paper's central deliverable is a design-space story — PE-count
sweeps, NoC ablations, cross-platform runtime/energy comparisons
(Figs. 8 and 11, Table III).  This package is that story as a subsystem:

* :class:`SweepSpec` — a frozen, JSON-round-trippable sweep description:
  a base :class:`repro.api.ExperimentSpec` plus axes over any spec field
  and over unified platform-spec fields (``platform.eve_pes``,
  ``platform.noc``, ``platform.scheduler``, ``platform.adam_shape``, …),
  expanded by ``grid`` or seeded ``random`` sampling.
* :class:`SweepRunner` / :func:`run_sweep` — executes points through the
  experiment backends with process-pool parallelism across points
  (``jobs=N``) and content-hash memoisation on disk, so re-running an
  edited sweep only evaluates the new points.
* :class:`SweepResult` — the per-point metrics table (fitness,
  generations, runtime_s, energy_j, …) with Pareto-frontier extraction,
  group-by summaries and CSV/JSON export.
* :class:`SweepCache` — the on-disk store; :func:`spec_key` /
  :func:`point_key` / :func:`sweep_key` are the stable content hashes.
* :class:`DistributedSweepRunner` — coordinator-free multi-process /
  multi-host draining of one sweep over a shared filesystem: per-point
  ``O_EXCL`` claim files with crash reclaim, an append-only event
  ledger, and a ``collect()`` whose outputs are byte-identical to a
  single-process run (CLI: ``repro dse --worker`` / ``--watch``).
* :class:`SuccessiveHalvingScheduler` — early
  stopping: geometric ``max_generations`` rungs with Pareto-aware
  promotion, so dominated points stop early and no rung-frontier point
  is ever pruned (CLI: ``repro dse --halving fitness:max,energy_j:min``).

Quickstart::

    from repro.api import ExperimentSpec
    from repro.dse import SweepSpec, run_sweep

    sweep = SweepSpec(
        base=ExperimentSpec("CartPole-v0", max_generations=10, pop_size=30),
        axes={
            "backend": ["soc", "analytical:GENESYS"],
            "platform.eve_pes": [16, 64, 256],
            "seed": [0, 1],
        },
    )
    result = run_sweep(sweep, jobs=4)
    for row in result.pareto_front({"fitness": "max", "energy_j": "min"}):
        print(row)

CLI: ``python -m repro dse --sweep sweep.json --jobs 4 --export out``.
"""

from .cache import (
    CACHE_FORMAT,
    EXPERIMENT_EVALUATOR,
    SweepCache,
    default_cache_dir,
    point_key,
    spec_key,
    sweep_key,
)
from .distributed import (
    DistributedSweepError,
    DistributedSweepRunner,
    SweepWorkQueue,
    default_work_dir,
)
from .halving import (
    HalvingError,
    HalvingResult,
    SuccessiveHalvingScheduler,
    halving_budgets,
)
from .pareto import ObjectiveError, dominates, pareto_front, parse_objectives
from .replay import EVE_REPLAY_EVALUATOR, eve_replay_evaluator
from .runner import (
    METRIC_COLUMNS,
    SweepResult,
    SweepRunner,
    evaluate_experiment_point,
    run_sweep,
)
from .spec import (
    PLATFORM_AXES,
    SPEC_AXES,
    SweepPoint,
    SweepSpec,
    SweepSpecError,
)

__all__ = [
    "CACHE_FORMAT",
    "EVE_REPLAY_EVALUATOR",
    "EXPERIMENT_EVALUATOR",
    "METRIC_COLUMNS",
    "PLATFORM_AXES",
    "DistributedSweepError",
    "DistributedSweepRunner",
    "HalvingError",
    "HalvingResult",
    "ObjectiveError",
    "SPEC_AXES",
    "SuccessiveHalvingScheduler",
    "SweepCache",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SweepSpecError",
    "SweepWorkQueue",
    "default_cache_dir",
    "default_work_dir",
    "dominates",
    "evaluate_experiment_point",
    "eve_replay_evaluator",
    "halving_budgets",
    "pareto_front",
    "parse_objectives",
    "point_key",
    "run_sweep",
    "spec_key",
    "sweep_key",
]
