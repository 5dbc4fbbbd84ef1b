"""Unified experiment API: one spec, three backends, parallel evaluation.

The paper's central claim is that *the same* evolutionary loop runs across
many substrates — a software CPU baseline, the EvE/ADAM SoC, the Table III
platform models — and many workloads, with only the fitness function
changing (Section III-B).  This package is that claim as an API:

* :class:`ExperimentSpec` — a frozen, JSON-round-trippable description of
  one experiment (workload + algorithm + backend + evaluation settings).
* :class:`Experiment` — resolves a spec, and nothing else, against one
  of three backends and runs the closed loop: ``software``
  (pure-software NEAT), ``soc`` (the EvE/ADAM hardware-in-the-loop
  models) and ``analytical:<platform>`` (software evolution costed
  through a Table III platform model).  The spec is the whole
  experiment, so a run rebuilt from ``spec.json`` — resumed, served or
  swept — is the same run.
* :class:`RunResult` / :class:`GenerationMetrics` — the unified result
  every backend returns, with optional hardware reports and energy/cycle
  totals.
* ``workers=N`` on the spec switches fitness evaluation to a
  ``multiprocessing`` pool whose per-genome derived seeds make results
  bit-identical to the serial path.
* ``vectorizer="numpy"`` compiles the population into stacked dense
  inference plans (:mod:`repro.neat.compiled`) and steps every in-flight
  episode per numpy call — composable with ``workers`` (each worker
  batches its shard) and reproducing the scalar fitness trajectories.
* :func:`repro.runs.run_in_dir` records a run durably and makes it
  resumable: per-generation metrics, periodic full-state checkpoints,
  champion — with resumed runs bit-identical to uninterrupted ones.

Quickstart::

    from repro.api import Experiment, ExperimentSpec

    spec = ExperimentSpec("CartPole-v0", backend="soc", max_generations=20)
    result = Experiment(spec).run()
    print(result.best_fitness, result.total_energy_j)
"""

from .backends import (
    AnalyticalBackend,
    EvaluationObserver,
    GenerationObserver,
    ResumeUnsupportedError,
    ShouldStop,
    SoCBackend,
    SoftwareBackend,
    StateObserver,
    UnknownBackendError,
    available_backends,
    make_backend,
)
from .experiment import Experiment
from .parallel import ParallelFitnessEvaluator, build_evaluator
from .result import GenerationMetrics, RunResult
from .spec import ExperimentSpec, SpecError

__all__ = [
    "AnalyticalBackend",
    "EvaluationObserver",
    "Experiment",
    "ExperimentSpec",
    "GenerationMetrics",
    "GenerationObserver",
    "ParallelFitnessEvaluator",
    "ResumeUnsupportedError",
    "RunResult",
    "ShouldStop",
    "SoCBackend",
    "SoftwareBackend",
    "SpecError",
    "StateObserver",
    "UnknownBackendError",
    "available_backends",
    "build_evaluator",
    "make_backend",
]
