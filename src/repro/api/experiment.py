"""The experiment runner: resolve a spec against a backend and go.

:class:`Experiment` is the single entry point the CLI, the examples, the
benchmarks, :mod:`repro.runs` and :mod:`repro.dse` all share.  The one
non-JSON argument, a fitness transform callable, is passed to the
constructor; everything else lives on the spec.

Durable, resumable runs layer on top of this module: pass ``run_dir``
to :func:`run_experiment` (or use :func:`repro.runs.run_in_dir`
directly) and the run persists ``spec.json``, per-generation
``metrics.jsonl``, periodic full-state checkpoints and the champion —
see :mod:`repro.runs`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .backends import (
    Backend,
    EvaluationObserver,
    GenerationObserver,
    ShouldStop,
    StateObserver,
    make_backend,
)
from .result import RunResult
from .spec import ExperimentSpec


class Experiment:
    """One experiment: a spec plus the backend that will run it.

    Parameters
    ----------
    spec:
        The :class:`ExperimentSpec` to run.
    fitness_transform:
        Optional callable applied to each genome's mean episode reward
        before it becomes fitness (the paper's "only the fitness
        function changes between workloads").
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        fitness_transform: Optional[Callable[[float], float]] = None,
    ) -> None:
        self.spec = spec
        options: Dict[str, Any] = dict(spec.backend_options)
        if fitness_transform is not None:
            options["fitness_transform"] = fitness_transform
        # The spec's platform block reaches the built-in substrate
        # factories as their 'platform' option; custom backends read
        # spec.platform themselves in run().
        if spec.backend.partition(":")[0] in ("analytical", "soc"):
            options["platform"] = spec.platform
        self.backend: Backend = make_backend(spec.backend, **options)

    def run(
        self,
        on_generation: Optional[GenerationObserver] = None,
        on_evaluation: Optional[EvaluationObserver] = None,
        on_state: Optional[StateObserver] = None,
        resume_state: Optional[Dict] = None,
        should_stop: Optional[ShouldStop] = None,
        resume_metrics: Optional[List[Dict]] = None,
    ) -> RunResult:
        """Run the closed loop to threshold or generation budget.

        ``on_state`` fires after each generation with the live
        :class:`repro.neat.Population` (software-loop backends only),
        ``resume_state`` continues a run from a
        :meth:`repro.neat.Population.to_state` checkpoint payload, and
        ``should_stop`` is polled after each generation to end the run
        cooperatively at that boundary (``result.stopped_early`` marks
        such runs).  ``resume_metrics`` (the already-recorded metrics
        rows, generation order) lets a scenario run replay its
        curriculum fold on resume.  All are forwarded only when set, so
        backends registered before these capabilities existed keep
        working unchanged.
        """
        extra: Dict[str, Any] = {}
        if on_state is not None:
            extra["on_state"] = on_state
        if resume_state is not None:
            extra["resume_state"] = resume_state
        if should_stop is not None:
            extra["should_stop"] = should_stop
        if resume_metrics is not None:
            extra["resume_metrics"] = resume_metrics
        return self.backend.run(
            self.spec,
            on_generation=on_generation,
            on_evaluation=on_evaluation,
            **extra,
        )


def run_experiment(
    spec: Union[ExperimentSpec, str, Path],
    on_generation: Optional[GenerationObserver] = None,
    on_evaluation: Optional[EvaluationObserver] = None,
    run_dir: Optional[Union[str, Path]] = None,
    resume: Union[bool, str] = False,
    checkpoint_every: Optional[int] = None,
    **experiment_kwargs,
) -> RunResult:
    """Convenience: run a spec object or a spec JSON file in one call.

    With ``run_dir`` the run persists its artifacts (spec, per-generation
    metrics, periodic full-state checkpoints, champion) into that
    directory and becomes resumable: ``resume=True`` continues it from
    the last checkpoint, ``resume="auto"`` resumes when artifacts exist
    and starts fresh otherwise.  See :mod:`repro.runs` for the layout
    and the bit-identity guarantee.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec.load(spec)
    if run_dir is not None:
        from ..runs import run_in_dir

        runs_kwargs: Dict[str, Any] = {}
        if checkpoint_every is not None:
            runs_kwargs["checkpoint_every"] = checkpoint_every
        return run_in_dir(
            spec,
            run_dir,
            resume=resume,
            on_generation=on_generation,
            on_evaluation=on_evaluation,
            **runs_kwargs,
            **experiment_kwargs,
        )
    if resume:
        raise ValueError("resume requires run_dir (a directory to resume from)")
    return Experiment(spec, **experiment_kwargs).run(
        on_generation=on_generation, on_evaluation=on_evaluation
    )
