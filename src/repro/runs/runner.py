"""Durable, resumable experiment execution.

:func:`run_in_dir` is ``Experiment(spec).run()`` with a memory: it
streams every generation's metrics to ``metrics.jsonl``, snapshots the
full evolution state every ``checkpoint_every`` generations (plus once
at the end), keeps ``champion.json`` current, and stamps ``result.json``
when the run completes.  :func:`resume_run` continues an interrupted run
from its last checkpoint.

The guarantee (golden-tested in ``tests/test_resume_golden.py``): a run
killed at any generation and resumed produces a ``metrics.jsonl``,
``champion.json`` and fitness trajectory *byte-identical* to the run
that was never interrupted — across the serial, ``workers=N`` pooled and
``vectorizer="numpy"`` evaluation paths.  Three pieces compose to make
that true:

* checkpoints capture everything a resume reads
  (:mod:`repro.neat.serialize` state format: genomes, speciation,
  counters, RNG);
* the evaluator's episode-seed stream is a pure function of
  ``(experiment seed, generation, genome key, episode)``, so resuming at
  generation *k* replays exactly the seeds the uninterrupted run used;
* resume rewinds ``metrics.jsonl`` to the checkpoint's boundary before
  re-appending, so rows past the last checkpoint are regenerated rather
  than duplicated.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..api.backends import (
    EvaluationObserver,
    GenerationObserver,
    ResumeUnsupportedError,
    ShouldStop,
    StateObserver,
)
from ..api.experiment import Experiment
from ..api.result import GenerationMetrics, RunResult
from ..api.spec import ExperimentSpec
from ..neat.population import Population
from .. import obs
from .artifacts import RunDir, RunError
from .locking import RunDirLock

#: Default checkpoint cadence (generations between full-state snapshots).
DEFAULT_CHECKPOINT_EVERY = 5


class RunWriter:
    """The observer bundle that persists a run's artifacts as it goes.

    Wire :meth:`on_generation` / :meth:`on_state` into
    :meth:`repro.api.Experiment.run` and call :meth:`finalize` with the
    result; :func:`run_in_dir` does exactly this.
    """

    def __init__(
        self,
        run_dir: RunDir,
        spec: ExperimentSpec,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.run_dir = run_dir
        self.spec = spec
        self.checkpoint_every = checkpoint_every
        self._population: Optional[Population] = None
        self._last_checkpoint_generation: Optional[int] = None
        self._scenario_stage: Optional[int] = None

    def on_generation(self, metrics: GenerationMetrics) -> None:
        # Remember the stage of the latest row (on_generation fires
        # before on_state) so the checkpoint records the stage at its
        # boundary.
        self._scenario_stage = metrics.scenario_stage
        self.run_dir.append_metrics(metrics.to_dict())

    def on_state(self, population: Population) -> None:
        # The cadence is modulo the absolute generation (not "every N
        # since start"), so interrupted and uninterrupted runs lay down
        # the same checkpoint files.
        self._population = population
        if population.generation % self.checkpoint_every == 0:
            self.checkpoint(population)

    def checkpoint(self, population: Population) -> None:
        with obs.span("checkpoint", generation=population.generation):
            state = population.to_state()
            if self._scenario_stage is not None:
                # Recorded for humans inspecting the checkpoint; resume
                # itself re-derives the stage by replaying the metrics
                # prefix through the curriculum fold.
                state["scenario_stage"] = self._scenario_stage
            self.run_dir.write_checkpoint(state)
            self._last_checkpoint_generation = population.generation
            if population.best_genome is not None:
                self.run_dir.write_champion(
                    population.best_genome, population.config
                )

    def finalize(self, result: RunResult, complete: bool = True) -> None:
        """Seal the run: final checkpoint, champion — and, for a run
        that actually finished (budget exhausted or threshold met), the
        ``result.json`` summary.  A preempted run (``complete=False``)
        leaves no ``result.json``, so the directory still reads as
        in-progress and a later resume completes it bit-identically."""
        if (
            self._population is not None
            and self._population.generation != self._last_checkpoint_generation
        ):
            self.checkpoint(self._population)
        self.run_dir.write_champion(result.champion, result.neat_config)
        if complete:
            self.run_dir.write_result(result.summary())


def _resolve_resume_spec(
    run_dir: RunDir, spec: Optional[ExperimentSpec]
) -> ExperimentSpec:
    """The spec a resume runs under: the stored one, optionally with an
    extended/shrunk generation budget — any other difference would break
    the bit-identity contract, so it is rejected."""
    stored = run_dir.load_spec()
    if spec is None:
        return stored
    if spec.replace(max_generations=stored.max_generations) != stored:
        detail = ""
        if spec.platform != stored.platform:
            # The platform block is part of the run's identity: a
            # different design point would re-cost (analytical) or
            # re-simulate (soc) the recorded generations differently.
            detail = (
                f" (stored platform: "
                f"{stored.platform.to_dict() if stored.platform else None}, "
                f"requested: "
                f"{spec.platform.to_dict() if spec.platform else None})"
            )
        raise RunError(
            f"resume spec differs from the one stored in {run_dir.path} "
            "in more than max_generations; resuming under a different "
            f"spec would diverge from the recorded run{detail}"
        )
    if spec != stored:
        run_dir.write_spec(spec)
    return spec


def run_in_dir(
    spec: Optional[Union[ExperimentSpec, str, Path]],
    run_dir: Union[str, Path, RunDir],
    *,
    resume: Union[bool, str] = False,
    checkpoint_every: Optional[int] = None,
    on_generation: Optional[GenerationObserver] = None,
    on_evaluation: Optional[EvaluationObserver] = None,
    on_state: Optional[StateObserver] = None,
    should_stop: Optional[ShouldStop] = None,
    lock_stale_after: Optional[float] = None,
    trace: Optional[bool] = None,
) -> RunResult:
    """Run an experiment with durable artifacts in ``run_dir``.

    ``resume=False`` starts a fresh run and refuses a directory that
    already holds one (pass a new directory or resume explicitly).
    ``resume=True`` continues from the last checkpoint — ``spec`` may be
    ``None`` (use the stored one) or differ only in ``max_generations``
    (extending a finished run is legitimate; anything else would
    diverge).  ``resume="auto"`` resumes when artifacts exist and starts
    fresh otherwise — the mode the DSE sweep engine and the
    :mod:`repro.serve` scheduler use.  An explicit ``resume=True`` on a
    ``soc``-backend run raises :class:`repro.api.ResumeUnsupportedError`
    (the chip model keeps no checkpoints); ``"auto"`` restarts such a
    run from scratch instead, which reproduces it exactly.

    The whole execution holds the directory's exclusive claim
    (:class:`repro.runs.RunDirLock`, heartbeat-refreshed), so two
    processes can never write the same run dir concurrently; a claim
    left by a crashed process is reclaimed automatically.
    ``lock_stale_after`` overrides the staleness window (seconds).

    ``should_stop`` is polled after every generation; returning ``True``
    ends the run cooperatively at that boundary.  A run stopped before
    its budget/threshold writes no ``result.json`` (it reads as
    in-progress) and resumes bit-identically later — the
    checkpoint-yield-resume preemption primitive of ``repro.serve``.

    ``trace=True`` (or the ``REPRO_TRACE`` environment variable when
    ``trace`` is ``None``) appends span/counter telemetry to
    ``telemetry.jsonl`` in the run directory — strictly out-of-band:
    every other artifact stays byte-identical to an untraced run (see
    :mod:`repro.obs` and ``docs/observability.md``).

    Returns the same :class:`repro.api.RunResult` a plain
    :meth:`Experiment.run` would, with ``metrics`` covering the *whole*
    trajectory (persisted prefix + freshly run generations).
    """
    rd = run_dir if isinstance(run_dir, RunDir) else RunDir(run_dir)
    if spec is not None and not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec.load(spec)
    explicit_resume = resume is True
    if resume == "auto":
        resume = rd.has_artifacts()
    elif not isinstance(resume, bool):
        raise ValueError(f"resume must be True, False or 'auto', got {resume!r}")

    lock_kwargs: Dict[str, Any] = {}
    if lock_stale_after is not None:
        lock_kwargs["stale_after"] = lock_stale_after
    if trace is None:
        trace = obs.env_trace_enabled()
    with RunDirLock(rd.path, **lock_kwargs):
        locked_kwargs = dict(
            resume=resume,
            explicit_resume=explicit_resume,
            checkpoint_every=checkpoint_every,
            on_generation=on_generation,
            on_evaluation=on_evaluation,
            on_state=on_state,
            should_stop=should_stop,
        )
        if trace:
            with obs.tracing(rd.telemetry_path), obs.span(
                "run", run_dir=str(rd.path), resume=bool(resume)
            ):
                return _run_in_locked_dir(spec, rd, **locked_kwargs)
        return _run_in_locked_dir(spec, rd, **locked_kwargs)


def _run_in_locked_dir(
    spec: Optional[ExperimentSpec],
    rd: RunDir,
    *,
    resume: bool,
    explicit_resume: bool,
    checkpoint_every: Optional[int],
    on_generation: Optional[GenerationObserver],
    on_evaluation: Optional[EvaluationObserver],
    on_state: Optional[StateObserver],
    should_stop: Optional[ShouldStop],
) -> RunResult:
    resume_state: Optional[Dict[str, Any]] = None
    prefix_rows: List[Dict[str, Any]] = []
    if resume:
        spec = _resolve_resume_spec(rd, spec)
        if explicit_resume and spec.substrate == "soc":
            raise ResumeUnsupportedError(
                f"{rd.path} was recorded by the soc backend, which keeps "
                "no checkpoints (its population lives inside the serial "
                "chip simulation) — re-run the spec fresh, or use the "
                "software/analytical backends for resumable runs"
            )
        if checkpoint_every is None:
            # Keep the original cadence so an interrupted-and-resumed
            # run lays down the same checkpoint files as an
            # uninterrupted one.
            checkpoint_every = rd.load_meta().get(
                "checkpoint_every", DEFAULT_CHECKPOINT_EVERY
            )
        elif rd.load_meta().get("checkpoint_every") != checkpoint_every:
            rd.write_meta(checkpoint_every=checkpoint_every)
        latest = rd.latest_checkpoint()
        if latest is not None:
            resume_state = rd.load_checkpoint(latest[0])
            # Annotation only — Population.from_state must not see it.
            resume_state.pop("scenario_stage", None)
            # Rewind metrics to the checkpoint boundary; the generations
            # past it re-run and re-append identical rows.
            prefix_rows = rd.truncate_metrics(int(resume_state["generation"]))
        else:
            # Interrupted before the first checkpoint: a full restart is
            # the resume (the initial population is a pure function of
            # the spec, so this still reproduces the original run).
            rd.create()
            rd.truncate_metrics(0)
    else:
        if rd.has_artifacts():
            raise RunError(
                f"{rd.path} already holds a run; resume it or pick a "
                "fresh directory"
            )
        if spec is None:
            raise RunError("a spec is required to start a fresh run")
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        rd.create()
        rd.write_spec(spec)
        rd.write_meta(checkpoint_every=checkpoint_every)

    writer = RunWriter(rd, spec, checkpoint_every=checkpoint_every)

    def generation_observer(metrics: GenerationMetrics) -> None:
        writer.on_generation(metrics)
        if on_generation is not None:
            on_generation(metrics)

    def state_observer(population: Population) -> None:
        writer.on_state(population)
        if on_state is not None:
            on_state(population)

    result = Experiment(spec).run(
        on_generation=generation_observer,
        on_evaluation=on_evaluation,
        on_state=state_observer,
        resume_state=resume_state,
        should_stop=should_stop,
        # A scenario run replays its curriculum fold over the persisted
        # rows, so a resumed run re-enters the exact stage the
        # uninterrupted run would be in at this boundary.
        resume_metrics=prefix_rows,
    )
    if prefix_rows:
        prefix = [GenerationMetrics(**row) for row in prefix_rows]
        result.metrics = prefix + result.metrics
        if result.total_energy_j is not None:
            result.total_energy_j = sum(
                m.energy_j or 0.0 for m in result.metrics
            )
        if result.total_runtime_s is not None:
            result.total_runtime_s = sum(
                m.runtime_s or 0.0 for m in result.metrics
            )
    # A cooperatively stopped run that nevertheless reached its budget
    # or threshold is complete; only a genuinely early yield stays open.
    complete = (
        result.converged or result.generations >= spec.max_generations
    )
    writer.finalize(result, complete=complete)
    return result


def resume_run(
    run_dir: Union[str, Path, RunDir],
    max_generations: Optional[int] = None,
    **kwargs: Any,
) -> RunResult:
    """Continue an interrupted (or extend a finished) run.

    ``max_generations`` overrides the stored budget — the one spec field
    a resume may change; a completed run resumed with a larger budget
    keeps evolving from its final checkpoint with no re-simulation of
    the generations already on disk.
    """
    rd = run_dir if isinstance(run_dir, RunDir) else RunDir(run_dir)
    spec: Optional[ExperimentSpec] = None
    if max_generations is not None:
        spec = rd.load_spec().replace(max_generations=max_generations)
    return run_in_dir(spec, rd, resume=True, **kwargs)
