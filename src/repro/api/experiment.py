"""The experiment runner: resolve a spec against a backend and go.

:class:`Experiment` is the single entry point the CLI, the examples, the
benchmarks, :mod:`repro.runs` and :mod:`repro.dse` all share.  It takes
the spec alone: everything that shapes a run lives on the spec, so a
run rebuilt from its ``spec.json`` (a resume, a serve worker, a sweep
point) is the same run.  Observer callbacks watch a run; they do not
change it.

Durable, resumable runs layer on top of this module:
:func:`repro.runs.run_in_dir` runs a spec in a directory and persists
``spec.json``, per-generation ``metrics.jsonl``, periodic full-state
checkpoints and the champion — see :mod:`repro.runs`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .backends import (
    EvaluationObserver,
    GenerationObserver,
    ShouldStop,
    StateObserver,
    make_backend,
)
from .result import RunResult
from .spec import ExperimentSpec


class Experiment:
    """One experiment: a spec plus the backend that will run it."""

    def __init__(self, spec: ExperimentSpec) -> None:
        self.spec = spec
        self.backend = make_backend(spec.backend, spec.platform)

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
        curriculum fold on resume.
        """
        return self.backend.run(
            self.spec, on_generation, on_evaluation, on_state,
            resume_state, should_stop, resume_metrics,
        )
