"""Curriculum schedules: difficulty stages applied at generation boundaries.

Two modes:

* ``fixed`` — stages keyed by generation number (`at_generation`); the
  stage for generation *g* is the last stage whose boundary is <= *g*.
* ``adaptive`` — advance to the next stage once the champion fitness has
  met the current stage's exit threshold for ``patience`` consecutive
  generations (NEAT's complexification chasing a moving target, per
  the Stanley & Miikkulainen framing in PAPERS.md).

Stage decisions are a *pure fold* over the per-generation champion
fitness history, and switches only ever apply to the **next** generation.
That makes checkpoint/resume byte-identical by construction: on resume
the :class:`CurriculumController` replays the metrics rows already on
disk and lands in exactly the state the uninterrupted run would hold.

The controller also derives the continuous-learning metrics the
task-switch bench reports: per-generation ``scenario_forgetting`` (how
far the champion fell below its best on the previous stage) and
``scenario_recovery`` (generations taken to regain that level), written
into ``metrics.jsonl`` alongside the fitness columns.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..obs.jsonl import reject_unknown
from .spec import (
    PerturbationSpec,
    ScenarioSpecError,
    _coerce_perturbations,
    _require_number,
)

CURRICULUM_MODES = ("fixed", "adaptive")


@dataclass(frozen=True)
class CurriculumStage:
    """One difficulty stage: parameter overrides plus scheduling keys.

    ``params`` merge over the scenario's base params; ``perturbations``
    (when not None) *replace* the base perturbation stack.
    ``at_generation`` keys fixed schedules; ``threshold`` overrides the
    schedule-wide exit threshold in adaptive mode.
    """

    params: Dict[str, float] = field(default_factory=dict)
    perturbations: Optional[Tuple[PerturbationSpec, ...]] = None
    at_generation: Optional[int] = None
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.params, dict):
            raise ScenarioSpecError(
                f"stage params must be a mapping, got {self.params!r}"
            )
        params = {
            key: _require_number(f"stage params.{key}", value)
            for key, value in self.params.items()
        }
        object.__setattr__(self, "params", params)
        if self.perturbations is not None:
            object.__setattr__(
                self, "perturbations", _coerce_perturbations(self.perturbations)
            )
        if self.at_generation is not None:
            if isinstance(self.at_generation, bool) or not isinstance(
                self.at_generation, int
            ):
                raise ScenarioSpecError(
                    f"at_generation must be an integer, got {self.at_generation!r}"
                )
            if self.at_generation < 0:
                raise ScenarioSpecError(
                    f"at_generation must be >= 0, got {self.at_generation}"
                )
        if self.threshold is not None:
            object.__setattr__(
                self, "threshold", _require_number("stage threshold", self.threshold)
            )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"params": dict(self.params)}
        if self.perturbations is not None:
            data["perturbations"] = [p.to_dict() for p in self.perturbations]
        if self.at_generation is not None:
            data["at_generation"] = self.at_generation
        if self.threshold is not None:
            data["threshold"] = self.threshold
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CurriculumStage":
        if not isinstance(data, dict):
            raise ScenarioSpecError(f"stage must be a mapping, got {data!r}")
        known = [f.name for f in dataclasses.fields(cls)]
        reject_unknown(data, known, ScenarioSpecError, "stage field(s)")
        return cls(**data)


@dataclass(frozen=True)
class CurriculumSchedule:
    """An ordered stage sequence plus the advancement rule."""

    stages: Tuple[CurriculumStage, ...] = ()
    mode: str = "fixed"
    advance_threshold: Optional[float] = None
    patience: int = 1

    def __post_init__(self) -> None:
        if self.mode not in CURRICULUM_MODES:
            raise ScenarioSpecError(
                f"unknown curriculum mode {self.mode!r}; known: "
                f"{list(CURRICULUM_MODES)}"
            )
        stages = []
        for stage in self.stages:
            if isinstance(stage, dict):
                stage = CurriculumStage.from_dict(stage)
            if not isinstance(stage, CurriculumStage):
                raise ScenarioSpecError(f"invalid curriculum stage: {stage!r}")
            stages.append(stage)
        object.__setattr__(self, "stages", tuple(stages))
        if len(self.stages) < 2:
            raise ScenarioSpecError(
                f"a curriculum needs at least 2 stages, got {len(self.stages)}"
            )
        if self.advance_threshold is not None:
            object.__setattr__(
                self,
                "advance_threshold",
                _require_number("advance_threshold", self.advance_threshold),
            )
        if isinstance(self.patience, bool) or not isinstance(self.patience, int):
            raise ScenarioSpecError(
                f"patience must be an integer, got {self.patience!r}"
            )
        if self.patience < 1:
            raise ScenarioSpecError(f"patience must be >= 1, got {self.patience}")
        if self.mode == "fixed":
            self._validate_fixed()
        else:
            self._validate_adaptive()

    def _validate_fixed(self) -> None:
        first = self.stages[0].at_generation
        if first not in (None, 0):
            raise ScenarioSpecError(
                f"fixed curriculum stage 0 must start at generation 0, "
                f"got at_generation={first}"
            )
        previous = 0
        for i, stage in enumerate(self.stages[1:], start=1):
            if stage.at_generation is None:
                raise ScenarioSpecError(
                    f"fixed curriculum stage {i} needs at_generation"
                )
            if stage.at_generation <= previous:
                raise ScenarioSpecError(
                    "fixed curriculum at_generation values must be strictly "
                    f"increasing; stage {i} has {stage.at_generation}"
                )
            previous = stage.at_generation
        for i, stage in enumerate(self.stages):
            if stage.threshold is not None:
                raise ScenarioSpecError(
                    f"fixed curriculum stage {i} must not set threshold"
                )

    def _validate_adaptive(self) -> None:
        for i, stage in enumerate(self.stages):
            if stage.at_generation is not None:
                raise ScenarioSpecError(
                    f"adaptive curriculum stage {i} must not set at_generation"
                )
        for i in range(len(self.stages) - 1):  # the last stage never exits
            if self.exit_threshold(i) is None:
                raise ScenarioSpecError(
                    f"adaptive curriculum stage {i} has no exit threshold; "
                    "set advance_threshold or a per-stage threshold"
                )

    # -- schedule queries ---------------------------------------------------

    def exit_threshold(self, stage: int) -> Optional[float]:
        override = self.stages[stage].threshold
        return override if override is not None else self.advance_threshold

    def stage_for_generation(self, generation: int) -> int:
        """Fixed mode: the stage active at ``generation``."""
        current = 0
        for i, stage in enumerate(self.stages[1:], start=1):
            if stage.at_generation <= generation:
                current = i
        return current

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "mode": self.mode,
            "stages": [stage.to_dict() for stage in self.stages],
            "patience": self.patience,
        }
        if self.advance_threshold is not None:
            data["advance_threshold"] = self.advance_threshold
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CurriculumSchedule":
        if not isinstance(data, dict):
            raise ScenarioSpecError(f"curriculum must be a mapping, got {data!r}")
        known = [f.name for f in dataclasses.fields(cls)]
        reject_unknown(data, known, ScenarioSpecError, "curriculum field(s)")
        return cls(**data)


class CurriculumController:
    """Runtime curriculum state: a deterministic fold over champion fitness.

    One :meth:`step` call per completed generation annotates the metrics
    row with the stage it was evaluated under (plus forgetting/recovery
    once a switch has happened), folds the advancement rule, and returns
    the new stage index when the *next* generation should run on a
    different stage.  :meth:`restore` replays previously recorded metrics
    rows through the same fold, so a resumed run is state-identical to an
    uninterrupted one at every boundary.
    """

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.schedule: Optional[CurriculumSchedule] = scenario.curriculum
        self.stage = 0
        self._streak = 0
        self._stage_best: Optional[float] = None
        self._pre_switch_best: Optional[float] = None
        self._switch_generation: Optional[int] = None
        self._recovered: Optional[int] = None

    def active_scenario(self):
        """The curriculum-free scenario for the current stage."""
        return self.scenario.stage_scenario(self.stage)

    def restore(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Replay recorded metrics rows (in generation order)."""
        for row in rows:
            self.step(int(row["generation"]), float(row["best_fitness"]))

    def step(
        self, generation: int, best_fitness: float, metrics=None
    ) -> Optional[int]:
        """Fold one completed generation; returns the new stage on a switch."""
        if metrics is not None:
            metrics.scenario_stage = self.stage
        if self._stage_best is None or best_fitness > self._stage_best:
            self._stage_best = best_fitness
        if self._pre_switch_best is not None:
            if metrics is not None:
                metrics.scenario_forgetting = max(
                    0.0, self._pre_switch_best - best_fitness
                )
            if self._recovered is None and best_fitness >= self._pre_switch_best:
                self._recovered = generation - self._switch_generation + 1
                if metrics is not None:
                    metrics.scenario_recovery = self._recovered
        target = self._advance(generation, best_fitness)
        if target is None:
            return None
        self._pre_switch_best = self._stage_best
        self._switch_generation = generation + 1
        self._stage_best = None
        self._recovered = None
        self._streak = 0
        self.stage = target
        return target

    def _advance(self, generation: int, best_fitness: float) -> Optional[int]:
        schedule = self.schedule
        if schedule is None:
            return None
        if schedule.mode == "fixed":
            target = schedule.stage_for_generation(generation + 1)
            return target if target > self.stage else None
        if self.stage >= len(schedule.stages) - 1:
            return None
        if best_fitness >= schedule.exit_threshold(self.stage):
            self._streak += 1
            if self._streak >= schedule.patience:
                return self.stage + 1
        else:
            self._streak = 0
        return None


def switch_report(rows: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-switch forgetting/recovery summary from recorded metrics rows.

    One output row per stage switch observed in ``rows``: the generation
    the new stage took over, the stage indices, the worst forgetting seen
    on the new stage, and the recovery time (None when the run ended
    before the champion regained its pre-switch level).
    """
    report: List[Dict[str, Any]] = []
    current = None
    previous_stage = None
    for row in rows:
        stage = row.get("scenario_stage")
        if stage is None:
            continue
        if previous_stage is not None and stage != previous_stage:
            current = {
                "generation": int(row["generation"]),
                "from_stage": previous_stage,
                "to_stage": stage,
                "max_forgetting": 0.0,
                "recovery_generations": None,
            }
            report.append(current)
        previous_stage = stage
        if current is not None and stage == current["to_stage"]:
            forgetting = row.get("scenario_forgetting")
            if forgetting is not None:
                current["max_forgetting"] = max(
                    current["max_forgetting"], float(forgetting)
                )
            recovery = row.get("scenario_recovery")
            if recovery is not None and current["recovery_generations"] is None:
                current["recovery_generations"] = int(recovery)
    return report
