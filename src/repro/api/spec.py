"""The experiment specification: one frozen record describes a whole run.

An :class:`ExperimentSpec` composes the workload (environment id), the
algorithm settings (generations, population, episodes), the substrate
(backend name) and the evaluation settings (workers, seed, threshold).
It round-trips through plain dicts and JSON so specs can live in files,
be passed over the CLI (``--spec FILE``), be sharded across machines
without any pickling — and anchor durable run directories
(:mod:`repro.runs` stores the producing spec as ``spec.json`` and a
resume re-derives the whole experiment from it).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..envs.evaluate import VECTORIZERS
from ..obs.jsonl import JsonRecord, check_fields
from ..platforms.spec import (
    PlatformSpec,
    PlatformSpecError,
    as_platform_spec,
)


class SpecError(ValueError):
    """Raised for invalid or inconsistent experiment specifications."""


def is_integer(value: Any) -> bool:
    """An integer spec field's value: integral, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec(JsonRecord):
    """Everything needed to reproduce one experiment, JSON-serialisable.

    ``backend`` names one of the three backends (``software``, ``soc``,
    ``analytical:<platform>``).  The hardware design point is named only
    by the ``platform`` block.  ``backend_options`` must stay empty: no
    backend takes options, and the field remains only because stored
    spec files, goldens and DSE cache keys hold ``"backend_options":
    {}``.
    """

    error = SpecError
    label = "spec"

    env_id: str
    backend: str = "software"
    max_generations: int = 50
    pop_size: int = 150
    episodes: int = 1
    max_steps: Optional[int] = None
    seed: int = 0
    fitness_threshold: Optional[float] = None
    workers: int = 1
    #: Inference strategy for the software evolution loop: ``scalar``
    #: walks each genome's compiled plan node by node, ``numpy`` stacks
    #: the population's plans and steps whole generations per numpy call
    #: (:mod:`repro.neat.compiled`); both give the same bits.
    vectorizer: str = "scalar"
    backend_options: Dict[str, Any] = field(default_factory=dict)
    #: Optional embedded :class:`repro.platforms.PlatformSpec` (or its
    #: dict/JSON form) naming the substrate's hardware design point.
    #: With ``backend="analytical"`` it selects the cost model; with
    #: ``backend="soc"`` (a ``soc``-kind spec) it selects the
    #: cycle-level design point.  Omitted from ``to_dict`` when unset,
    #: so pre-platform specs and their DSE cache keys are unchanged.
    platform: Optional[PlatformSpec] = None
    #: Optional embedded :class:`repro.scenarios.ScenarioSpec` (or its
    #: dict form) describing the environment variant: tunable parameter
    #: overrides, adversarial perturbation wrappers, an optional
    #: curriculum.  Its ``env_id`` must equal ``env_id`` exactly.
    #: Omitted from ``to_dict`` when unset, so pre-scenario specs and
    #: their DSE cache keys are unchanged.
    scenario: Optional[Any] = None

    def __post_init__(self) -> None:
        if not self.env_id or not isinstance(self.env_id, str):
            raise SpecError("env_id must be a non-empty string")
        if not self.backend or not isinstance(self.backend, str):
            raise SpecError("backend must be a non-empty string")
        for name in ("max_generations", "pop_size", "episodes", "max_steps", "seed", "workers"):
            value = getattr(self, name)
            if not (value is None and name == "max_steps") and not is_integer(value):
                raise SpecError(f"{name} must be an integer, got {value!r}")
        if self.max_generations < 1:
            raise SpecError("max_generations must be >= 1")
        if self.pop_size < 2:
            raise SpecError("pop_size must be >= 2")
        if self.episodes < 1:
            raise SpecError("episodes must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise SpecError("max_steps must be >= 1 when set")
        if self.workers < 1:
            raise SpecError("workers must be >= 1")
        threshold = self.fitness_threshold
        if threshold is not None and (
            not isinstance(threshold, numbers.Real) or not math.isfinite(threshold)
        ):
            raise SpecError(f"fitness_threshold must be a finite number, got {threshold!r}")
        if self.vectorizer not in VECTORIZERS:
            raise SpecError(
                f"vectorizer must be 'scalar' or 'numpy', got {self.vectorizer!r}"
            )
        if not isinstance(self.backend_options, Mapping):
            raise SpecError(
                f"backend_options must be an object, got {self.backend_options!r}"
            )
        if self.backend_options:
            raise SpecError(
                f"backend_options must be empty, got {dict(self.backend_options)!r}: "
                "no backend takes options (a hardware design point is the "
                "spec's 'platform' block)"
            )
        object.__setattr__(self, "backend_options", {})
        if self.platform is not None:
            try:
                platform = as_platform_spec(self.platform)
            except PlatformSpecError as exc:
                raise SpecError(f"invalid platform spec: {exc}") from exc
            object.__setattr__(self, "platform", platform)
            base, _, arg = self.backend.partition(":")
            if base == "software":
                raise SpecError(
                    "the software backend takes no platform; use "
                    "backend='analytical' or 'soc' with an embedded "
                    "platform spec"
                )
            if base == "analytical" and arg:
                raise SpecError(
                    f"backend {self.backend!r} already names a platform; "
                    "use backend='analytical' with the embedded platform "
                    "spec, or drop the embedded spec"
                )
            if base == "soc" and platform.kind != "soc":
                raise SpecError(
                    f"the soc backend needs a 'soc'-kind platform spec, "
                    f"got kind {platform.kind!r}"
                )
        if self.scenario is not None:
            from ..scenarios import ScenarioSpec, ScenarioSpecError

            scenario = self.scenario
            try:
                if isinstance(scenario, dict):
                    scenario = ScenarioSpec.from_dict(scenario)
                if not isinstance(scenario, ScenarioSpec):
                    raise ScenarioSpecError(
                        f"scenario must be a ScenarioSpec or mapping, "
                        f"got {scenario!r}"
                    )
            except ScenarioSpecError as exc:
                raise SpecError(f"invalid scenario spec: {exc}") from exc
            object.__setattr__(self, "scenario", scenario)
            if scenario.env_id != self.env_id:
                raise SpecError(
                    f"scenario env {scenario.env_id!r} does not match "
                    f"spec env {self.env_id!r}"
                )
            if self.backend.partition(":")[0] == "soc":
                raise SpecError(
                    "the soc backend does not support scenarios yet; "
                    "use the software or analytical backends"
                )

    # -- dict round-trip (JSON: repro.obs.jsonl.JsonRecord) ---------------

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        # Omitted (not null) when unset: pre-platform spec dicts — and
        # therefore their DSE cache keys — are byte-identical.
        if self.platform is None:
            del data["platform"]
        else:
            data["platform"] = self.platform.to_dict()
        # Same omitted-when-unset contract for the scenario block.
        if self.scenario is None:
            del data["scenario"]
        else:
            data["scenario"] = self.scenario.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        check_fields(data, cls, SpecError, "spec fields")
        return cls(**dict(data))
