"""Scenario specs: the environment as a declarative, content-addressed axis.

The paper's Section II motivation is *continuous* learning — agents that
keep evolving as the world changes — but a bare env id can only name a
fixed world.  A :class:`ScenarioSpec` makes the environment variant a
first-class spec value, exactly like :class:`repro.platforms.PlatformSpec`
made the hardware substrate one:

* a base environment id, spelled exactly as ``repro envs`` lists it,
* typed physics/reward parameter overrides (pole length, gravity, force
  magnitude, reward shaping — whatever the env declares in
  ``TUNABLE_PARAMS``),
* a stack of adversarial perturbations (seeded observation noise, action
  dropout, per-episode parameter jitter), and
* an optional :class:`~repro.scenarios.curriculum.CurriculumSchedule`
  that walks difficulty stages at generation boundaries.

Specs are frozen, JSON-round-trippable, and hash to a ``content_key()``
that feeds the DSE point cache, so sweeping ``scenario.*`` axes memoises
like every other axis.  :mod:`repro.scenarios.library` holds the six
built-in variants as a fixed table; a custom scenario travels by value,
as the ``scenario`` block of an experiment spec.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..obs.jsonl import JsonRecord, reject_unknown


class ScenarioSpecError(ValueError):
    """An invalid scenario spec (bad kind, unknown parameter, bad value)."""


class UnknownScenarioError(KeyError):
    """A scenario name absent from the built-in table."""


def _require_fraction(name: str, value: Any) -> float:
    value = _require_number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ScenarioSpecError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _require_non_negative(name: str, value: Any) -> float:
    value = _require_number(name, value)
    if value < 0:
        raise ScenarioSpecError(f"{name} must be >= 0, got {value!r}")
    return value


def _require_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioSpecError(f"{name} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ScenarioSpecError(f"{name} must be finite, got {value!r}")
    return number


# -- perturbations ----------------------------------------------------------


@dataclass(frozen=True)
class ObservationNoiseParams:
    """Gaussian noise added to every observation component."""

    std: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "std", _require_non_negative("observation_noise.std", self.std)
        )


@dataclass(frozen=True)
class ActionDropoutParams:
    """With probability ``prob``, the agent's action is replaced by a
    uniformly random one before the env sees it (actuator fault model)."""

    prob: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "prob", _require_fraction("action_dropout.prob", self.prob)
        )


@dataclass(frozen=True)
class ParameterJitterParams:
    """Per-episode multiplicative jitter on tunable physics parameters.

    At every ``reset()`` each named parameter (all tunables when ``params``
    is empty) is scaled by ``1 + U(-scale, +scale)`` drawn from the
    wrapper's own deterministic stream.
    """

    scale: float = 0.05
    params: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "scale", _require_non_negative("parameter_jitter.scale", self.scale)
        )
        if isinstance(self.params, str):
            raise ScenarioSpecError(
                "parameter_jitter.params must be a list of parameter names"
            )
        object.__setattr__(self, "params", tuple(str(p) for p in self.params))


#: kind -> typed params dataclass; the adversarial wrapper catalogue.
PERTURBATION_KINDS = {
    "observation_noise": ObservationNoiseParams,
    "action_dropout": ActionDropoutParams,
    "parameter_jitter": ParameterJitterParams,
}


def _coerce_perturbation_params(kind: str, params: Any):
    cls = PERTURBATION_KINDS.get(kind)
    if cls is None:
        raise ScenarioSpecError(
            f"unknown perturbation kind {kind!r}; "
            f"known: {sorted(PERTURBATION_KINDS)}"
        )
    if isinstance(params, cls):
        return params
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ScenarioSpecError(
            f"perturbation params must be a mapping, got {params!r}"
        )
    known = [f.name for f in dataclasses.fields(cls)]
    reject_unknown(params, known, ScenarioSpecError, f"{kind} parameter(s)")
    return cls(**params)


@dataclass(frozen=True)
class PerturbationSpec:
    """One adversarial wrapper: a kind plus its typed parameters."""

    kind: str
    params: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", _coerce_perturbation_params(self.kind, self.params)
        )

    def to_dict(self) -> Dict[str, Any]:
        data = {"kind": self.kind, "params": dataclasses.asdict(self.params)}
        if "params" in data["params"]:  # tuple -> list for JSON
            data["params"]["params"] = list(data["params"]["params"])
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerturbationSpec":
        if not isinstance(data, dict):
            raise ScenarioSpecError(f"perturbation must be a mapping, got {data!r}")
        reject_unknown(
            data, ("kind", "params"), ScenarioSpecError, "perturbation field(s)"
        )
        if "kind" not in data:
            raise ScenarioSpecError("perturbation is missing 'kind'")
        return cls(kind=data["kind"], params=data.get("params"))


def _coerce_perturbations(value: Any) -> Tuple[PerturbationSpec, ...]:
    if value is None:
        return ()
    if isinstance(value, (str, bytes, dict)):
        raise ScenarioSpecError(
            f"perturbations must be a list, got {value!r}"
        )
    out = []
    for item in value:
        if isinstance(item, PerturbationSpec):
            out.append(item)
        elif isinstance(item, dict):
            out.append(PerturbationSpec.from_dict(item))
        else:
            raise ScenarioSpecError(f"invalid perturbation entry: {item!r}")
    return tuple(out)


# -- the scenario spec ------------------------------------------------------


def _validate_env_params(env_id: str, params: Any, where: str) -> Dict[str, float]:
    """Check ``params`` against the env's declared tunables."""
    from ..envs import make
    from ..envs.base import check_tunable

    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ScenarioSpecError(f"{where} must be a mapping, got {params!r}")
    try:
        template = make(env_id)
    except KeyError as exc:
        raise ScenarioSpecError(str(exc.args[0]) if exc.args else str(exc)) from exc
    check_tunable(template.name, params, template.tunable_params(), ScenarioSpecError)
    return {key: _require_number(f"{where}.{key}", value) for key, value in params.items()}


@dataclass(frozen=True)
class ScenarioSpec(JsonRecord):
    """A frozen, JSON-round-trippable environment variant.

    ``params`` override the base env's ``TUNABLE_PARAMS``;
    ``perturbations`` wrap it (outermost last); ``curriculum`` (optional)
    schedules stage overrides at generation boundaries.
    """

    error = ScenarioSpecError
    label = "scenario"

    env_id: str
    name: Optional[str] = None
    params: Dict[str, float] = field(default_factory=dict)
    perturbations: Tuple[PerturbationSpec, ...] = ()
    curriculum: Optional[Any] = None  # CurriculumSchedule

    def __post_init__(self) -> None:
        from .curriculum import CurriculumSchedule

        if not isinstance(self.env_id, str) or not self.env_id:
            raise ScenarioSpecError("env_id must be a non-empty string")
        if self.name is not None and (
            not isinstance(self.name, str) or not self.name
        ):
            raise ScenarioSpecError("name must be a non-empty string or None")
        object.__setattr__(
            self,
            "params",
            _validate_env_params(self.env_id, self.params, "params"),
        )
        object.__setattr__(
            self, "perturbations", _coerce_perturbations(self.perturbations)
        )
        curriculum = self.curriculum
        if curriculum is not None:
            if isinstance(curriculum, dict):
                curriculum = CurriculumSchedule.from_dict(curriculum)
            if not isinstance(curriculum, CurriculumSchedule):
                raise ScenarioSpecError(
                    f"curriculum must be a CurriculumSchedule or mapping, "
                    f"got {curriculum!r}"
                )
            object.__setattr__(self, "curriculum", curriculum)
            for i, stage in enumerate(curriculum.stages):
                _validate_env_params(
                    self.env_id, stage.params, f"curriculum.stages[{i}].params"
                )

    # -- derived variants ---------------------------------------------------

    def stage_count(self) -> int:
        return len(self.curriculum.stages) if self.curriculum else 1

    def stage_scenario(self, stage: int) -> "ScenarioSpec":
        """The curriculum-free scenario active at ``stage``.

        Stage params merge over the base params; a stage's perturbation
        list (when given) replaces the base one.
        """
        if self.curriculum is None:
            if stage != 0:
                raise ScenarioSpecError(
                    f"scenario has no curriculum; stage {stage} does not exist"
                )
            return self
        stages = self.curriculum.stages
        if not 0 <= stage < len(stages):
            raise ScenarioSpecError(
                f"stage {stage} out of range; curriculum has {len(stages)} stages"
            )
        st = stages[stage]
        return self.replace(
            params={**self.params, **st.params},
            perturbations=(
                st.perturbations
                if st.perturbations is not None
                else self.perturbations
            ),
            curriculum=None,
        )

    # -- dict round-trip (JSON: repro.obs.jsonl.JsonRecord) -----------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"env_id": self.env_id}
        if self.name is not None:
            data["name"] = self.name
        if self.params:
            data["params"] = dict(self.params)
        if self.perturbations:
            data["perturbations"] = [p.to_dict() for p in self.perturbations]
        if self.curriculum is not None:
            data["curriculum"] = self.curriculum.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ScenarioSpecError(f"scenario must be a mapping, got {data!r}")
        known = [f.name for f in dataclasses.fields(cls)]
        reject_unknown(data, known, ScenarioSpecError, "scenario field(s)")
        if "env_id" not in data:
            raise ScenarioSpecError("scenario is missing 'env_id'")
        return cls(**data)
