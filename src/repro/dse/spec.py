"""Declarative sweep specifications: one record describes a design space.

A :class:`SweepSpec` is to a design-space study what
:class:`repro.api.ExperimentSpec` is to a single run: a frozen,
JSON-round-trippable description.  It names a *base* experiment spec and
a set of *axes* — each axis a spec field (``env_id``, ``backend``,
``pop_size``, ``seed``, …) or a field of the unified
:class:`repro.platforms.PlatformSpec` (``platform.eve_pes``,
``platform.noc``, ``platform.scheduler``, ``platform.adam_shape``, …) —
with the list of values to explore.  ``expand()`` materialises the spec
into concrete :class:`SweepPoint`\\ s either as the full cartesian
``grid`` or as a seeded ``random`` sample of it.

Platform axes parameterise the hardware substrates: on ``soc``-backend
points they update (or create) the embedded ``soc``-kind platform spec;
on ``analytical:<name>`` points they derive a variant of the named
table platform (each point's
:meth:`~repro.api.ExperimentSpec.design_point`); on other backends they
do not change the executed experiment, so equivalent points collapse to
one evaluation under the content-hash cache (:mod:`repro.dse.cache`).
Each point's spec is checked when it is built, so ``expand()`` refuses a
bad point (a misspelt backend or platform) with a :class:`SweepSpecError`
naming it, before :class:`repro.dse.SweepRunner` runs any point.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..api.spec import ExperimentSpec, SpecError, is_integer
from ..obs.jsonl import JsonRecord, reject_unknown
from ..platforms import PLATFORM_KINDS, PlatformSpecError


class SweepSpecError(SpecError):
    """Raised for invalid or inconsistent sweep specifications."""


#: Sampling strategies ``expand()`` understands.
STRATEGIES = ("grid", "random")

#: Every sweepable field of the unified platform spec, as
#: ``platform.<field>`` axis names — the union of all platform kinds'
#: parameter fields (validated per point against the actual kind).
PLATFORM_AXES = tuple(
    sorted(
        {
            f"platform.{params_field.name}"
            for params_cls in PLATFORM_KINDS.values()
            for params_field in dataclasses.fields(params_cls)
        }
    )
)

#: Experiment-spec fields an axis may sweep (axis values are JSON
#: scalars, so the ``backend_options`` object is not one; ``platform``
#: is swept by the ``platform.*`` axes, ``scenario`` by the
#: ``scenario.*`` axes).
SPEC_AXES = tuple(
    sorted(
        f.name
        for f in dataclasses.fields(ExperimentSpec)
        if f.name not in ("backend_options", "platform", "scenario")
    )
)

#: The fixed scenario axis; ``scenario.params.<key>`` axes are validated
#: dynamically (the key set is environment-specific).
SCENARIO_NAME_AXIS = "scenario.name"
SCENARIO_PARAM_PREFIX = "scenario.params."


def _is_scenario_axis(name: str) -> bool:
    if name == SCENARIO_NAME_AXIS:
        return True
    return (
        name.startswith(SCENARIO_PARAM_PREFIX)
        and len(name) > len(SCENARIO_PARAM_PREFIX)
    )


def _is_json_scalar(value: Any) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)  # JSON has no NaN or infinity
    return value is None or isinstance(value, (bool, int, str))


@dataclass(frozen=True)
class SweepPoint:
    """One concrete point of a sweep: chosen axis values + effective spec.

    ``axes`` records the value every axis took at this point; ``spec`` is
    the resolved :class:`ExperimentSpec` the default executor runs
    (``platform.*`` axes embedded in its ``platform`` block).
    """

    index: int
    axes: Dict[str, Any]
    spec: ExperimentSpec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "axes": dict(self.axes),
            "spec": self.spec.to_dict(),
        }


@dataclass(frozen=True)
class SweepSpec(JsonRecord):
    """A design-space study, JSON-serialisable.

    ``axes`` maps axis names to candidate-value lists.  An axis name is
    an :class:`repro.api.ExperimentSpec` field (:data:`SPEC_AXES` —
    ``seed``, ``backend``, ``pop_size``, …), a unified platform-spec
    field (:data:`PLATFORM_AXES` — ``platform.eve_pes``,
    ``platform.noc``, ``platform.scheduler``, ``platform.adam_shape``,
    …), which parameterises the ``soc``/``analytical`` substrates and
    leaves other backends unchanged, a scenario axis (``scenario.name``
    sweeps the built-in environment scenarios — ``None`` meaning the
    unmodified base env — and ``scenario.params.<key>`` sweeps one
    tunable environment parameter).  ``strategy`` is ``grid`` (full
    cartesian product, the default) or ``random`` (``samples`` draws
    from the grid using ``sample_seed`` — duplicates collapse, so the
    expansion may be shorter than ``samples``).

    Execute with :class:`repro.dse.SweepRunner` / :func:`repro.dse.run_sweep`
    (CLI: ``repro dse --sweep FILE``); pass ``runs_dir`` there to give
    every evaluated point a durable, resumable :mod:`repro.runs`
    directory.
    """

    error = SweepSpecError
    label = "sweep"

    base: ExperimentSpec
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    strategy: str = "grid"
    samples: Optional[int] = None
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base, ExperimentSpec):
            raise SweepSpecError("base must be an ExperimentSpec")
        if self.strategy not in STRATEGIES:
            raise SweepSpecError(
                f"strategy must be one of {list(STRATEGIES)}, "
                f"got {self.strategy!r}"
            )
        if not self.axes:
            raise SweepSpecError("a sweep needs at least one axis")
        for name, values in self.axes.items():
            if (
                name not in SPEC_AXES
                and name not in PLATFORM_AXES
                and not _is_scenario_axis(name)
            ):
                raise SweepSpecError(
                    f"unknown sweep axis {name!r}; spec axes: "
                    f"{list(SPEC_AXES)}; platform axes: "
                    f"{list(PLATFORM_AXES)}; scenario axes: "
                    f"['{SCENARIO_NAME_AXIS}', "
                    f"'{SCENARIO_PARAM_PREFIX}<key>']"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise SweepSpecError(
                    f"axis {name!r} needs a non-empty list of values"
                )
            for value in values:
                if not _is_json_scalar(value):
                    raise SweepSpecError(
                        f"axis {name!r} value {value!r} is not a JSON scalar"
                    )
            if len(set(values)) != len(values):
                raise SweepSpecError(f"axis {name!r} has duplicate values")
        if not is_integer(self.sample_seed):
            raise SweepSpecError(
                f"sample_seed must be an integer, got {self.sample_seed!r}"
            )
        if self.samples is not None and not is_integer(self.samples):
            raise SweepSpecError(f"samples must be an integer, got {self.samples!r}")
        if self.strategy == "random":
            if self.samples is None or self.samples < 1:
                raise SweepSpecError(
                    "random sampling needs samples >= 1"
                )
        elif self.samples is not None:
            raise SweepSpecError("samples only applies to strategy='random'")

    # -- expansion --------------------------------------------------------

    @property
    def axis_names(self) -> List[str]:
        return list(self.axes)

    def _combinations(self) -> List[Tuple[Any, ...]]:
        names = self.axis_names
        if self.strategy == "grid":
            return list(itertools.product(*(self.axes[n] for n in names)))
        rng = random.Random(self.sample_seed)
        seen, combos = set(), []
        for _ in range(self.samples):
            combo = tuple(rng.choice(self.axes[n]) for n in names)
            if combo not in seen:
                seen.add(combo)
                combos.append(combo)
        return combos

    def resolve_point(self, index: int, values: Mapping[str, Any]) -> SweepPoint:
        """Resolve one axis-value assignment into a :class:`SweepPoint`."""
        spec_fields = {k: v for k, v in values.items() if k in SPEC_AXES}
        try:
            spec = self.base.replace(**spec_fields) if spec_fields else self.base
        except SpecError as exc:
            raise SweepSpecError(f"point {dict(values)}: {exc}") from exc
        platform_fields = {
            k.split(".", 1)[1]: v
            for k, v in values.items()
            if k in PLATFORM_AXES
        }
        if platform_fields:
            spec = self._apply_platform_fields(spec, platform_fields, values)
        scenario_fields = {
            k: v for k, v in values.items() if _is_scenario_axis(k)
        }
        if scenario_fields:
            spec = self._apply_scenario_fields(spec, scenario_fields, values)
        return SweepPoint(index=index, axes=dict(values), spec=spec)

    @staticmethod
    def _apply_scenario_fields(
        spec: ExperimentSpec,
        fields: Mapping[str, Any],
        values: Mapping[str, Any],
    ) -> ExperimentSpec:
        """Fold ``scenario.*`` axis values into the point's spec.

        ``scenario.name`` swaps in a built-in scenario wholesale
        (``None`` drops the scenario block, giving the unmodified base
        environment); it applies before any ``scenario.params.<key>``
        axis, which then overrides one tunable parameter — creating a
        params-only scenario for the spec's own env when no scenario is
        embedded.  Params are merged into the scenario's base ``params``
        so curriculum stages still layer on top.
        """
        from ..scenarios import (
            ScenarioSpec,
            ScenarioSpecError,
            UnknownScenarioError,
            get_scenario,
        )

        try:
            scenario = spec.scenario
            name = fields.get(SCENARIO_NAME_AXIS, ...)
            if name is not ...:
                scenario = get_scenario(name) if name is not None else None
            for axis, value in sorted(fields.items()):
                if axis == SCENARIO_NAME_AXIS:
                    continue
                key = axis[len(SCENARIO_PARAM_PREFIX):]
                if scenario is None:
                    scenario = ScenarioSpec(
                        env_id=spec.env_id, params={key: value}
                    )
                else:
                    scenario = scenario.replace(
                        params={**scenario.params, key: value}
                    )
            if scenario is spec.scenario:
                return spec
            return spec.replace(scenario=scenario)
        except (
            ScenarioSpecError,
            UnknownScenarioError,
            SpecError,
        ) as exc:
            message = exc.args[0] if exc.args else exc
            raise SweepSpecError(
                f"point {dict(values)}: {message}"
            ) from exc

    @staticmethod
    def _apply_platform_fields(
        spec: ExperimentSpec,
        fields: Mapping[str, Any],
        values: Mapping[str, Any],
    ) -> ExperimentSpec:
        """Fold ``platform.*`` axis values into the point's spec.

        The point's design point (:meth:`ExperimentSpec.design_point`)
        takes the swept fields and is embedded: the platform block when
        present, the paper design point on a ``soc`` point without one,
        a variant of the named table platform on an
        ``analytical:<name>`` point.  Only the fields of the point's
        platform *kind* apply — a ``platform.eve_pes`` axis shapes the
        ``soc`` points of a mixed-backend sweep and leaves an
        ``analytical:CPU_a`` point's spec untouched, so the unaffected
        points collapse to one evaluation in the cache.  The
        ``software`` backend has no platform and is never touched.
        """
        try:
            target = spec.design_point()
            if target is None:
                return spec
            valid = {
                f.name
                for f in dataclasses.fields(PLATFORM_KINDS[target.kind])
            }
            applicable = {k: v for k, v in fields.items() if k in valid}
            if not applicable:
                return spec
            return spec.replace(
                backend=spec.substrate,
                platform=target.replace_params(**applicable),
            )
        except (PlatformSpecError, SpecError) as exc:
            message = exc.args[0] if exc.args else exc
            raise SweepSpecError(
                f"point {dict(values)}: {message}"
            ) from exc

    def expand(self) -> List[SweepPoint]:
        """Materialise the sweep into concrete points."""
        names = self.axis_names
        return [
            self.resolve_point(i, dict(zip(names, combo)))
            for i, combo in enumerate(self._combinations())
        ]

    # -- dict round-trip (JSON: repro.obs.jsonl.JsonRecord) ---------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "axes": {name: list(values) for name, values in self.axes.items()},
            "strategy": self.strategy,
            "samples": self.samples,
            "sample_seed": self.sample_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        known = [f.name for f in dataclasses.fields(cls)]
        reject_unknown(data, known, SweepSpecError, "sweep fields")
        if "base" not in data:
            raise SweepSpecError("a sweep spec needs a 'base' experiment spec")
        base = data["base"]
        if not isinstance(base, ExperimentSpec):
            if not isinstance(base, Mapping):
                raise SweepSpecError("'base' must be an experiment-spec object")
            base = ExperimentSpec.from_dict(base)
        return cls(**{**dict(data), "base": base})
