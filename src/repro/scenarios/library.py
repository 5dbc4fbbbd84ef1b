"""The built-in scenario table.

Six ready-made variants over the canonical envs, fixed in the code, so
a scenario name (``repro run --scenario NAME``, a ``scenario.name``
sweep axis) means the same scenario in every process.  A custom
scenario is not added here: it travels by value, as the ``scenario``
block of an experiment spec or a ``repro run --scenario FILE``.  Lives
in its own module (imported by the package ``__init__``) because
building the table instantiates :class:`ScenarioSpec`, which needs the
curriculum module fully loaded.
"""

from __future__ import annotations

from typing import Dict, List

from .spec import PerturbationSpec, ScenarioSpec, UnknownScenarioError

#: name -> scenario, in catalogue order.
_SCENARIOS: Dict[str, ScenarioSpec] = {
    scenario.name: scenario
    for scenario in (
        ScenarioSpec("CartPole-v0", "cartpole-short-pole", params={"length": 0.25}),
        ScenarioSpec(
            "CartPole-v0", "cartpole-long-pole",
            params={"length": 1.0, "masspole": 0.2},
        ),
        ScenarioSpec(
            "CartPole-v0", "cartpole-windy",
            perturbations=(
                PerturbationSpec("observation_noise", {"std": 0.05}),
                PerturbationSpec("action_dropout", {"prob": 0.05}),
            ),
        ),
        ScenarioSpec(
            "CartPole-v0", "cartpole-jittery",
            perturbations=(
                PerturbationSpec(
                    "parameter_jitter",
                    {"scale": 0.1, "params": ("length", "force_mag")},
                ),
            ),
        ),
        ScenarioSpec(
            "CartPole-v0", "cartpole-pole-curriculum",
            curriculum={
                "mode": "adaptive",
                "advance_threshold": 60.0,
                "patience": 2,
                "stages": [
                    {"params": {"length": 0.5}},
                    {"params": {"length": 0.75, "force_mag": 8.0}},
                    {"params": {"length": 1.0, "force_mag": 6.0}},
                ],
            },
        ),
        ScenarioSpec(
            "MountainCar-v0", "mountaincar-weak-engine", params={"force": 0.0008},
        ),
    )
}


def get_scenario(name: str) -> ScenarioSpec:
    if name not in _SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        )
    return _SCENARIOS[name]


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def registered_scenarios() -> Dict[str, ScenarioSpec]:
    return dict(_SCENARIOS)
