"""repro.scenarios: the environment as a first-class spec axis.

Parameterised env variants, adversarial perturbation wrappers, and
curriculum schedules — JSON-round-trippable, content-addressed, and
byte-identical across checkpoint/resume.  See ``docs/scenarios.md``.
"""

from .continual import continual_report, export_continual_csv
from .curriculum import (
    CURRICULUM_MODES,
    CurriculumController,
    CurriculumSchedule,
    CurriculumStage,
    switch_report,
)
from .runtime import build_batched_env, build_env, env_factory
from .spec import (
    PERTURBATION_KINDS,
    PerturbationSpec,
    ScenarioSpec,
    ScenarioSpecError,
    UnknownScenarioError,
    get_scenario,
    register_scenario,
    registered_scenarios,
    scenario_names,
    unregister_scenario,
)
from .wrappers import (
    ActionDropoutWrapper,
    ObservationNoiseWrapper,
    ParameterJitterWrapper,
    PerturbationWrapper,
)
from . import library  # noqa: F401  (registers the built-in scenarios)

__all__ = [
    "CURRICULUM_MODES",
    "CurriculumController",
    "CurriculumSchedule",
    "CurriculumStage",
    "PERTURBATION_KINDS",
    "PerturbationSpec",
    "ScenarioSpec",
    "ScenarioSpecError",
    "UnknownScenarioError",
    "ActionDropoutWrapper",
    "ObservationNoiseWrapper",
    "ParameterJitterWrapper",
    "PerturbationWrapper",
    "build_batched_env",
    "build_env",
    "continual_report",
    "env_factory",
    "export_continual_csv",
    "get_scenario",
    "register_scenario",
    "registered_scenarios",
    "scenario_names",
    "switch_report",
    "unregister_scenario",
]
