"""repro.scenarios: the environment as a first-class spec axis.

Parameterised env variants, adversarial perturbation wrappers, and
curriculum schedules — JSON-round-trippable, content-addressed, and
byte-identical across checkpoint/resume.  See ``docs/scenarios.md``.
"""

from .continual import export_continual_csv
from .curriculum import (
    CURRICULUM_MODES,
    CurriculumController,
    CurriculumSchedule,
    CurriculumStage,
    switch_report,
)
from .library import get_scenario, registered_scenarios, scenario_names
from .runtime import build_batched_env, build_env, env_factory
from .spec import (
    PERTURBATION_KINDS,
    PerturbationSpec,
    ScenarioSpec,
    ScenarioSpecError,
    UnknownScenarioError,
)
from .wrappers import (
    ActionDropoutWrapper,
    ObservationNoiseWrapper,
    ParameterJitterWrapper,
    PerturbationWrapper,
)

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
    "env_factory",
    "export_continual_csv",
    "get_scenario",
    "registered_scenarios",
    "scenario_names",
    "switch_report",
]
