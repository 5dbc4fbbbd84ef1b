"""Round-trip property of every spec: ``from_dict(to_dict())`` gives the
spec back, and no spec accepts a non-finite number.

Each spec's ``to_dict()`` is walked to every numeric leaf; putting NaN or
an infinity there must make ``from_dict`` raise the spec's own error, so
a bad number is refused when a job is submitted, not generations later.
"""

import math

import pytest

from repro.api import ExperimentSpec, SpecError
from repro.dse import SweepSpec
from repro.dse.spec import SweepSpecError
from repro.platforms import PlatformSpec, registered_platforms
from repro.platforms.spec import PlatformSpecError
from repro.scenarios import ScenarioSpec, registered_scenarios
from repro.scenarios.spec import ScenarioSpecError

NON_FINITE = [math.nan, math.inf, -math.inf]


def numeric_leaves(tree, path=()):
    """Paths to every int or float (not bool) leaf of a dict/list tree."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from numeric_leaves(value, path + (index,))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield path


def replaced(tree, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(tree, dict):
        return {**tree, head: replaced(tree[head], rest, value)}
    return [replaced(item, rest, value) if i == head else item for i, item in enumerate(tree)]


def experiment_specs():
    plain = ExperimentSpec(
        "CartPole-v0", max_generations=5, pop_size=20, episodes=2, max_steps=100,
        seed=3, fitness_threshold=195.0, workers=2,
    )
    return [
        plain,
        plain.replace(backend="analytical", platform=registered_platforms()["GENESYS"]),
        plain.replace(scenario=registered_scenarios()["cartpole-pole-curriculum"]),
    ]


SWEEP = SweepSpec(
    base=experiment_specs()[0],
    axes={"seed": [0, 1], "pop_size": [10, 20], "fitness_threshold": [150.0, 195.0]},
    strategy="random",
    samples=3,
    sample_seed=4,
)

CASES = (
    [(f"experiment-{i}", spec, ExperimentSpec, SpecError)
     for i, spec in enumerate(experiment_specs())]
    + [("sweep", SWEEP, SweepSpec, SweepSpecError)]
    + [(f"platform-{name}", spec, PlatformSpec, PlatformSpecError)
       for name, spec in registered_platforms().items() if spec is not None]
    + [(f"scenario-{name}", spec, ScenarioSpec, ScenarioSpecError)
       for name, spec in registered_scenarios().items()]
)


@pytest.mark.parametrize(
    "spec, kind, error", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_round_trip_and_no_non_finite_number(spec, kind, error):
    data = spec.to_dict()
    assert kind.from_dict(data) == spec
    leaves = list(numeric_leaves(data))
    assert leaves
    for path in leaves:
        # A sweep's base is an experiment spec, refused with its error.
        expected = SpecError if path[0] == "base" else error
        for value in NON_FINITE:
            with pytest.raises(expected):
                kind.from_dict(replaced(data, path, value))


@pytest.mark.parametrize("name", ["max_generations", "pop_size", "episodes", "max_steps",
                                  "seed", "workers"])
@pytest.mark.parametrize("value", [12.5, 12.0, True])
def test_experiment_integer_fields_refuse_non_integers(name, value):
    data = ExperimentSpec("CartPole-v0").to_dict()
    with pytest.raises(SpecError, match=name):
        ExperimentSpec.from_dict({**data, name: value})


@pytest.mark.parametrize("name", ["samples", "sample_seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_sweep_integer_fields_refuse_non_integers(name, value):
    data = SWEEP.to_dict()
    with pytest.raises(SweepSpecError, match=name):
        SweepSpec.from_dict({**data, name: value})
