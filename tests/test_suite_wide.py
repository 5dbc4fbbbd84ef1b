"""Suite-wide smoke: every registered environment evolves end to end.

The paper's robustness claim (Section III-B): the same NEAT codebase runs
every workload, "changing only the fitness function".  One generation per
environment — software and hardware paths — must complete and assign
fitness everywhere, including the Box-action BipedalWalker.
"""

import pytest

from repro.api import Experiment, ExperimentSpec
from repro.envs import CANONICAL_IDS


def run(env_id, on_evaluation=None, **fields):
    return Experiment(ExperimentSpec(env_id, **fields)).run(
        on_evaluation=on_evaluation
    )


@pytest.mark.parametrize("env_id", CANONICAL_IDS)
def test_software_generation_on_every_env(env_id):
    sizes = []
    result = run(
        env_id, max_generations=1, pop_size=8, seed=0, max_steps=15,
        fitness_threshold=1e9,
        on_evaluation=lambda _gen, genomes: sizes.append(len(genomes)),
    )
    stats = result.metrics[-1]
    assert sizes == [8]
    assert stats.best_fitness >= stats.mean_fitness


@pytest.mark.parametrize(
    "env_id", ["CartPole-v0", "Acrobot-v1", "LunarLander-v2", "Alien-ram-v0"]
)
def test_hardware_generation_on_representative_envs(env_id):
    result = run(
        env_id, backend="soc", max_generations=1, pop_size=8, seed=0,
        max_steps=15, fitness_threshold=1e9,
    )
    report = result.reports[0]
    assert report.env_steps > 0
    assert report.inference.passes > 0
    assert report.energy.total_energy_j > 0


def test_bipedal_box_actions_software_only():
    """BipedalWalker's Box(4) action space works through the evaluator.

    (ADAM's plan covers it too, but the hardware path is exercised above
    on Discrete spaces; here we pin the continuous-action translation.)
    """
    sizes = []
    run(
        "BipedalWalker-v2", max_generations=1, pop_size=6, seed=0,
        max_steps=20, fitness_threshold=1e9,
        on_evaluation=lambda _gen, genomes: sizes.append(len(genomes)),
    )
    assert sizes == [6]
