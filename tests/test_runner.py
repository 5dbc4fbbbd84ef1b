"""Unit tests for env-sized NEAT configs and closed-loop runs."""

from repro.api import Experiment, ExperimentSpec
from repro.core.runner import config_for_env


def run(env_id, **fields):
    return Experiment(ExperimentSpec(env_id, **fields)).run()


def test_config_for_env_uses_env_spaces():
    config = config_for_env("LunarLander-v2", pop_size=10)
    assert config.genome.num_inputs == 8
    assert config.genome.num_outputs == 4
    assert config.fitness_threshold == 200.0  # env solve threshold


def test_config_for_env_explicit_threshold():
    config = config_for_env("CartPole-v0", fitness_threshold=123.0)
    assert config.fitness_threshold == 123.0


def test_software_run_cartpole_converges():
    result = run(
        "CartPole-v0", max_generations=15, pop_size=40, episodes=1, seed=2
    )
    assert result.champion.fitness >= 100.0
    assert result.converged
    assert result.generations <= 15


def test_software_run_records_statistics():
    result = run(
        "MountainCar-v0", max_generations=3, pop_size=20, seed=0, max_steps=100
    )
    generations = [m.generation for m in result.metrics]
    assert generations == list(range(result.generations))


def test_hardware_run_cartpole_converges():
    """Closed-loop evolution through EvE/ADAM still learns (the headline
    functional claim: evolution entirely in hardware)."""
    result = run(
        "CartPole-v0", backend="soc", max_generations=15, pop_size=40,
        episodes=1, seed=2,
    )
    assert result.champion.fitness >= 100.0
    assert result.converged


def test_hardware_run_accounting():
    result = run(
        "CartPole-v0", backend="soc", max_generations=3, pop_size=16, seed=0,
        max_steps=50, fitness_threshold=1e9,
    )
    assert result.generations == 3
    assert result.total_energy_j > 0
    assert result.total_cycles > 0
    assert len(result.reports) == 3


def test_hardware_run_energy_scales_with_generations():
    short = run(
        "CartPole-v0", backend="soc", max_generations=1, pop_size=16, seed=0,
        max_steps=50, fitness_threshold=1e9,
    )
    long = run(
        "CartPole-v0", backend="soc", max_generations=4, pop_size=16, seed=0,
        max_steps=50, fitness_threshold=1e9,
    )
    assert long.total_energy_j > short.total_energy_j
