"""The lanes (:mod:`repro.neat.compiled`) against the scalar walk.

Covers the equivalence contracts of the one forward pass:

* a lane's outputs are the scalar walk's bits on random genomes
  (hypothesis), whatever the lane is stacked with and after pruning,
* both are ADAM's bits on the same genome,
* ``FitnessEvaluator(vectorizer="numpy")`` assigns fitnesses identical
  to the scalar walk for vectorized and lockstep-fallback environments,
  falling back per-genome when compilation fails.

``tests/test_forward_pass.py`` fuzzes the same contract over every
activation and extreme genes.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs.evaluate import FitnessEvaluator
from repro.hw.adam import ADAM, InferencePlan
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.compiled import StackedPlans, compile_network
from repro.neat.network import FeedForwardNetwork

VARIED_ACTIVATIONS = ["tanh", "sigmoid", "relu", "clamped", "gauss", "abs", "sin"]


def evolved(seed, num_inputs=3, num_outputs=2, steps=25, activations=("tanh",)):
    config = GenomeConfig(
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        activation_options=list(activations),
        activation_mutate_rate=0.3 if len(activations) > 1 else 0.05,
    )
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=num_outputs)
    genome = Genome(0)
    genome.configure_new(config, rng)
    for _ in range(steps):
        genome.mutate(config, rng, innovations)
    return genome, config


def bits(values):
    return [float(v).hex() for v in values]


def lane_outputs(rows, config, observations):
    """One lane per genome's rows, one forward pass."""
    runner = StackedPlans(rows, config).lane_runner(list(range(len(rows))))
    return runner.step(np.asarray(observations, dtype=np.float64))


# ---------------------------------------------------------------------------
# compilation basics


def test_compiled_matches_reference_simple():
    genome, config = evolved(1)
    plan = compile_network(genome, config)
    network = FeedForwardNetwork.create(genome, config)
    inputs = [0.3, -1.2, 0.8]
    assert bits(lane_outputs([plan], config, [inputs])[0]) == bits(network.activate(inputs))


def test_compiled_macs_match_reference():
    for seed in range(8):
        genome, config = evolved(seed, steps=30)
        stacked = StackedPlans([compile_network(genome, config)], config)
        network = FeedForwardNetwork.create(genome, config)
        assert stacked.macs[0] == network.num_macs


def rejected(genome, config):
    """The pass's reason for setting ``genome`` aside, which it must."""
    stacked = StackedPlans([compile_network(genome, config)], config)
    assert stacked.compiled == [] and list(stacked.fallback) == [0]
    return stacked.fallback[0]


def test_compile_rejects_non_sum_aggregation():
    genome, config = evolved(3)
    next(iter(genome.nodes.values())).aggregation = "max"
    assert "aggregation" in rejected(genome, config)


def test_compile_rejects_unknown_activation():
    genome, config = evolved(4)
    next(iter(genome.nodes.values())).activation = "weird"
    assert "weird" in rejected(genome, config)


# ---------------------------------------------------------------------------
# property: lanes == scalar walk == ADAM systolic model, bit for bit


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_inputs=st.integers(min_value=1, max_value=5),
    num_outputs=st.integers(min_value=1, max_value=3),
    steps=st.integers(min_value=0, max_value=40),
    data=st.data(),
)
def test_compiled_matches_network_and_adam(seed, num_inputs, num_outputs, steps, data):
    genome, config = evolved(
        seed, num_inputs, num_outputs, steps, activations=VARIED_ACTIVATIONS
    )
    inputs = data.draw(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=num_inputs,
            max_size=num_inputs,
        )
    )
    network = FeedForwardNetwork.create(genome, config)
    reference = bits(network.activate(inputs))

    plan = compile_network(genome, config)
    assert bits(lane_outputs([plan], config, [inputs])[0]) == reference

    adam = ADAM()
    assert bits(adam.run(InferencePlan.create(genome, config), inputs)) == reference


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    batch=st.integers(min_value=1, max_value=6),
)
def test_batch_rows_match_row_at_a_time(seed, batch):
    genome, config = evolved(seed, steps=30, activations=VARIED_ACTIVATIONS)
    plan = compile_network(genome, config)
    network = FeedForwardNetwork.create(genome, config)
    rng = np.random.default_rng(seed)
    observations = rng.uniform(-5.0, 5.0, size=(batch, config.num_inputs))
    packed = lane_outputs([plan] * batch, config, observations)
    for row, obs in enumerate(observations):
        assert bits(packed[row]) == bits(network.activate(obs.tolist()))


# ---------------------------------------------------------------------------
# population stacking


def test_stacked_plans_match_individual_plans():
    plans = []
    networks = []
    for seed in range(10):
        genome, config = evolved(seed, steps=20, activations=VARIED_ACTIVATIONS)
        genome.key = seed
        plans.append(compile_network(genome, config))
        networks.append(FeedForwardNetwork.create(genome, config))
    rng = np.random.default_rng(0)
    observations = rng.uniform(-2.0, 2.0, size=(len(plans), config.num_inputs))
    packed = lane_outputs(plans, config, observations)
    for i, network in enumerate(networks):
        assert bits(packed[i]) == bits(network.activate(observations[i].tolist()))


def test_stacked_plans_empty_rejected():
    with pytest.raises(ValueError):
        StackedPlans([], GenomeConfig())


def test_lane_runner_prune_keeps_alignment():
    """Lanes stay aligned over prunes that keep finished lanes in the
    tables (7 of 8 live) and ones that drop them (5 of 7)."""
    plans = []
    for seed in range(8):
        genome, config = evolved(seed, steps=15)
        plans.append(compile_network(genome, config))
    runner = StackedPlans(plans, config).lane_runner(list(range(8)))
    rng = np.random.default_rng(1)
    observations = rng.uniform(-1.0, 1.0, size=(8, config.num_inputs))
    expected = runner.step(observations)
    for keep in ([True, True, False, True, True, True, True, True],
                 [True, False, True, True, False, True, True]):
        keep = np.array(keep)
        observations, expected = observations[keep], expected[keep]
        runner.prune(keep)
        assert np.array_equal(runner.step(observations), expected)


# ---------------------------------------------------------------------------
# the batched evaluator vs the scalar evaluator


def population_genomes(env_id, pop_size, seed=0, generations=2):
    from repro.core.runner import config_for_env
    from repro.neat.population import Population

    config = config_for_env(env_id, pop_size, None)
    population = Population(config, seed=seed)
    evaluator = FitnessEvaluator(env_id, episodes=1, seed=seed, max_steps=40)
    for _ in range(generations):
        population.run_generation(evaluator)
    return config, list(population.population.values())


@pytest.mark.parametrize(
    "env_id", ["CartPole-v0", "MountainCar-v0", "Acrobot-v1"]
)
def test_batched_evaluator_matches_scalar(env_id):
    """Vectorized physics (CartPole/MountainCar) and the lockstep
    fallback (Acrobot) must all reproduce scalar fitnesses exactly."""
    config, genomes = population_genomes(env_id, pop_size=12)
    scalar = FitnessEvaluator(env_id, episodes=2, seed=5, max_steps=50)
    scalar(genomes, config)
    expected = [g.fitness for g in genomes]
    expected_totals = (scalar.totals.episodes, scalar.totals.steps, scalar.totals.macs)

    batched = FitnessEvaluator(
        env_id, episodes=2, seed=5, max_steps=50, vectorizer="numpy"
    )
    batched(genomes, config)
    observed = [g.fitness for g in genomes]
    observed_totals = (
        batched.totals.episodes, batched.totals.steps, batched.totals.macs,
    )
    assert observed == expected
    assert observed_totals == expected_totals


def test_batched_evaluator_generation_counter_advances_seeds():
    """The internal generation counter must advance identically to the
    scalar evaluator's, or second-generation episode seeds diverge."""
    config, genomes = population_genomes("CartPole-v0", pop_size=8)
    scalar = FitnessEvaluator("CartPole-v0", episodes=1, seed=0, max_steps=40)
    scalar(genomes, config)
    scalar(genomes, config)
    expected_gen2 = [g.fitness for g in genomes]
    batched = FitnessEvaluator(
        "CartPole-v0", episodes=1, seed=0, max_steps=40, vectorizer="numpy"
    )
    batched(genomes, config)
    batched(genomes, config)
    assert [g.fitness for g in genomes] == expected_gen2


def test_batched_evaluator_falls_back_for_uncompilable_genomes():
    config, genomes = population_genomes("CartPole-v0", pop_size=10)
    # poison two genomes with an aggregation the lanes cannot run
    for genome in genomes[3:5]:
        next(iter(genome.nodes.values())).aggregation = "max"
        rejected(genome, config.genome)
    scalar = FitnessEvaluator("CartPole-v0", episodes=1, seed=9, max_steps=40)
    scalar(genomes, config)
    expected = [g.fitness for g in genomes]
    batched = FitnessEvaluator(
        "CartPole-v0", episodes=1, seed=9, max_steps=40, vectorizer="numpy"
    )
    batched(genomes, config)
    assert [g.fitness for g in genomes] == expected


def test_batched_evaluator_fitness_transform():
    config, genomes = population_genomes("CartPole-v0", pop_size=6)
    scalar = FitnessEvaluator(
        "CartPole-v0", episodes=1, seed=1, max_steps=30,
        fitness_transform=lambda f: -f,
    )
    scalar(genomes, config)
    expected = [g.fitness for g in genomes]
    batched = FitnessEvaluator(
        "CartPole-v0", episodes=1, seed=1, max_steps=30,
        fitness_transform=lambda f: -f, vectorizer="numpy",
    )
    batched(genomes, config)
    assert [g.fitness for g in genomes] == expected
