"""The compiled batch inference engine (:mod:`repro.neat.compiled`).

Covers the three equivalence contracts the ISSUE demands:

* compiled plans match the node-by-node :class:`FeedForwardNetwork`
  reference to 1e-9 on random genomes (hypothesis),
* both match the :mod:`repro.hw.adam` systolic model on the same genome,
* ``FitnessEvaluator(vectorizer="numpy")`` assigns fitnesses identical
  to the scalar walk for vectorized and lockstep-fallback environments,
  falling back per-genome when compilation fails.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs.evaluate import FitnessEvaluator
from repro.hw.adam import ADAM, build_inference_plan
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.activations import ActivationFunctionSet
from repro.neat.compiled import (
    CompileError,
    StackedPlans,
    compile_network,
    register_vectorized_activation,
    vectorized_activation_names,
)
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


# ---------------------------------------------------------------------------
# compilation basics


def test_compiled_matches_reference_simple():
    genome, config = evolved(1)
    plan = compile_network(genome, config)
    network = FeedForwardNetwork.create(genome, config)
    inputs = [0.3, -1.2, 0.8]
    assert plan.activate(inputs) == pytest.approx(network.activate(inputs), abs=1e-9)


def test_compiled_macs_match_reference():
    for seed in range(8):
        genome, config = evolved(seed, steps=30)
        plan = compile_network(genome, config)
        network = FeedForwardNetwork.create(genome, config)
        assert plan.num_macs == network.num_macs


def test_activate_batch_rejects_bad_shape():
    genome, config = evolved(2)
    plan = compile_network(genome, config)
    with pytest.raises(ValueError, match="expected"):
        plan.activate_batch(np.zeros((4, 7)))


def test_compile_rejects_non_sum_aggregation():
    genome, config = evolved(3)
    next(iter(genome.nodes.values())).aggregation = "max"
    with pytest.raises(CompileError, match="aggregation"):
        compile_network(genome, config)


def test_compile_rejects_unknown_activation():
    genome, config = evolved(4)
    next(iter(genome.nodes.values())).activation = "weird"
    with pytest.raises(CompileError, match="vectorized twin"):
        compile_network(genome, config)


def test_register_vectorized_activation():
    register_vectorized_activation("doubled", lambda z: 2.0 * z)
    assert "doubled" in vectorized_activation_names()
    with pytest.raises(TypeError):
        register_vectorized_activation("bad", None)


# ---------------------------------------------------------------------------
# vectorized activations mirror the scalar registry


@settings(max_examples=40, deadline=None)
@given(z=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_vectorized_activations_match_scalar(z):
    scalar_set = ActivationFunctionSet()
    from repro.neat.compiled import _VECTORIZED

    for name, fn in _VECTORIZED.items():
        if not scalar_set.is_valid(name):
            continue  # test-registered extras
        expected = scalar_set.get(name)(z)
        observed = float(fn(np.array([z]))[0])
        # abs for the bounded activations, rel for unbounded ones (exp,
        # square, cube grow past where a 1e-9 absolute window is one ulp)
        assert observed == pytest.approx(expected, rel=1e-12, abs=1e-9), name


# ---------------------------------------------------------------------------
# property: compiled == reference == ADAM systolic model


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
    reference = network.activate(inputs)

    plan = compile_network(genome, config)
    compiled = plan.activate(inputs)
    assert compiled == pytest.approx(reference, abs=1e-9)

    adam = ADAM()
    systolic = adam.run(build_inference_plan(genome, config), inputs)
    assert systolic == pytest.approx(reference, abs=1e-9)


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
    observations = rng.uniform(-5.0, 5.0, size=(batch, plan.num_inputs))
    packed = plan.activate_batch(observations)
    for row, obs in enumerate(observations):
        assert list(packed[row]) == pytest.approx(
            network.activate(obs.tolist()), abs=1e-9
        )


# ---------------------------------------------------------------------------
# population stacking


def test_stacked_plans_match_individual_plans():
    plans = []
    config = None
    genomes = []
    for seed in range(10):
        genome, config = evolved(seed, steps=20)
        genome.key = seed
        genomes.append(genome)
        plans.append(compile_network(genome, config))
    stacked = StackedPlans(plans)
    runner = stacked.lane_runner(list(range(len(plans))))
    rng = np.random.default_rng(0)
    observations = rng.uniform(-2.0, 2.0, size=(len(plans), plans[0].num_inputs))
    packed = runner.step(observations)
    for i, plan in enumerate(plans):
        expected = plan.activate_batch(observations[i : i + 1])[0]
        assert list(packed[i]) == pytest.approx(list(expected), abs=1e-9)


def test_stacked_plans_empty_rejected():
    with pytest.raises(ValueError):
        StackedPlans([])


def test_lane_runner_prune_keeps_alignment():
    plans = []
    for seed in range(6):
        genome, config = evolved(seed, steps=15)
        plans.append(compile_network(genome, config))
    stacked = StackedPlans(plans)
    runner = stacked.lane_runner(list(range(6)))
    rng = np.random.default_rng(1)
    observations = rng.uniform(-1.0, 1.0, size=(6, plans[0].num_inputs))
    keep = np.array([True, False, True, True, False, True])
    expected = runner.step(observations)[keep]
    runner.prune(keep)
    assert np.allclose(runner.step(observations[keep]), expected, atol=1e-12)


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
    # poison two genomes with an aggregation dense plans cannot pack
    for genome in genomes[3:5]:
        next(iter(genome.nodes.values())).aggregation = "max"
        with pytest.raises(CompileError):
            compile_network(genome, config.genome)
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
