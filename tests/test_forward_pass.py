"""One forward pass: the scalar walk, the lanes and ADAM agree bit for bit.

Every engine runs a genome's one compiled plan with one arithmetic (see
:mod:`repro.neat.network`), so outputs must be equal by ``float.hex`` —
not close — for genomes over every builtin activation with extreme
weights, biases and responses, and for inputs including ``±0.0``.
Fitnesses then agree across the scalar, numpy, pooled and soc execution
shapes.  CI also runs this file with numpy's AVX-512 and AVX2 kernels
disabled.
"""

import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.parallel import ParallelFitnessEvaluator
from repro.core.config import GeneSysConfig
from repro.core.runner import config_for_env
from repro.core.soc import GeneSysSoC
from repro.envs.evaluate import FitnessEvaluator
from repro.hw.adam import ADAM, InferencePlan
from repro.hw.eve import EvEConfig
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.activations import ACTIVATIONS
from repro.neat.compiled import StackedPlans, compile_network
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.network import FeedForwardNetwork
from repro.neat.population import Population

ALL_ACTIVATIONS = sorted(ACTIVATIONS)
NUM_INPUTS, NUM_OUTPUTS = 3, 2
CONFIG = GenomeConfig(
    num_inputs=NUM_INPUTS,
    num_outputs=NUM_OUTPUTS,
    activation_options=ALL_ACTIVATIONS,
    activation_mutate_rate=0.5,
    node_add_prob=0.5,
    conn_add_prob=0.8,
)

extremes = st.one_of(
    st.floats(min_value=-30.0, max_value=30.0),
    st.sampled_from([
        0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324,
        float("inf"), float("-inf"), float("nan"),
    ]),
)
special_inputs = st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300])


@st.composite
def genomes(draw, key):
    """A genome grown by mutation, with a random activation per node;
    half of them then get extreme genes.  The others keep evolved-scale
    genes, whose pre-activations mostly fall where the kernels do not
    saturate, so a kernel that rounds differently would show."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    innovations = InnovationTracker(next_node_id=NUM_OUTPUTS)
    genome = Genome(key)
    genome.configure_new(CONFIG, rng)
    for _ in range(rng.randrange(20)):
        genome.mutate(CONFIG, rng, innovations)
    extreme = draw(st.booleans())
    for node in genome.nodes.values():
        node.activation = rng.choice(ALL_ACTIVATIONS)
        if extreme:
            node.bias = draw(extremes)
            node.response = draw(extremes)
    if extreme:
        for conn in genome.connections.values():
            conn.weight = draw(extremes)
    return genome


@st.composite
def observations(draw, lanes):
    """N(0, 2) observations, some entries replaced by ±0.0 or another
    edge value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obs = rng.normal(0.0, 2.0, size=(lanes, NUM_INPUTS))
    for _ in range(draw(st.integers(0, lanes))):
        obs[rng.integers(lanes), rng.integers(NUM_INPUTS)] = draw(special_inputs)
    return obs


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_walk_lanes_and_adam_agree_bit_for_bit(data):
    population = [data.draw(genomes(key)) for key in range(data.draw(st.integers(2, 5)))]
    lanes = len(population)
    first = data.draw(observations(lanes))
    second = data.draw(observations(lanes))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes)))
    keep[data.draw(st.integers(0, lanes - 1))] = True

    with np.errstate(all="ignore"):
        runner = StackedPlans(
            [compile_network(g, CONFIG) for g in population], CONFIG
        ).lane_runner(range(lanes))
        before = runner.step(first)
        runner.prune(keep)
        after = runner.step(second[keep])

    adam = ADAM()
    for i, genome in enumerate(population):
        walk = FeedForwardNetwork.create(genome, CONFIG)
        expected = bits(walk.activate(first[i].tolist()))
        assert bits(before[i]) == expected
        plan = InferencePlan.create(genome, CONFIG)
        assert bits(adam.run(plan, first[i].tolist())) == expected
    for row, i in enumerate(np.flatnonzero(keep)):
        walk = FeedForwardNetwork.create(population[i], CONFIG)
        assert bits(after[row]) == bits(walk.activate(second[i].tolist()))


def test_sums_start_from_negative_zero():
    """``-0.0`` is the additive identity every engine starts a sum from,
    so a node with no links, or whose products are all ``-0.0``, keeps a
    ``-0.0`` bias's sign (a sum started from ``0.0`` would not)."""
    genome = Genome(0)
    for key in CONFIG.output_keys:
        genome.nodes[key] = NodeGene(key, bias=-0.0, response=1.0, activation="identity")
    genome.connections[(-1, 0)] = ConnectionGene((-1, 0), weight=1.0)
    inputs = [-0.0, 0.0, 0.0]
    expected = [(-0.0).hex()] * NUM_OUTPUTS
    assert bits(FeedForwardNetwork.create(genome, CONFIG).activate(inputs)) == expected
    runner = StackedPlans([compile_network(genome, CONFIG)], CONFIG).lane_runner([0])
    assert bits(runner.step(np.array([inputs]))[0]) == expected
    assert bits(ADAM().run(InferencePlan.create(genome, CONFIG), inputs)) == expected


def mixed_activation_config(env_id, pop_size):
    config = config_for_env(env_id, pop_size, None)
    config.genome.activation_options = ALL_ACTIVATIONS
    config.genome.activation_mutate_rate = 0.5
    return config


@pytest.mark.parametrize("env_id", ["CartPole-v0", "MountainCar-v0"])
def test_fitnesses_agree_across_software_shapes(env_id):
    config = mixed_activation_config(env_id, pop_size=24)
    population = Population(config, seed=1)
    evolve = FitnessEvaluator(env_id, seed=1, max_steps=50)
    for _ in range(3):
        population.run_generation(evolve)
    genomes = list(population.population.values())

    def fitnesses(evaluator):
        try:
            evaluator(genomes, config)
        finally:
            evaluator.close()
        return [g.fitness for g in genomes], astuple(evaluator.totals)

    options = dict(episodes=2, seed=7, max_steps=60)
    expected = fitnesses(FitnessEvaluator(env_id, **options))
    assert fitnesses(FitnessEvaluator(env_id, vectorizer="numpy", **options)) == expected
    assert fitnesses(ParallelFitnessEvaluator(env_id, workers=2, **options)) == expected


@pytest.mark.parametrize("env_id", ["CartPole-v0", "MountainCar-v0"])
def test_soc_serial_and_batched_agree(env_id):
    def reports(vectorize):
        config = GeneSysConfig(
            neat=mixed_activation_config(env_id, pop_size=24),
            eve=EvEConfig(num_pes=8), seed=2,
        )
        soc = GeneSysSoC(config, env_id, max_steps=60, vectorize=vectorize)
        return [
            (r.stats.best_fitness, r.stats.mean_fitness, r.env_steps,
             astuple(r.inference), r.energy.total_energy_j)
            for r in (soc.run_generation() for _ in range(4))
        ]

    assert reports(True) == reports(False)
