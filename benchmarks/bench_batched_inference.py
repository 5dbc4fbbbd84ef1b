"""Batched inference engine vs the scalar reference (ISSUE 2 acceptance).

The paper's premise is that levelised NEAT graphs pack into matrix-vector
waves that evaluate far faster than a node-by-node graph walk (Section
IV-A).  This bench demonstrates the software version of that claim: one
full 150-genome CartPole generation — the paper's population size — is
evaluated by :class:`repro.envs.FitnessEvaluator` on the scalar walk and
on compiled numpy lanes (``vectorizer="numpy"``), on identical derived
episode seeds.  The vectorized path must be >= 5x faster *and* produce
bit-identical fitnesses.

The population is first evolved for a few generations so the timed
genomes carry evolved hidden structure rather than the trivial initial
topology.
"""

import time

import numpy as np

from repro.core.runner import config_for_env
from repro.envs.evaluate import FitnessEvaluator
from repro.neat.compiled import StackedPlans, compile_network
from repro.neat.network import FeedForwardNetwork
from repro.neat.population import Population

ENV_ID = "CartPole-v0"
POP_SIZE = 150  # the paper's population (Section III-D3)
WARMUP_GENERATIONS = 6
# 3 rollouts per genome: 450 concurrent lanes. The gate holds from
# episodes=1 up, but more lanes amortise the per-step numpy dispatch
# better (~5.4x at 2 episodes, ~6.7x at 3 on a laptop-class core),
# buying headroom against noisy shared CI runners.
EPISODES = 3
REPEATS = 3
REQUIRED_SPEEDUP = 5.0

_POPULATION_CACHE = {}


def evolved_population():
    """A 150-genome CartPole population with evolved topology (cached)."""
    if ENV_ID not in _POPULATION_CACHE:
        config = config_for_env(ENV_ID, POP_SIZE, None)
        population = Population(config, seed=0)
        evaluator = FitnessEvaluator(ENV_ID, episodes=1, seed=0)
        for _ in range(WARMUP_GENERATIONS):
            population.run_generation(evaluator)
        _POPULATION_CACHE[ENV_ID] = (config, list(population.population.values()))
    return _POPULATION_CACHE[ENV_ID]


def _best_time(evaluator_factory, genomes, config):
    """Fitnesses plus best-of-N wall time for one generation evaluation.

    A fresh evaluator per repetition pins the internal generation counter
    (and therefore the derived episode seeds) so both paths replay the
    same episodes every time.
    """
    best = float("inf")
    fitnesses = None
    for _ in range(REPEATS):
        evaluator = evaluator_factory()
        start = time.perf_counter()
        evaluator(genomes, config)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        fitnesses = [g.fitness for g in genomes]
    return fitnesses, best


def test_batched_generation_speedup(emit):
    config, genomes = evolved_population()

    scalar_fit, scalar_t = _best_time(
        lambda: FitnessEvaluator(ENV_ID, episodes=EPISODES, seed=0),
        genomes, config,
    )
    batched_fit, batched_t = _best_time(
        lambda: FitnessEvaluator(
            ENV_ID, episodes=EPISODES, seed=0, vectorizer="numpy"
        ),
        genomes, config,
    )
    speedup = scalar_t / batched_t

    emit(
        f"Batched inference: {POP_SIZE}-genome {ENV_ID} generation "
        f"({EPISODES} episodes/genome, after {WARMUP_GENERATIONS} "
        f"generations of evolution)\n"
        f"  scalar     {scalar_t * 1e3:8.1f} ms\n"
        f"  vectorized {batched_t * 1e3:8.1f} ms\n"
        f"  speedup    {speedup:8.1f} x (required >= {REQUIRED_SPEEDUP})"
    )

    assert batched_fit == scalar_fit, "vectorized fitnesses diverged from scalar"
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched inference only {speedup:.1f}x faster "
        f"(need >= {REQUIRED_SPEEDUP}x)"
    )


def test_compiled_forward_throughput(benchmark, emit):
    """One genome on 256 lanes vs the node-by-node walk, bit for bit."""
    config, genomes = evolved_population()
    genome = max(genomes, key=lambda g: len(g.connections))
    network = FeedForwardNetwork.create(genome, config.genome)
    stacked = StackedPlans([compile_network(genome, config.genome)], config.genome)
    rng = np.random.default_rng(0)
    batch = rng.uniform(-1.0, 1.0, size=(256, stacked.num_inputs))

    reference = np.array([network.activate(row.tolist()) for row in batch])
    packed = stacked.lane_runner([0] * len(batch)).step(batch)
    assert np.array_equal(packed, reference)

    start = time.perf_counter()
    for row in batch:
        network.activate(row.tolist())
    scalar_t = time.perf_counter() - start
    benchmark(lambda: stacked.lane_runner([0] * len(batch)).step(batch))
    emit(
        f"Compiled forward (256 lanes, {len(genome.connections)} conns): "
        f"scalar loop {scalar_t * 1e3:.2f} ms/batch; lane timing above"
    )
