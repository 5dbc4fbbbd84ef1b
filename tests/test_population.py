"""Unit tests for repro.neat.population."""

import pytest

from repro.neat import NEATConfig, Population


@pytest.fixture
def config():
    return NEATConfig.for_env(2, 1, pop_size=20)


def constant_fitness(value):
    def fitness_fn(genomes, config):
        for genome in genomes:
            genome.fitness = value

    return fitness_fn


def size_fitness(genomes, config):
    """Reward structural growth: deterministic, evolution-sensitive."""
    for genome in genomes:
        genome.fitness = float(genome.num_genes)


def run_rows(pop, fitness_fn, generations):
    """Each generation's summary, as ``run_generation`` returns it."""
    return [pop.run_generation(fitness_fn) for _ in range(generations)]


def test_initial_population_size(config):
    pop = Population(config, seed=0)
    assert len(pop.population) == 20
    assert pop.generation == 0


def test_run_generation_advances(config):
    pop = Population(config, seed=0)
    pop.run_generation(constant_fitness(1.0))
    assert pop.generation == 1
    assert len(pop.population) == 20


def test_unevaluated_genome_raises(config):
    pop = Population(config, seed=0)

    def partial(genomes, cfg):
        for genome in genomes[:-1]:
            genome.fitness = 1.0

    with pytest.raises(RuntimeError, match="unevaluated"):
        pop.run_generation(partial)


def test_best_genome_tracked(config):
    pop = Population(config, seed=0)
    pop.run_generation(size_fitness)
    assert pop.best_genome is not None
    assert pop.best_genome.fitness >= 1


def test_statistics_recorded_per_generation(config):
    pop = Population(config, seed=0)
    stats, plans = [], []
    for _ in range(4):
        stats.append(pop.run_generation(size_fitness))
        plans.append(pop.last_plan)
    assert [s.generation for s in stats] == [0, 1, 2, 3]
    assert all(s.population_size == 20 for s in stats)
    # each summary counts the reproduction its own generation performed
    assert [s.ops for s in stats] == [plan.total_counts for plan in plans]
    assert all(s.ops.total > 0 for s in stats)


def test_gene_growth_under_size_pressure(config):
    config.genome.node_add_prob = 0.5
    config.genome.conn_add_prob = 0.5
    pop = Population(config, seed=1)
    series = [s.num_genes for s in run_rows(pop, size_fitness, 8)]
    assert series[-1] > series[0]


def test_deterministic_given_seed(config):
    runs = []
    for _ in range(2):
        pop = Population(config, seed=42)
        runs.append([s.num_genes for s in run_rows(pop, size_fitness, 3)])
    assert runs[0] == runs[1]


def test_different_seeds_differ(config):
    config.genome.node_add_prob = 0.3
    results = []
    for seed in (1, 2):
        pop = Population(config, seed=seed)
        results.append([s.num_genes for s in run_rows(pop, size_fitness, 5)])
    assert results[0] != results[1]
