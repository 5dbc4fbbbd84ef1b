"""Unit tests for repro.neat.statistics."""

import random

import pytest

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome, MutationCounts
from repro.neat.reproduction import ReproductionEvent, ReproductionPlan
from repro.neat.statistics import GENE_BYTES, StatisticsReporter


@pytest.fixture
def population():
    config = NEATConfig.for_env(2, 1, pop_size=4)
    rng = random.Random(0)
    pop = {}
    for key in range(4):
        g = Genome(key)
        g.configure_new(config.genome, rng)
        g.fitness = float(key)
        pop[key] = g
    return pop


def make_plan():
    plan = ReproductionPlan(generation=0)
    event = ReproductionEvent(10, 3, 2, 1)
    event.counts = MutationCounts(crossovers=5, perturbations=3, node_additions=1)
    plan.events.append(event)
    return plan


def test_record_basic_fields(population):
    reporter = StatisticsReporter()
    stats = reporter.record(0, population, num_species=2, plan=make_plan())
    assert stats.best_fitness == 3.0
    assert stats.mean_fitness == pytest.approx(1.5)
    assert stats.num_species == 2
    assert stats.population_size == 4


def test_gene_and_footprint_accounting(population):
    reporter = StatisticsReporter()
    stats = reporter.record(0, population, 1, None)
    expected_genes = sum(g.num_genes for g in population.values())
    assert stats.num_genes == expected_genes
    assert stats.memory_footprint_bytes == expected_genes * GENE_BYTES


def test_ops_from_plan(population):
    reporter = StatisticsReporter()
    stats = reporter.record(0, population, 1, make_plan())
    assert stats.ops.crossovers == 5
    assert stats.ops.total == 9


def test_reuse_from_plan(population):
    reporter = StatisticsReporter()
    stats = reporter.record(0, population, 1, make_plan())
    # fittest parent among users is genome 3
    assert stats.fittest_parent_reuse == 1


def test_series_accessors(population):
    reporter = StatisticsReporter()
    for gen in range(3):
        reporter.record(gen, population, 1, None)
    assert len(reporter.best_fitness_series()) == 3
    assert len(reporter.gene_count_series()) == 3
    assert len(reporter.footprint_series()) == 3
    assert len(reporter.ops_series()) == 3
    assert len(reporter.reuse_series()) == 3


def test_composition(population):
    reporter = StatisticsReporter()
    reporter.record(0, population, 1, None)
    comp = reporter.composition()
    assert comp["nodes"] == sum(len(g.nodes) for g in population.values())
    assert comp["connections"] == sum(
        len(g.connections) for g in population.values()
    )


def test_composition_empty():
    reporter = StatisticsReporter()
    assert reporter.composition() == {"nodes": 0, "connections": 0}


def test_mutation_counts_merge():
    a = MutationCounts(crossovers=1, perturbations=2)
    b = MutationCounts(crossovers=3, conn_additions=4)
    a.merge(b)
    assert a.crossovers == 4
    assert a.perturbations == 2
    assert a.conn_additions == 4
    assert a.total == 10
