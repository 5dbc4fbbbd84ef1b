"""Unit tests for repro.neat.statistics."""

import random

import pytest

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome, MutationCounts
from repro.neat.reproduction import ReproductionEvent, ReproductionPlan
from repro.neat.statistics import GENE_BYTES, summarise_generation


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
    stats = summarise_generation(0, population, num_species=2, plan=make_plan())
    assert stats.best_fitness == 3.0
    assert stats.best_key == 3
    assert stats.mean_fitness == pytest.approx(1.5)
    assert stats.num_species == 2
    assert stats.population_size == 4


def test_gene_and_footprint_accounting(population):
    stats = summarise_generation(0, population, 1, None)
    expected_genes = sum(g.num_genes for g in population.values())
    assert stats.num_genes == expected_genes
    assert stats.footprint_bytes == expected_genes * GENE_BYTES
    # no plan (an extinction re-seed): no ops, no reuse
    assert stats.ops.total == 0
    assert stats.fittest_parent_reuse == 0


def test_ops_from_plan(population):
    stats = summarise_generation(0, population, 1, make_plan())
    assert stats.ops.crossovers == 5
    assert stats.ops.total == 9


def test_reuse_from_plan(population):
    stats = summarise_generation(0, population, 1, make_plan())
    # fittest parent among users is genome 3
    assert stats.fittest_parent_reuse == 1


def test_composition(population):
    stats = summarise_generation(0, population, 1, None)
    assert stats.num_nodes == sum(len(g.nodes) for g in population.values())
    assert stats.num_connections == sum(
        len(g.connections) for g in population.values()
    )


def test_composition_empty():
    stats = summarise_generation(0, {}, 0, None)
    assert (stats.num_nodes, stats.num_connections) == (0, 0)
    assert stats.best_key is None
    assert stats.best_fitness == float("-inf")
    assert stats.mean_fitness == 0.0


def test_mutation_counts_merge():
    a = MutationCounts(crossovers=1, perturbations=2)
    b = MutationCounts(crossovers=3, conn_additions=4)
    a.merge(b)
    assert a.crossovers == 4
    assert a.perturbations == 2
    assert a.conn_additions == 4
    assert a.total == 10
