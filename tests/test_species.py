"""Unit tests for repro.neat.species (speciation + fitness sharing)."""

import random

import pytest

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.species import SpeciesSet


@pytest.fixture
def config():
    return NEATConfig.for_env(2, 1, pop_size=10)


@pytest.fixture
def rng():
    return random.Random(5)


def make_population(config, rng, n=10, mutations=0):
    innovations = InnovationTracker(next_node_id=config.genome.num_outputs)
    population = {}
    for key in range(n):
        g = Genome(key)
        g.configure_new(config.genome, rng)
        for _ in range(mutations):
            g.mutate(config.genome, rng, innovations)
        g.fitness = float(key)
        population[key] = g
    return population


def test_identical_population_single_species(config, rng):
    population = make_population(config, rng)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    assert len(species_set) == 1
    assert set(species_set.genome_to_species) == set(population)


def test_every_genome_assigned(config, rng):
    population = make_population(config, rng, mutations=20)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    assert set(species_set.genome_to_species) == set(population)
    total_members = sum(len(s) for s in species_set.species.values())
    assert total_members == len(population)


def test_distinct_topologies_split_species(config, rng):
    config.species.compatibility_threshold = 0.5
    population = make_population(config, rng, n=6, mutations=40)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    assert len(species_set) >= 2


def test_species_persist_across_generations(config, rng):
    population = make_population(config, rng)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    keys_before = set(species_set.species)
    species_set.speciate(population, 1)
    assert keys_before == set(species_set.species)


def test_empty_species_removed(config, rng):
    config.species.compatibility_threshold = 0.5
    population = make_population(config, rng, n=6, mutations=40)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    # Re-speciate with a single clone population: most species die.
    single = {0: population[0]}
    species_set.speciate(single, 1)
    total_members = sum(len(s) for s in species_set.species.values())
    assert total_members == 1


def test_adjusted_fitness_sharing_divides_by_size(config, rng):
    population = make_population(config, rng, n=4)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    # age the species past the young threshold so no bonus applies
    species = next(iter(species_set.species.values()))
    species.created = -100
    species_set.adjust_fitnesses(0)
    mean_fitness = (0 + 1 + 2 + 3) / 4
    assert species.adjusted_fitness == pytest.approx(mean_fitness / 4)
    assert species.fitness == 3.0


def test_young_species_bonus(config, rng):
    population = make_population(config, rng, n=4)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    species = next(iter(species_set.species.values()))
    species_set.adjust_fitnesses(0)  # age 0 < young_age_threshold
    mean_fitness = 1.5
    expected = config.species.young_fitness_bonus * mean_fitness / 4
    assert species.adjusted_fitness == pytest.approx(expected)


def test_fitness_history_appended(config, rng):
    population = make_population(config, rng)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    species_set.adjust_fitnesses(0)
    species = next(iter(species_set.species.values()))
    assert species.fitness_history == [9.0]


def test_species_of(config, rng):
    population = make_population(config, rng)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    key = next(iter(population))
    assert species_set.genome_to_species[key] in species_set.species
    assert 9999 not in species_set.genome_to_species
