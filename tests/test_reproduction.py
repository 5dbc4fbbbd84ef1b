"""Unit tests for repro.neat.reproduction."""

import random

import pytest

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.reproduction import (
    CompleteExtinctionError,
    Reproduction,
    ReproductionEvent,
    ReproductionPlan,
)
from repro.neat.species import SpeciesSet


@pytest.fixture
def config():
    return NEATConfig.for_env(2, 1, pop_size=20)


@pytest.fixture
def setup(config):
    rng = random.Random(11)
    innovations = InnovationTracker(next_node_id=1)
    repro = Reproduction(config, innovations)
    population = repro.create_initial_population(rng)
    for i, genome in enumerate(population.values()):
        genome.fitness = float(i)
    species_set = SpeciesSet(config)
    species_set.speciate(population, 0)
    species_set.adjust_fitnesses(0)
    return rng, repro, population, species_set


class TestSpawnCounts:
    def test_total_matches_pop_size(self):
        counts = Reproduction.compute_spawn_counts([1.0, 2.0, 3.0], [5, 5, 5], 30, 2)
        assert sum(counts) == 30

    def test_fitter_species_get_more(self):
        counts = Reproduction.compute_spawn_counts([0.1, 5.0], [10, 10], 20, 2)
        assert counts[1] > counts[0]

    def test_min_size_respected(self):
        counts = Reproduction.compute_spawn_counts([0.0, 10.0], [10, 10], 20, 2)
        assert all(c >= 2 for c in counts)

    def test_single_species_gets_everything(self):
        assert Reproduction.compute_spawn_counts([3.0], [20], 20, 2) == [20]


class TestInitialPopulation:
    def test_size_and_keys(self, config):
        rng = random.Random(0)
        repro = Reproduction(config, InnovationTracker(1))
        population = repro.create_initial_population(rng)
        assert len(population) == config.pop_size
        assert all(k == g.key for k, g in population.items())

    def test_genomes_valid(self, config):
        rng = random.Random(0)
        repro = Reproduction(config, InnovationTracker(1))
        for genome in repro.create_initial_population(rng).values():
            genome.validate(config.genome)


class TestReproduce:
    def test_next_generation_size(self, setup, config):
        rng, repro, population, species_set = setup
        new_pop, plan = repro.reproduce(species_set, 0, rng)
        assert len(new_pop) == config.pop_size

    def test_new_keys_do_not_collide(self, setup):
        rng, repro, population, species_set = setup
        new_pop, _plan = repro.reproduce(species_set, 0, rng)
        assert not (set(new_pop) & set(population))

    def test_elites_preserved_exactly(self, setup, config):
        rng, repro, population, species_set = setup
        best = max(population.values(), key=lambda g: g.fitness)
        new_pop, plan = repro.reproduce(species_set, 0, rng)
        assert plan.elite_keys, "elitism should copy at least one genome"
        old_key, new_key = plan.elite_keys[0]
        assert old_key == best.key
        clone = new_pop[new_key]
        assert set(clone.connections) == set(best.connections)

    def test_children_are_valid(self, setup, config):
        rng, repro, population, species_set = setup
        new_pop, _plan = repro.reproduce(species_set, 0, rng)
        for genome in new_pop.values():
            genome.validate(config.genome)

    def test_plan_events_cover_non_elites(self, setup, config):
        rng, repro, population, species_set = setup
        new_pop, plan = repro.reproduce(species_set, 0, rng)
        assert len(plan.events) + len(plan.elite_keys) == len(new_pop)

    def test_parents_are_fit_members(self, setup, config):
        rng, repro, population, species_set = setup
        _new_pop, plan = repro.reproduce(species_set, 0, rng)
        fitnesses = {k: g.fitness for k, g in population.items()}
        cutoff_fitness = sorted(fitnesses.values())[int(len(fitnesses) * 0.4)]
        for event in plan.events:
            assert fitnesses[event.parent1_key] >= cutoff_fitness - 1e-9

    def test_ops_counted(self, setup):
        rng, repro, population, species_set = setup
        _new_pop, plan = repro.reproduce(species_set, 0, rng)
        total = plan.total_counts
        assert total.crossovers > 0
        assert total.total >= total.crossovers


class TestPlanGeneration:
    def test_plan_matches_reproduce_shape(self, setup, config):
        rng, repro, population, species_set = setup
        plan = repro.plan_generation(species_set, 0, rng)
        assert plan is not None
        assert len(plan.events) + len(plan.elite_keys) == config.pop_size

    def test_plan_events_have_no_ops(self, setup):
        rng, repro, population, species_set = setup
        plan = repro.plan_generation(species_set, 0, rng)
        assert plan.total_counts.total == 0

    def test_plan_parent_keys_resident(self, setup):
        rng, repro, population, species_set = setup
        plan = repro.plan_generation(species_set, 0, rng)
        for event in plan.events:
            assert event.parent1_key in population
            assert event.parent2_key in population


class TestReproductionPlanStats:
    def test_parent_usage(self):
        plan = ReproductionPlan(generation=0)
        plan.events = [
            ReproductionEvent(10, 1, 2, 1),
            ReproductionEvent(11, 1, 1, 1),
            ReproductionEvent(12, 1, 3, 1),
        ]
        usage = plan.parent_usage()
        assert usage[1] == 3
        assert usage[2] == 1
        assert usage[3] == 1

    def test_fittest_parent_reuse(self):
        plan = ReproductionPlan(generation=0)
        plan.events = [
            ReproductionEvent(10, 1, 2, 1),
            ReproductionEvent(11, 2, 2, 1),
        ]
        reuse = plan.fittest_parent_reuse({1: 5.0, 2: 9.0})
        assert reuse == 2


class TestExtinction:
    def test_reset_on_extinction(self, config):
        config.species.max_stagnation = 1
        config.species.species_elitism = 0
        rng = random.Random(0)
        repro = Reproduction(config, InnovationTracker(1))
        population = repro.create_initial_population(rng)
        for g in population.values():
            g.fitness = 1.0  # flat fitness forever -> stagnation
        species_set = SpeciesSet(config)
        for gen in range(4):
            species_set.speciate(population, gen)
            species_set.adjust_fitnesses(gen)
            population, plan = repro.reproduce(species_set, gen, rng)
            for g in population.values():
                g.fitness = 1.0
        # population was reset at some point rather than dying
        assert len(population) == config.pop_size

    def test_extinction_raises_when_disabled(self, config):
        config.reset_on_extinction = False
        config.species.max_stagnation = 1
        config.species.species_elitism = 0
        rng = random.Random(0)
        repro = Reproduction(config, InnovationTracker(1))
        population = repro.create_initial_population(rng)
        for g in population.values():
            g.fitness = 1.0
        species_set = SpeciesSet(config)
        with pytest.raises(CompleteExtinctionError):
            for gen in range(6):
                species_set.speciate(population, gen)
                species_set.adjust_fitnesses(gen)
                population, _ = repro.reproduce(species_set, gen, rng)
                for g in population.values():
                    g.fitness = 1.0
