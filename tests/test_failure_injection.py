"""Failure-injection and edge-case tests across the stack."""

import random

import pytest

from repro.core import GeneSysConfig, GeneSysSoC, config_for_env
from repro.hw import (
    EvEConfig,
    EvolutionEngine,
    GenomeBuffer,
    SRAMConfig,
    encode_genome,
)
from repro.hw.adam import ADAM, InferencePlan
from repro.neat import Genome, GenomeConfig, InnovationTracker, NEATConfig, Population
from repro.neat.reproduction import ReproductionEvent


@pytest.fixture
def genome_config():
    return GenomeConfig(num_inputs=2, num_outputs=1)


def make_genome(config, seed=0):
    rng = random.Random(seed)
    g = Genome(0)
    g.configure_new(config, rng)
    return g


class TestEvEFailureModes:
    def test_missing_parent_raises(self, genome_config):
        buffer = GenomeBuffer()
        buffer.write_genome(0, encode_genome(make_genome(genome_config), genome_config))
        buffer.set_fitness(0, 1.0)
        eve = EvolutionEngine(EvEConfig(num_pes=2))
        with pytest.raises(KeyError):
            eve.reproduce_generation(
                buffer, [ReproductionEvent(5, 0, 99, 1)]
            )

    def test_missing_fitness_raises(self, genome_config):
        buffer = GenomeBuffer()
        buffer.write_genome(0, encode_genome(make_genome(genome_config), genome_config))
        eve = EvolutionEngine(EvEConfig(num_pes=2))
        with pytest.raises(KeyError):
            eve.reproduce_generation(buffer, [ReproductionEvent(5, 0, 0, 1)])

    def test_empty_event_list(self, genome_config):
        buffer = GenomeBuffer()
        eve = EvolutionEngine(EvEConfig(num_pes=2))
        result = eve.reproduce_generation(buffer, [])
        assert result.children == {}
        assert result.cycles == 0

    def test_empty_genome_parent(self, genome_config):
        """A parent with zero connections (all deleted) still reproduces."""
        parent = make_genome(genome_config)
        parent.connections.clear()
        buffer = GenomeBuffer()
        buffer.write_genome(0, encode_genome(parent, genome_config))
        buffer.set_fitness(0, 1.0)
        eve = EvolutionEngine(EvEConfig(num_pes=1))
        result = eve.reproduce_generation(buffer, [ReproductionEvent(5, 0, 0, 1)])
        from repro.hw import decode_genome

        child = decode_genome(result.children[5], 5, genome_config)
        child.validate(genome_config)


class TestSoCEdgeCases:
    def test_dram_spill_accounted(self):
        """A generation larger than the SRAM spills to DRAM and the
        energy ledger charges it."""
        neat = config_for_env("CartPole-v0", pop_size=12)
        config = GeneSysConfig(
            neat=neat,
            eve=EvEConfig(num_pes=4),
            sram=SRAMConfig(num_banks=2, bank_depth=16),  # 32 words total
            seed=0,
        )
        soc = GeneSysSoC(config, "CartPole-v0", max_steps=30)
        soc.initialise_population()
        spill = sum(
            soc.buffer.genome_length(key) for key in soc.buffer.resident_genomes()
        ) - config.sram.capacity_words
        assert spill > 0
        windows = []
        reset = soc.buffer.reset_stats
        soc.buffer.reset_stats = lambda: windows.append(reset()) or windows[-1]
        report = soc.run_generation()
        (stats,) = windows
        assert soc.buffer.overflowing
        # the spilled words were written to DRAM and read back from there
        # when the generation was evaluated, and the ledger charges both
        assert stats.dram_writes >= spill
        assert stats.dram_reads >= spill
        assert report.energy.dram_accesses == stats.dram_reads + stats.dram_writes
        assert report.energy.dram_energy_j > 0

    def test_fitness_function_exception_propagates(self):
        config = NEATConfig.for_env(2, 1, pop_size=5)
        population = Population(config, seed=0)

        def broken(genomes, cfg):
            raise RuntimeError("sensor failure")

        with pytest.raises(RuntimeError, match="sensor failure"):
            population.run_generation(broken)

    def test_soc_survives_flat_fitness(self):
        """All-equal fitness (no gradient signal) must not crash selection."""
        neat = config_for_env("MountainCar-v0", pop_size=10)
        config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=4), seed=0)
        soc = GeneSysSoC(config, "MountainCar-v0", max_steps=20)
        for _ in range(3):
            report = soc.run_generation()
        # MountainCar under a tiny cap gives every genome -20: flat.
        assert report.stats.mean_fitness == report.stats.best_fitness


class TestADAMEdgeCases:
    def test_no_connection_genome(self, genome_config):
        genome = make_genome(genome_config)
        for conn in genome.connections.values():
            conn.enabled = False
        plan = InferencePlan.create(genome, genome_config)
        adam = ADAM()
        out = adam.run(plan, [1.0, 1.0])
        assert len(out) == 1

    def test_zero_inputs_everywhere(self, genome_config):
        genome = make_genome(genome_config)
        plan = InferencePlan.create(genome, genome_config)
        out = ADAM().run(plan, [0.0, 0.0])
        assert len(out) == 1


class TestPopulationEdgeCases:
    def test_minimum_population(self):
        config = NEATConfig.for_env(1, 1, pop_size=2)
        population = Population(config, seed=0)

        def fitness(genomes, cfg):
            for g in genomes:
                g.fitness = 1.0

        population.run(fitness, max_generations=3, fitness_threshold=1e9)
        assert len(population.population) == 2

    def test_negative_fitness_environment(self):
        """Acrobot-style always-negative rewards must reproduce sanely."""
        config = NEATConfig.for_env(2, 1, pop_size=10)
        population = Population(config, seed=0)
        rng = random.Random(3)

        def fitness(genomes, cfg):
            for g in genomes:
                g.fitness = -rng.uniform(50, 500)

        for _ in range(4):
            population.run_generation(fitness)
        assert len(population.population) == 10

    def test_huge_fitness_values(self):
        config = NEATConfig.for_env(2, 1, pop_size=8)
        population = Population(config, seed=0)

        def fitness(genomes, cfg):
            for g in genomes:
                g.fitness = 1e15 + g.key

        population.run_generation(fitness)
        assert len(population.population) == 8


class TestGenomeBufferEdgeCases:
    def test_delete_missing_is_noop(self):
        buffer = GenomeBuffer()
        buffer.delete_genome(42)  # silently ignored

    def test_empty_genome_stream(self):
        buffer = GenomeBuffer()
        buffer.write_genome(1, [])
        assert buffer.read_genome(1) == ()
        assert buffer.genome_length(1) == 0

    def test_single_bank_config(self, genome_config):
        buffer = GenomeBuffer(SRAMConfig(num_banks=1, bank_depth=1024))
        stream = encode_genome(make_genome(genome_config), genome_config)
        buffer.write_genome(0, stream)
        assert buffer.read_genome(0) == stream
        assert buffer.stats.reads == buffer.stats.writes == len(stream)
