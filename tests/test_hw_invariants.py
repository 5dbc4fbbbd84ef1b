"""Cross-cutting hardware invariants.

The NoC and the allocator are *accounting* mechanisms: they must never
change what the PEs compute, only how many SRAM reads/cycles it costs.
These tests pin that separation down, plus PE/PRNG stream independence.
"""

import random

import pytest

from repro.hw import (
    EvEConfig,
    EvolutionEngine,
    GenomeBuffer,
    decode_genome,
    encode_genome,
)
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.reproduction import ReproductionEvent


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=3, num_outputs=2)


def make_population(config, n=6, seed=0):
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=config.num_outputs)
    population = {}
    for key in range(n):
        g = Genome(key)
        g.configure_new(config, rng)
        for _ in range(10):
            g.mutate(config, rng, innovations)
        g.fitness = float(key)
        population[key] = g
    return population


def load(config, population):
    buffer = GenomeBuffer()
    for key, genome in population.items():
        buffer.write_genome(key, encode_genome(genome, config))
        buffer.set_fitness(key, genome.fitness)
    return buffer


def events(n=8):
    return [ReproductionEvent(100 + i, i % 3, (i + 1) % 3, 1) for i in range(n)]


def run_eve(config, population, **kwargs):
    buffer = load(config, population)
    eve = EvolutionEngine(EvEConfig(seed=5, **kwargs))
    return eve.reproduce_generation(buffer, events())


class TestNoCIsPureAccounting:
    def test_children_identical_across_noc(self, config):
        population = make_population(config)
        p2p = run_eve(config, population, num_pes=4, noc="p2p")
        tree = run_eve(config, population, num_pes=4, noc="multicast")
        assert p2p.children == tree.children

    def test_only_reads_differ(self, config):
        population = make_population(config)
        p2p = run_eve(config, population, num_pes=4, noc="p2p")
        tree = run_eve(config, population, num_pes=4, noc="multicast")
        assert p2p.cycles == tree.cycles
        assert p2p.sram_writes == tree.sram_writes
        assert tree.sram_reads <= p2p.sram_reads


class TestSchedulerAffectsOnlyPlacement:
    def test_same_children_set(self, config):
        """Different schedulers place children on different PEs (different
        PRNG streams -> different child *contents*), but the same child
        keys must all be produced and all be valid."""
        population = make_population(config)
        greedy = run_eve(config, population, num_pes=4, scheduler="greedy")
        rr = run_eve(config, population, num_pes=4, scheduler="round-robin")
        assert set(greedy.children) == set(rr.children)
        for result in (greedy, rr):
            for key, stream in result.children.items():
                decode_genome(stream, key, config).validate(config)


def pe_bytes(num_pes, seed, count=32):
    """The first ``count`` PRNG bytes of each PE of an array."""
    from repro.hw.pe import ProcessingElement
    from repro.hw.prng import xorwow_bytes

    return xorwow_bytes(ProcessingElement(num_pes, seed=seed)._prng, count).tolist()


class TestPEStreamIndependence:
    def test_different_pes_different_streams(self):
        first, second = pe_bytes(2, seed=7)
        assert first != second

    def test_same_pe_same_stream(self):
        assert pe_bytes(4, seed=7)[3] == pe_bytes(8, seed=7)[3]


class TestConservation:
    def test_population_count_conserved(self, config):
        population = make_population(config)
        result = run_eve(config, population, num_pes=4)
        assert len(result.children) == len(events())

    def test_gene_counts_plausible(self, config):
        """Children are bounded by the fitter parent's stream plus the
        small number of structural additions."""
        population = make_population(config)
        result = run_eve(config, population, num_pes=4)
        max_parent_genes = max(g.num_genes for g in population.values())
        for stream in result.children.values():
            additions = result.pe_stats.node_additions * 3 + result.pe_stats.conn_additions
            assert len(stream) <= max_parent_genes + additions

    def test_sram_writes_cover_children(self, config):
        population = make_population(config)
        result = run_eve(config, population, num_pes=4)
        total_child_genes = sum(len(s) for s in result.children.values())
        assert result.sram_writes == total_child_genes
