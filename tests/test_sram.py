"""Unit tests for the Genome Buffer SRAM model."""

import pytest

from repro.hw.gene_encoding import pack_connection
from repro.hw.sram import GenomeBuffer, SRAMConfig


def make_stream(n, base=0):
    return [pack_connection(-1, base + i, 1.0, True) for i in range(n)]


@pytest.fixture
def buffer():
    return GenomeBuffer()


class TestConfig:
    def test_paper_capacity(self):
        # Fig. 8a: 48 banks x 4096 x 64 bits = 1.5 MB.
        config = SRAMConfig()
        assert config.capacity_bytes == 48 * 4096 * 8
        assert config.capacity_bytes == int(1.5 * 1024 * 1024)


class TestReadWrite:
    def test_write_then_read(self, buffer):
        stream = make_stream(10)
        buffer.write_genome(1, stream)
        assert buffer.read_genome(1) == stream

    def test_write_counts_words(self, buffer):
        buffer.write_genome(1, make_stream(10))
        assert buffer.stats.writes == 10

    def test_read_counts_words(self, buffer):
        buffer.write_genome(1, make_stream(10))
        buffer.read_genome(1)
        assert buffer.stats.reads == 10

    def test_peek_does_not_count(self, buffer):
        buffer.write_genome(1, make_stream(10))
        buffer.peek_genome(1)
        assert buffer.stats.reads == 0

    def test_missing_genome_raises(self, buffer):
        with pytest.raises(KeyError):
            buffer.read_genome(99)

    def test_overwrite_replaces(self, buffer):
        buffer.write_genome(1, make_stream(10))
        buffer.write_genome(1, make_stream(4, base=50))
        assert buffer.genome_length(1) == 4
        assert buffer.words_used == 4

    def test_delete_frees_space(self, buffer):
        buffer.write_genome(1, make_stream(10))
        buffer.delete_genome(1)
        assert buffer.words_used == 0
        assert 1 not in buffer.resident_genomes()

    def test_clear(self, buffer):
        buffer.write_genome(1, make_stream(5))
        buffer.set_fitness(1, 3.0)
        buffer.clear()
        assert buffer.resident_genomes() == []
        assert buffer.words_used == 0


class TestBanking:
    def test_reads_spread_across_banks(self, buffer):
        buffer.write_genome(1, make_stream(96))
        buffer.read_genome(1)
        # 96 words over 48 banks word-interleaved: 2 reads per bank.
        assert len(buffer.stats.reads_per_bank) == 48
        assert all(v == 2 for v in buffer.stats.reads_per_bank.values())

    def test_genomes_start_at_different_banks(self, buffer):
        buffer.write_genome(1, make_stream(1))
        buffer.write_genome(2, make_stream(1))
        bank1 = next(iter(buffer.stats.writes_per_bank))
        buffer.read_genome(1)
        buffer.read_genome(2)
        assert len(buffer.stats.reads_per_bank) == 2


class TestFitness:
    def test_set_get(self, buffer):
        buffer.write_genome(1, make_stream(2))
        buffer.set_fitness(1, 7.5)
        assert buffer.get_fitness(1) == 7.5

    def test_set_counts_a_write(self, buffer):
        buffer.write_genome(1, make_stream(2))
        writes = buffer.stats.writes
        buffer.set_fitness(1, 1.0)
        assert buffer.stats.writes == writes + 1

    def test_set_on_missing_raises(self, buffer):
        with pytest.raises(KeyError):
            buffer.set_fitness(42, 1.0)

    def test_fitnesses_dict(self, buffer):
        buffer.write_genome(1, make_stream(1))
        buffer.write_genome(2, make_stream(1))
        buffer.set_fitness(1, 1.0)
        buffer.set_fitness(2, 2.0)
        assert buffer.fitnesses() == {1: 1.0, 2: 2.0}


class TestOverflow:
    def test_spill_to_dram_counted(self):
        config = SRAMConfig(num_banks=2, bank_depth=4)  # 8 words capacity
        buffer = GenomeBuffer(config)
        buffer.write_genome(1, make_stream(6))
        assert buffer.stats.dram_writes == 0
        buffer.write_genome(2, make_stream(6))
        assert buffer.overflowing
        assert buffer.stats.dram_writes == 4  # words 9-12


class TestStatsWindow:
    def test_reset_stats(self, buffer):
        buffer.write_genome(1, make_stream(3))
        old = buffer.reset_stats()
        assert old.writes == 3
        assert buffer.stats.writes == 0
