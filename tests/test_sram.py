"""Unit tests for the Genome Buffer SRAM model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert buffer.read_genome(1) == tuple(stream)

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


class TestResidentStreams:
    def test_no_caller_can_change_a_resident_genome(self, buffer):
        stream = make_stream(5)
        buffer.write_genome(1, stream)
        stream[0] = pack_connection(-1, 99, 1.0, True)
        stream.append(stream[0])
        assert buffer.read_genome(1) == tuple(make_stream(5))
        for read in (buffer.read_genome, buffer.peek_genome):
            with pytest.raises(TypeError):
                read(1)[0] = stream[0]
        assert buffer.peek_genome(1) == tuple(make_stream(5))

    def test_a_written_stream_is_read_back_as_is(self, buffer):
        stream = tuple(make_stream(3))
        buffer.write_genome(1, stream)
        assert buffer.read_genome(1) is stream
        assert buffer.peek_genome(1) is stream


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


class PerWordBuffer:
    """The buffer's access accounting done word by word: each word spills
    to DRAM once the words before it fill the capacity, and is read from
    where it was written."""

    def __init__(self, config):
        self.config = config
        self.in_dram = {}  # per genome, per word: did it spill?
        self.used = 0
        self.reads = self.writes = self.dram_reads = self.dram_writes = 0

    def write(self, genome, length):
        self.used -= len(self.in_dram.get(genome, ()))
        self.in_dram[genome] = []
        for _ in range(length):
            spilled = self.used >= self.config.capacity_words
            self.in_dram[genome].append(spilled)
            self.used += 1
            if spilled:
                self.dram_writes += 1
            else:
                self.writes += 1

    def read(self, genome):
        for spilled in self.in_dram[genome]:
            if spilled:
                self.dram_reads += 1
            else:
                self.reads += 1

    def delete(self, genome):
        self.used -= len(self.in_dram.pop(genome))


@settings(max_examples=200, deadline=None)
@given(
    banks=st.integers(1, 6),
    depth=st.integers(1, 6),
    operations=st.lists(
        st.tuples(st.sampled_from(["write", "read", "delete"]),
                  st.integers(0, 4), st.integers(0, 40)),
        max_size=25,
    ),
)
def test_per_genome_accounting_matches_per_word(banks, depth, operations):
    """Counting a genome's accesses once per genome gives the per-word
    counts, over random lengths and capacities (small ones spill to
    DRAM)."""
    config = SRAMConfig(num_banks=banks, bank_depth=depth)
    buffer, reference = GenomeBuffer(config), PerWordBuffer(config)
    for operation, genome, length in operations:
        if operation == "write":
            buffer.write_genome(genome, make_stream(length))
            reference.write(genome, length)
        elif genome in reference.in_dram:
            getattr(buffer, f"{operation}_genome")(genome)
            getattr(reference, operation)(genome)
        stats = buffer.stats
        assert (stats.reads, stats.writes, stats.dram_reads, stats.dram_writes) == (
            reference.reads, reference.writes, reference.dram_reads, reference.dram_writes
        )
        assert buffer.words_used == reference.used
