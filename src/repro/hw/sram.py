"""Genome Buffer: the shared multi-banked on-chip SRAM.

"We use a shared multi-banked SRAM that harbors all the genomes for a
given generation and is accessed by both ADAM and EvE" (Section IV-A).
The implemented configuration matches Fig. 8(a): 48 banks x 4096 words of
64 bits = 1.5 MB, backed by DRAM when a generation spills.

The model is functional-plus-counting: it stores genome gene streams at
bank-interleaved addresses and counts per-bank reads/writes, bank
conflicts, and DRAM spill traffic — the quantities behind Fig. 11(b)/(c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .gene_encoding import GENE_WORD_BYTES, PackedGene


@dataclass
class SRAMConfig:
    num_banks: int = 48
    bank_depth: int = 4096  # 64-bit words per bank
    word_bytes: int = GENE_WORD_BYTES

    @property
    def capacity_bytes(self) -> int:
        return self.num_banks * self.bank_depth * self.word_bytes

    @property
    def capacity_words(self) -> int:
        return self.num_banks * self.bank_depth


@dataclass
class SRAMStats:
    reads: int = 0
    writes: int = 0
    bank_conflicts: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    reads_per_bank: Dict[int, int] = field(default_factory=dict)
    writes_per_bank: Dict[int, int] = field(default_factory=dict)


class GenomeBuffer:
    """Stores packed genomes of the current generation, counting accesses.

    Genomes are laid out word-interleaved across banks (word *i* of a
    genome lives in bank ``(base + i) % num_banks``) so streaming a genome
    touches all banks round-robin — the layout that lets the 48 banks feed
    parallel consumers without hot-spotting.
    """

    def __init__(self, config: Optional[SRAMConfig] = None) -> None:
        self.config = config or SRAMConfig()
        self.stats = SRAMStats()
        self._genomes: Dict[int, List[PackedGene]] = {}
        self._fitness: Dict[int, float] = {}
        self._base_bank: Dict[int, int] = {}
        self._next_base = 0
        self._words_used = 0

    # -- capacity ------------------------------------------------------------

    @property
    def words_used(self) -> int:
        return self._words_used

    @property
    def overflowing(self) -> bool:
        """True when the generation spills to DRAM (Section IV-A)."""
        return self._words_used > self.config.capacity_words

    # -- genome operations -----------------------------------------------------

    def write_genome(self, genome_id: int, stream: List[PackedGene]) -> None:
        """Write a full genome stream (Gene Merge writeback, step 10)."""
        previous = self._genomes.get(genome_id)
        if previous is not None:
            self._words_used -= len(previous)
        self._genomes[genome_id] = list(stream)
        self._base_bank[genome_id] = self._next_base
        self._next_base = (self._next_base + 1) % self.config.num_banks
        self._words_used += len(stream)
        spill = max(0, self._words_used - self.config.capacity_words)
        for i in range(len(stream)):
            if self._words_used - len(stream) + i >= self.config.capacity_words:
                self.stats.dram_writes += 1
                continue
            bank = self._bank_of(genome_id, i)
            self.stats.writes += 1
            self.stats.writes_per_bank[bank] = (
                self.stats.writes_per_bank.get(bank, 0) + 1
            )

    def read_genome(self, genome_id: int, count_each_word: bool = True) -> List[PackedGene]:
        """Read a full genome stream, counting one read per 64-bit word."""
        if genome_id not in self._genomes:
            raise KeyError(f"genome {genome_id} not resident in the genome buffer")
        stream = self._genomes[genome_id]
        if count_each_word:
            for i in range(len(stream)):
                bank = self._bank_of(genome_id, i)
                self.stats.reads += 1
                self.stats.reads_per_bank[bank] = (
                    self.stats.reads_per_bank.get(bank, 0) + 1
                )
        return list(stream)

    def peek_genome(self, genome_id: int) -> List[PackedGene]:
        """Read without counting (testing / CPU bookkeeping)."""
        return list(self._genomes[genome_id])

    def genome_length(self, genome_id: int) -> int:
        return len(self._genomes[genome_id])

    def delete_genome(self, genome_id: int) -> None:
        stream = self._genomes.pop(genome_id, None)
        if stream is not None:
            self._words_used -= len(stream)
        self._fitness.pop(genome_id, None)
        self._base_bank.pop(genome_id, None)

    def resident_genomes(self) -> List[int]:
        return sorted(self._genomes)

    def clear(self) -> None:
        self._genomes.clear()
        self._fitness.clear()
        self._base_bank.clear()
        self._words_used = 0
        self._next_base = 0

    # -- fitness annotations (step 6: "The fitness value is augmented to
    # the genome that was just run in SRAM") ------------------------------

    def set_fitness(self, genome_id: int, fitness: float) -> None:
        if genome_id not in self._genomes:
            raise KeyError(f"genome {genome_id} not resident")
        self._fitness[genome_id] = fitness
        self.stats.writes += 1

    def get_fitness(self, genome_id: int) -> float:
        return self._fitness[genome_id]

    def fitnesses(self) -> Dict[int, float]:
        return dict(self._fitness)

    # -- internals --------------------------------------------------------------

    def _bank_of(self, genome_id: int, word_index: int) -> int:
        base = self._base_bank.get(genome_id, 0)
        return (base + word_index) % self.config.num_banks

    def reset_stats(self) -> SRAMStats:
        """Return current stats and start a fresh counting window."""
        stats = self.stats
        self.stats = SRAMStats()
        return stats
