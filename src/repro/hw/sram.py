"""Genome Buffer: the shared multi-banked on-chip SRAM.

"We use a shared multi-banked SRAM that harbors all the genomes for a
given generation and is accessed by both ADAM and EvE" (Section IV-A).
The implemented configuration matches Fig. 8(a): 48 banks x 4096 words of
64 bits = 1.5 MB, backed by DRAM when a generation spills.

The model is functional-plus-counting: it holds each resident genome's
gene stream and counts one SRAM access per 64-bit word read or written.
A word past the buffer's capacity spills: it is charged to DRAM when it
is written and as an SRAM read when it is read afterwards.  Fig. 11's
replay evaluator, the energy ledger and the benchmarks use these totals;
a genome's accesses are counted once per genome, not word by word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .gene_encoding import GENE_WORD_BYTES, GeneStream


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
    dram_writes: int = 0


class GenomeBuffer:
    """Stores the gene streams of the current generation, counting accesses.

    A resident stream is an immutable :data:`GeneStream`: the buffer keeps
    the tuple it is given (a snapshot of any other sequence) and hands that
    same tuple to every reader, so no caller can change a resident genome.
    """

    def __init__(self, config: Optional[SRAMConfig] = None) -> None:
        self.config = config or SRAMConfig()
        self.stats = SRAMStats()
        self._genomes: Dict[int, GeneStream] = {}
        self._fitness: Dict[int, float] = {}
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

    def write_genome(self, genome_id: int, stream: Iterable[int]) -> None:
        """Write a full genome stream (Gene Merge writeback, step 10).

        Words past the buffer's capacity spill to DRAM.
        """
        previous = self._genomes.get(genome_id)
        if previous is not None:
            self._words_used -= len(previous)
        self._genomes[genome_id] = stream = tuple(stream)
        on_chip = min(len(stream), max(0, self.config.capacity_words - self._words_used))
        self._words_used += len(stream)
        self.stats.dram_writes += len(stream) - on_chip
        self.stats.writes += on_chip

    def read_genome(self, genome_id: int) -> GeneStream:
        """Read a full genome stream, counting one read per 64-bit word."""
        if genome_id not in self._genomes:
            raise KeyError(f"genome {genome_id} not resident in the genome buffer")
        stream = self._genomes[genome_id]
        self.stats.reads += len(stream)
        return stream

    def peek_genome(self, genome_id: int) -> GeneStream:
        """Read without counting (testing / CPU bookkeeping)."""
        return self._genomes[genome_id]

    def genome_length(self, genome_id: int) -> int:
        return len(self._genomes[genome_id])

    def delete_genome(self, genome_id: int) -> None:
        stream = self._genomes.pop(genome_id, None)
        if stream is not None:
            self._words_used -= len(stream)
        self._fitness.pop(genome_id, None)

    def resident_genomes(self) -> List[int]:
        return sorted(self._genomes)

    def clear(self) -> None:
        self._genomes.clear()
        self._fitness.clear()
        self._words_used = 0

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

    def reset_stats(self) -> SRAMStats:
        """Return current stats and start a fresh counting window."""
        stats = self.stats
        self.stats = SRAMStats()
        return stats
