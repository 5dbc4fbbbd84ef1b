"""EvE — the Evolution Engine (Section IV-C).

Ties together the building blocks around the PE array:

* **Gene Split** aligns the two parent gene streams key-by-key ("the keys
  (i.e., node id) for both the parent genes need to be the same ... the
  gene split block therefore sits between the PEs and the Genome Buffer to
  ensure that the alignment is maintained and proper gene pairs are sent
  to the PEs every cycle").
* **PE array** executes crossover + mutations (one PE per child genome).
* **Gene Merge** re-orders child genes into the canonical two-cluster
  sorted layout, validates structure (dangling/cyclic additions from the
  speculative Add Gene engine are dropped), and writes the child genome
  back to the Genome Buffer.
* **NoC** (point-to-point or multicast tree) accounts the SRAM reads of
  gene distribution — the Fig. 11(b) ablation.

Cycle accounting: children are scheduled onto PEs in waves (see
:mod:`.allocator`); a wave's makespan is the slowest PE's
config-load + stream + drain time, and generation evolution time is the
sum of wave makespans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..neat.genome import creates_cycle
from ..neat.reproduction import ReproductionEvent
from .allocator import make_scheduler
from .gene_encoding import (
    CONN_KEY_BITS,
    DEST_SHIFT,
    GENE_TYPE_CONNECTION,
    GENE_TYPE_NODE,
    ID_MASK,
    ID_OFFSET,
    ID_SHIFT,
    NODE_KEY_BITS,
    TYPE_MASK,
    GeneStream,
)
from .noc import BaseNoC, NoCStats, make_noc
from .pe import PEConfig, PEStats, ProcessingElement
from .sram import GenomeBuffer

#: Bits of a split key (see :func:`align_parent_streams`); a wave's
#: parent index is tagged on above them.
_SPLIT_KEY_BITS = CONN_KEY_BITS.bit_length()


@dataclass
class EvEConfig:
    num_pes: int = 256
    noc: str = "multicast"
    scheduler: str = "greedy"
    pe: PEConfig = field(default_factory=PEConfig)
    seed: int = 0


@dataclass
class EvolutionResult:
    """Per-generation accounting of one EvE reproduction pass."""

    children: Dict[int, GeneStream] = field(default_factory=dict)
    cycles: int = 0
    elite_copy_cycles: int = 0
    waves: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    noc_stats: NoCStats = field(default_factory=NoCStats)
    pe_stats: PEStats = field(default_factory=PEStats)
    dropped_invalid_additions: int = 0


def align_parent_streams(
    parents: Sequence[GeneStream],
    fitter: Sequence[int],
    other: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gene Split for a wave: align each child's two parent streams.

    Child ``j`` is bred from ``parents[fitter[j]]``, the fitter parent,
    and ``parents[other[j]]``.  Homologous genes pair up; disjoint/excess
    genes of the fitter parent pass through alone; the less-fit parent's
    disjoint genes are skipped, which is both the NEAT inheritance rule and
    what lets one PE emit a child no longer than its fitter parent's
    stream.  The join runs on the words' key bits (NEAT's innovation keys,
    Stanley & Miikkulainen 2002), tagged in bit 0 by whether the word is a
    node gene, as :func:`~.gene_encoding.gene_key` tells nodes from
    everything else: one sorted (parent, key) table serves every child, and
    where a stream repeats a key its last gene is the homologue.

    Returns four (children, longest fitter stream) tables: the fitter
    parent's words, their homologues (``paired`` where there is one) and
    whether an entry holds a gene (``present``); absent words are 0.
    """
    fitter, other = np.asarray(fitter, dtype=np.int64), np.asarray(other, dtype=np.int64)
    lengths = np.array([len(stream) for stream in parents], dtype=np.int64)
    width = int(lengths[fitter].max())
    starts = np.cumsum(lengths) - lengths
    words = np.fromiter(chain.from_iterable(parents), dtype=np.uint64,
                        count=int(lengths.sum()))
    is_node = (words & np.uint64(TYPE_MASK)) == GENE_TYPE_NODE
    keys = np.where(is_node, words & np.uint64(NODE_KEY_BITS),
                    (words & np.uint64(CONN_KEY_BITS)) | np.uint64(1)).astype(np.int64)
    tagged = (np.repeat(np.arange(len(parents)), lengths) << _SPLIT_KEY_BITS) | keys
    order = np.argsort(tagged, kind="stable")
    table = tagged[order]
    column = np.arange(width)
    present = column < lengths[fitter][:, None]
    index1 = np.where(present, starts[fitter][:, None] + column, 0)
    query = (other[:, None] << _SPLIT_KEY_BITS) | keys[index1]
    found = np.maximum(np.searchsorted(table, query, side="right") - 1, 0)
    paired = present & (table[found] == query)
    words1 = np.where(present, words[index1], np.uint64(0))
    words2 = np.where(paired, words[order[found]], np.uint64(0))
    return words1, words2, paired, present


def _conn_key(word: int) -> Tuple[int, int]:
    """A connection word's (source, dest) node ids."""
    return (
        ((word >> ID_SHIFT) & ID_MASK) - ID_OFFSET,
        ((word >> DEST_SHIFT) & ID_MASK) - ID_OFFSET,
    )


class GeneMerge:
    """Orders, validates and writes back child gene streams (step 10)."""

    def __init__(self) -> None:
        self.dropped_invalid = 0

    def merge(self, produced: Sequence[int], parent_conn_keys: set) -> GeneStream:
        """Canonicalise one child's produced genes.

        * dedup by key (first occurrence wins),
        * drop connections whose endpoints are not in the genome
          (a dangler can slip through when the Add Gene engine pairs a
          stored source with a destination whose node a later stage
          deletes),
        * drop *newly added* connections that would create a cycle
          (the two-cycle add mechanism guarantees valid endpoints but not
          acyclicity; validation happens here at merge),
        * emit nodes sorted by id, then connections sorted by key.

        ``parent_conn_keys`` holds the (source, dest) keys of the
        connections the child inherits; every other connection is an Add
        Gene addition and is cycle-checked.
        """
        nodes: Dict[int, int] = {}
        conns: Dict[Tuple[int, int], int] = {}
        for word in produced:
            if word & TYPE_MASK == GENE_TYPE_NODE:
                nodes.setdefault(((word >> ID_SHIFT) & ID_MASK) - ID_OFFSET, word)
            else:
                key = _conn_key(word)
                if key not in conns:
                    conns[key] = word
                else:
                    self.dropped_invalid += 1

        valid_conns: Dict[Tuple[int, int], int] = {}
        added: List[Tuple[int, int]] = []
        for key in conns:
            src, dst = key
            if dst not in nodes or (src >= 0 and src not in nodes):
                self.dropped_invalid += 1
            elif key in parent_conn_keys:
                valid_conns[key] = conns[key]
            else:
                added.append(key)
        # Newly added connections are admitted one by one, rejecting any
        # that would close a cycle over the connections kept so far.
        for key in added:
            if creates_cycle(valid_conns.keys(), key):
                self.dropped_invalid += 1
                continue
            valid_conns[key] = conns[key]

        return tuple(
            [nodes[i] for i in sorted(nodes)]
            + [valid_conns[k] for k in sorted(valid_conns)]
        )


class EvolutionEngine:
    """The EvE accelerator: a PE array fed by Gene Split over a NoC."""

    def __init__(self, config: Optional[EvEConfig] = None) -> None:
        self.config = config or EvEConfig()
        self.pes = ProcessingElement(self.config.num_pes, seed=self.config.seed)
        self.noc: BaseNoC = make_noc(self.config.noc)
        self._schedule = make_scheduler(self.config.scheduler)

    def reproduce_generation(
        self,
        buffer: GenomeBuffer,
        events: Sequence[ReproductionEvent],
        elite_pairs: Sequence[Tuple[int, int]] = (),
    ) -> EvolutionResult:
        """Steps 8-10: stream parents through PEs, merge children back.

        ``events`` carry (child, parent1, parent2) keys; parent genomes and
        fitnesses must be resident in ``buffer``.  Elite pairs (old, new)
        are DMA copies that bypass the PEs.
        """
        result = EvolutionResult()
        merge = GeneMerge()
        reads_before = buffer.stats.reads
        writes_before = buffer.stats.writes

        waves = self._schedule(events, self.config.num_pes)
        result.waves = len(waves)
        for wave in waves:
            result.cycles += self._run_wave(wave, buffer, merge, result)

        # Elite genomes are copied unchanged (no PE involvement): a DMA
        # read+write per gene word on the collection bus, overlapped with
        # the PE waves — only the excess beyond the wave time adds latency.
        for old_key, new_key in elite_pairs:
            stream = buffer.read_genome(old_key)
            buffer.write_genome(new_key, stream)
            result.children[new_key] = stream
            result.elite_copy_cycles += len(stream)
        result.cycles = max(result.cycles, result.elite_copy_cycles)

        result.pe_stats = self.pes.reset_stats()
        result.sram_reads = buffer.stats.reads - reads_before
        result.sram_writes = buffer.stats.writes - writes_before
        result.noc_stats = self.noc.reset_stats()
        result.dropped_invalid_additions = merge.dropped_invalid
        return result

    # ------------------------------------------------------------------

    def _run_wave(
        self,
        wave: Sequence[ReproductionEvent],
        buffer: GenomeBuffer,
        merge: GeneMerge,
        result: EvolutionResult,
    ) -> int:
        """Execute one wave of up to num_pes children; returns makespan.

        Child ``j`` runs on PE ``j``, all PEs in lockstep.  A PE whose pair
        fails stops; once every stream has ended, the lowest-numbered
        failed PE's error is raised, as a PE-by-PE walk would raise it.
        """
        # The fitter parent drives the alignment (disjoint inheritance).
        slot_of: Dict[int, int] = {}
        streams: List[GeneStream] = []
        fitter: List[int] = []
        other: List[int] = []
        for event in wave:
            parent1, parent2 = event.parent1_key, event.parent2_key
            if buffer.get_fitness(parent2) > buffer.get_fitness(parent1):
                parent1, parent2 = parent2, parent1
            for key, slots in ((parent1, fitter), (parent2, other)):
                if key not in slot_of:
                    slot_of[key] = len(streams)
                    streams.append(buffer.peek_genome(key))
                slots.append(slot_of[key])
        words1, words2, paired, present = align_parent_streams(streams, fitter, other)
        pes = self.pes
        pes.begin_child(self.config.pe, words1, words2, paired, present)
        width = words1.shape[1]
        failed: Dict[int, Exception] = {}
        for _ in range(width):
            failed.update(pes.process_pair())
        if failed:
            raise failed[min(failed)]

        # Distribution: at cycle i every PE still streaming demands word i
        # of each parent stream it reads; the NoC turns demands into SRAM
        # reads (deduplicated when multicasting).  A demand is named by its
        # parent's slot and the word index, which is also the cycle.
        word_index = np.arange(width)
        demands = np.concatenate([
            (np.asarray(fitter)[:, None] * width + word_index)[present],
            (np.asarray(other)[:, None] * width + word_index)[paired],
        ])
        buffer.stats.reads += self.noc.distribute(demands, cycles=width)

        cycles, produced = pes.finish_child()
        # The aligned stream carries only the fitter parent's genes, so
        # only its connections are inherited; anything else the PE emits
        # is an addition that Gene Merge must cycle-check.
        inherited: Dict[int, set] = {}
        for event, parent, words in zip(wave, fitter, produced):
            if parent not in inherited:
                inherited[parent] = {
                    _conn_key(word) for word in streams[parent]
                    if word & TYPE_MASK == GENE_TYPE_CONNECTION
                }
            stream = merge.merge(words, inherited[parent])
            buffer.write_genome(event.child_key, stream)
            result.children[event.child_key] = stream
        return int(cycles.max())
