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
from typing import Dict, List, Optional, Sequence, Tuple

from ..neat.reproduction import ReproductionEvent
from .allocator import make_scheduler
from .gene_encoding import (
    DEST_SHIFT,
    GENE_TYPE_CONNECTION,
    GENE_TYPE_NODE,
    ID_MASK,
    ID_OFFSET,
    ID_SHIFT,
    TYPE_MASK,
    PackedGene,
    split_key,
)
from .noc import BaseNoC, NoCStats, make_noc
from .pe import CONFIG_LOAD_CYCLES, PIPELINE_DEPTH, PEConfig, PEStats, ProcessingElement
from .sram import GenomeBuffer

AlignedPair = Tuple[PackedGene, Optional[PackedGene]]


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

    children: Dict[int, List[PackedGene]] = field(default_factory=dict)
    cycles: int = 0
    elite_copy_cycles: int = 0
    waves: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    noc_stats: NoCStats = field(default_factory=NoCStats)
    pe_stats: PEStats = field(default_factory=PEStats)
    dropped_invalid_additions: int = 0


def align_parent_streams(
    stream1: Sequence[PackedGene], stream2: Sequence[PackedGene]
) -> List[AlignedPair]:
    """Gene Split alignment: merge-join the two sorted parent streams.

    Homologous genes pair up; disjoint/excess genes of the *fitter* parent
    (stream1) pass through alone; the less-fit parent's disjoint genes are
    skipped, which is both the NEAT inheritance rule and what lets one PE
    emit a child no longer than its fitter parent's stream.  The join runs
    on the key bits of the words (NEAT's innovation keys, Stanley &
    Miikkulainen 2002), see :func:`.gene_encoding.split_key`.
    """
    index2: Dict[int, PackedGene] = {split_key(g.word): g for g in stream2}
    get = index2.get
    return [(gene, get(split_key(gene.word))) for gene in stream1]


def _conn_key(word: int) -> Tuple[int, int]:
    """A connection word's (source, dest) node ids."""
    return (
        ((word >> ID_SHIFT) & ID_MASK) - ID_OFFSET,
        ((word >> DEST_SHIFT) & ID_MASK) - ID_OFFSET,
    )


def _connection_keys(stream: Sequence[PackedGene]) -> set:
    """(source, dest) of every connection gene in a stream."""
    return {
        _conn_key(g.word) for g in stream
        if g.word & TYPE_MASK == GENE_TYPE_CONNECTION
    }


class GeneMerge:
    """Orders, validates and writes back child gene streams (step 10)."""

    def __init__(self) -> None:
        self.dropped_invalid = 0

    def merge(
        self,
        produced: Sequence[PackedGene],
        parent_conn_keys: set,
    ) -> List[PackedGene]:
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
        nodes: Dict[int, PackedGene] = {}
        conns: Dict[Tuple[int, int], PackedGene] = {}
        for gene in produced:
            word = gene.word
            if word & TYPE_MASK == GENE_TYPE_NODE:
                nodes.setdefault(((word >> ID_SHIFT) & ID_MASK) - ID_OFFSET, gene)
            else:
                key = _conn_key(word)
                if key not in conns:
                    conns[key] = gene
                else:
                    self.dropped_invalid += 1

        valid_conns: Dict[Tuple[int, int], PackedGene] = {}
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
            if _creates_cycle(valid_conns.keys(), key):
                self.dropped_invalid += 1
                continue
            valid_conns[key] = conns[key]

        stream = [nodes[i] for i in sorted(nodes)]
        stream.extend(valid_conns[k] for k in sorted(valid_conns))
        return stream


def _creates_cycle(existing_keys, candidate: Tuple[int, int]) -> bool:
    a, b = candidate
    if a == b:
        return True
    adjacency: Dict[int, List[int]] = {}
    for src, dst in existing_keys:
        adjacency.setdefault(src, []).append(dst)
    frontier = [b]
    seen = {b}
    while frontier:
        node = frontier.pop()
        if node == a:
            return True
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


class EvolutionEngine:
    """The EvE accelerator: a PE array fed by Gene Split over a NoC."""

    def __init__(self, config: Optional[EvEConfig] = None) -> None:
        self.config = config or EvEConfig()
        self.pes = [
            ProcessingElement(pe_index=i, seed=self.config.seed)
            for i in range(self.config.num_pes)
        ]
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
        """Execute one wave of up to num_pes children; returns makespan."""
        aligned_streams: List[List[AlignedPair]] = []
        parent_conn_keys: List[set] = []
        active: List[Tuple[ProcessingElement, ReproductionEvent]] = []
        for pe, event in zip(self.pes, wave):
            fitness1 = buffer.get_fitness(event.parent1_key)
            fitness2 = buffer.get_fitness(event.parent2_key)
            stream1 = buffer.peek_genome(event.parent1_key)
            stream2 = buffer.peek_genome(event.parent2_key)
            # The fitter parent drives the alignment (disjoint inheritance).
            if fitness2 > fitness1:
                stream1, stream2 = stream2, stream1
                event = ReproductionEvent(
                    child_key=event.child_key,
                    parent1_key=event.parent2_key,
                    parent2_key=event.parent1_key,
                    species_key=event.species_key,
                )
                fitness1, fitness2 = fitness2, fitness1
            aligned_streams.append(align_parent_streams(stream1, stream2))
            # The aligned stream carries only the fitter parent's genes, so
            # only its connections are inherited; anything else the PE
            # emits is an addition that Gene Merge must cycle-check.
            parent_conn_keys.append(_connection_keys(stream1))
            pe.begin_child(self.config.pe, fitness1, fitness2)
            active.append((pe, event))

        # PEs share no state, so walking each PE's whole stream in turn
        # yields what cycle-by-cycle interleaving would.
        produced: List[List[PackedGene]] = []
        for (pe, _event), stream in zip(active, aligned_streams):
            process = pe.process_pair
            genes: List[PackedGene] = []
            for gene1, gene2 in stream:
                genes += process(gene1, gene2)
            produced.append(genes)

        # Cycle-by-cycle distribution: at cycle i every still-active PE
        # demands word i of each parent stream; the NoC turns demands into
        # SRAM reads (deduplicated when multicasting).
        max_len = max((len(s) for s in aligned_streams), default=0)
        for i in range(max_len):
            demands = []
            for (pe, event), stream in zip(active, aligned_streams):
                if i < len(stream):
                    demands.append((pe.pe_index, event.parent1_key, i))
                    if stream[i][1] is not None:
                        demands.append((pe.pe_index, event.parent2_key, i))
            buffer.stats.reads += self.noc.distribute_cycle(demands)

        makespan = 0
        for slot, (pe, event) in enumerate(active):
            child_cycles = pe.finish_child()
            makespan = max(makespan, child_cycles)
            stream = merge.merge(produced[slot], parent_conn_keys[slot])
            buffer.write_genome(event.child_key, stream)
            result.children[event.child_key] = stream
            result.pe_stats.merge(pe.stats)
            pe.stats = PEStats()
        if not active:
            return 0
        return makespan
