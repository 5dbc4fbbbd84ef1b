"""Object-level reference for the word-level EvE kernels.

The EvE walk of ``repro.hw`` done object by object: every field goes
through the properties of :class:`PackedGene`, a view of a gene word
read off Fig. 6's bit table as written out here (not through
``repro.hw.gene_encoding``'s shift constants), and is re-packed with
``pack_node`` / ``pack_connection``; the 8-bit thresholds are recomputed
for every pair, each PRNG byte is one ``XorWow.next_byte`` call (the
generator stepped a byte at a time, defined here), and the engine runs
its PEs cycle by cycle.  Like ``repro.hw`` it takes and returns gene
words, plain ints.  Tests compare the word-level Processing Element,
Gene Split, Gene Merge, ``decode_genome`` and engine against it bit for
bit; nothing under ``src/`` imports it.

Like ``repro.hw``'s, its engine tells Gene Merge that only the fitter
parent's connection keys are inherited, so an Add Gene connection whose
key only the less-fit parent carries is cycle-checked.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hw.allocator import make_scheduler
from repro.hw.eve import EvEConfig, EvolutionResult
from repro.hw.gene_encoding import (
    FIXED_MAX,
    FIXED_MIN,
    NODE_TYPE_HIDDEN,
    GeneEncodingError,
    pack_connection,
    pack_node,
    quantize,
)
from repro.hw.noc import BaseNoC, make_noc
from repro.hw.pe import (
    CONFIG_LOAD_CYCLES,
    DEFAULT_CONN_WEIGHT,
    DEFAULT_NODE_ACTIVATION,
    DEFAULT_NODE_AGGREGATION,
    PIPELINE_DEPTH,
    PEConfig,
    PEStats,
)
from repro.hw.sram import GenomeBuffer
from repro.neat.activations import ACTIVATION_NAMES
from repro.neat.aggregations import AGGREGATION_NAMES
from repro.neat.config import GenomeConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome, creates_cycle
from repro.neat.reproduction import ReproductionEvent

#: Fig. 6's bit table (LSB first): field -> (first bit, width).  Gene
#: type 00 is a node, 01 a connection; ids are stored plus 32768; bias,
#: response and weight are Q4.4 two's complement.
NODE_FIELDS = {
    "gene_type": (0, 2), "node_id": (2, 16), "node_type": (18, 2),
    "bias": (34, 8), "response": (42, 8), "activation": (50, 4),
    "aggregation": (54, 4),
}
CONN_FIELDS = {
    "gene_type": (0, 2), "source": (2, 16), "dest": (18, 16),
    "weight": (34, 8), "enabled": (42, 1),
}


@dataclass(frozen=True)
class PackedGene:
    """A 64-bit gene word seen field by field."""

    word: int

    def __post_init__(self) -> None:
        if not 0 <= self.word < 2**64:
            raise GeneEncodingError("gene word outside 64 bits")

    def _field(self, table: Dict[str, Tuple[int, int]], name: str) -> int:
        first, width = table[name]
        return (self.word >> first) % 2**width

    def _id(self, table, name: str) -> int:
        return self._field(table, name) - 2**15

    def _q44(self, table, name: str) -> float:
        raw = self._field(table, name)
        return (raw - 256 if raw >= 128 else raw) / 16

    @property
    def gene_type(self) -> int:
        return self._field(NODE_FIELDS, "gene_type")

    @property
    def is_node(self) -> bool:
        return self.gene_type == 0b00

    @property
    def is_connection(self) -> bool:
        return self.gene_type == 0b01

    @property
    def node_id(self) -> int:
        return self._id(NODE_FIELDS, "node_id")

    @property
    def node_type(self) -> int:
        return self._field(NODE_FIELDS, "node_type")

    @property
    def bias(self) -> float:
        return self._q44(NODE_FIELDS, "bias")

    @property
    def response(self) -> float:
        return self._q44(NODE_FIELDS, "response")

    @property
    def activation(self) -> str:
        return ACTIVATION_NAMES[self._field(NODE_FIELDS, "activation")]

    @property
    def aggregation(self) -> str:
        return AGGREGATION_NAMES[self._field(NODE_FIELDS, "aggregation")]

    @property
    def source(self) -> int:
        return self._id(CONN_FIELDS, "source")

    @property
    def dest(self) -> int:
        return self._id(CONN_FIELDS, "dest")

    @property
    def weight(self) -> float:
        return self._q44(CONN_FIELDS, "weight")

    @property
    def enabled(self) -> bool:
        return bool(self._field(CONN_FIELDS, "enabled"))

    @property
    def key(self) -> tuple:
        """Gene alignment key used by the Gene Split block."""
        if self.is_node:
            return ("node", self.node_id)
        return ("conn", self.source, self.dest)


def view(stream: Iterable[int]) -> List[PackedGene]:
    """A stream's words, each seen through :class:`PackedGene`."""
    return [PackedGene(word) for word in stream]


AlignedPair = Tuple[int, Optional[int]]

_MASK32 = 0xFFFFFFFF


class XorWow:
    """Marsaglia's 32-bit xorwow, one generator stepped one value at a
    time; deterministic for a given 5-word seed state."""

    def __init__(self, seed: int = 0xDEADBEEF) -> None:
        self.seed(seed)

    def seed(self, seed: int) -> None:
        """Initialise the 5-word state via a splitmix-style expansion."""
        state: List[int] = []
        z = seed & 0xFFFFFFFFFFFFFFFF
        for _ in range(5):
            z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            mixed = z
            mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            word = (mixed ^ (mixed >> 31)) & _MASK32
            state.append(word if word else 1)  # avoid an all-zero xorshift state
        self._x, self._y, self._z, self._w, self._v = state
        self._d = 362437  # Weyl counter increment start (Marsaglia's choice)

    def next_u32(self) -> int:
        """One xorwow step: period 2^192 - 2^32."""
        t = self._x ^ ((self._x >> 2) & _MASK32)
        self._x, self._y, self._z, self._w = self._y, self._z, self._w, self._v
        v = self._v
        v = (v ^ ((v << 4) & _MASK32)) ^ (t ^ ((t << 1) & _MASK32))
        self._v = v & _MASK32
        self._d = (self._d + 362437) & _MASK32
        return (self._v + self._d) & _MASK32

    def next_byte(self) -> int:
        """The 8-bit per-cycle output port feeding the PEs."""
        return self.next_u32() & 0xFF

    def next_signed_byte(self) -> int:
        """Two's-complement interpretation of the 8-bit port, [-128, 127]."""
        byte = self.next_byte()
        return byte - 256 if byte >= 128 else byte

    @property
    def state(self) -> tuple:
        return (self._x, self._y, self._z, self._w, self._v, self._d)


class ReferencePE:
    """The object-level PE: same constructor, stages and PRNG stream as
    :class:`repro.hw.pe.ProcessingElement`."""

    def __init__(self, pe_index: int = 0, seed: int = 0) -> None:
        self.pe_index = pe_index
        self.prng = XorWow(seed=seed ^ (0xA5A5A5A5 + pe_index * 0x9E3779B9))
        self.config = PEConfig()
        self.stats = PEStats()
        self._reset_child_state()

    def _reset_child_state(self) -> None:
        # The "Node ID regs" of Fig. 7: deleted ids, intermediate state,
        # and the running max id.
        self._deleted_nodes: Set[int] = set()
        self._valid_nodes: Set[int] = set()
        self._max_node_id = -1
        self._nodes_deleted_count = 0
        self._pending_conn_source: Optional[int] = None
        self._fitness1 = 0.0
        self._fitness2 = 0.0
        self._cycles = 0

    # ------------------------------------------------------------------

    def begin_child(
        self, config: PEConfig, fitness1: float, fitness2: float
    ) -> None:
        """Configuration load: 2 cycles of control information."""
        self._reset_child_state()
        self.config = config
        self._fitness1 = fitness1
        self._fitness2 = fitness2
        self._cycles = CONFIG_LOAD_CYCLES

    def process_pair(self, word1: Optional[int], word2: Optional[int]) -> List[int]:
        """Push one aligned parent gene pair through all four stages.

        ``word2 is None`` for disjoint/excess genes inherited from the
        fitter parent.  Returns 0..3 child words (deletion yields none;
        node addition yields a node plus two connections).
        """
        if word1 is None:
            raise ValueError("gene1 must be present (fitter parent's stream)")
        gene1 = PackedGene(word1)
        gene2 = None if word2 is None else PackedGene(word2)
        self._cycles += 1
        self.stats.busy_cycles += 1
        self.stats.genes_in += 1 if gene2 is None else 2

        child = self._crossover_stage(gene1, gene2)
        child = self._perturbation_stage(child)
        kept = self._delete_stage(child)
        if kept is None:
            return []
        produced = self._add_stage(kept)
        self.stats.genes_out += len(produced)
        return [gene.word for gene in produced]

    def finish_child(self) -> int:
        """Pipeline drain; returns total cycles spent on this child."""
        self._cycles += PIPELINE_DEPTH
        return self._cycles

    @property
    def cycles(self) -> int:
        return self._cycles

    def next_byte(self) -> int:
        """Consume the next byte of this PE's PRNG stream."""
        return self.prng.next_byte()

    # -- stage 1: crossover ------------------------------------------------

    def _crossover_stage(
        self, gene1: PackedGene, gene2: Optional[PackedGene]
    ) -> PackedGene:
        if gene2 is None:
            return gene1
        if gene1.key != gene2.key:
            raise ValueError(
                f"gene split misalignment: {gene1.key} vs {gene2.key}"
            )
        self.stats.crossovers += 1
        bias = self.config.threshold(self.config.crossover_bias)

        def pick() -> bool:
            """True -> take parent 1's attribute."""
            return self.prng.next_byte() < bias

        if gene1.is_node:
            return PackedGene(pack_node(
                gene1.node_id,
                gene1.node_type,
                gene1.bias if pick() else gene2.bias,
                gene1.response if pick() else gene2.response,
                gene1.activation if pick() else gene2.activation,
                gene1.aggregation if pick() else gene2.aggregation,
            ))
        return PackedGene(pack_connection(
            gene1.source,
            gene1.dest,
            gene1.weight if pick() else gene2.weight,
            gene1.enabled if pick() else gene2.enabled,
        ))

    # -- stage 2: perturbation ------------------------------------------------

    def _perturb_value(self, value: float) -> Tuple[float, bool]:
        threshold = self.config.threshold(self.config.perturb_prob)
        if self.prng.next_byte() >= threshold:
            return value, False
        delta_raw = self.prng.next_signed_byte() >> self.config.perturb_shift
        raw = quantize(value) + delta_raw
        raw = max(FIXED_MIN, min(FIXED_MAX, raw))  # Limit & Quantize
        return raw / 16.0, True

    def _perturbation_stage(self, gene: PackedGene) -> PackedGene:
        if gene.is_node:
            bias, hit1 = self._perturb_value(gene.bias)
            response, hit2 = self._perturb_value(gene.response)
            self.stats.perturbations += int(hit1) + int(hit2)
            if not (hit1 or hit2):
                return gene
            return PackedGene(pack_node(
                gene.node_id, gene.node_type, bias, response,
                gene.activation, gene.aggregation,
            ))
        weight, hit = self._perturb_value(gene.weight)
        if hit:
            self.stats.perturbations += 1
            return PackedGene(
                pack_connection(gene.source, gene.dest, weight, gene.enabled)
            )
        return gene

    # -- stage 3: delete gene -----------------------------------------------------

    def _delete_stage(self, gene: PackedGene) -> Optional[PackedGene]:
        if gene.is_node:
            threshold = self.config.threshold(self.config.node_delete_prob)
            deletable = (
                gene.node_type == NODE_TYPE_HIDDEN
                and self._nodes_deleted_count < self.config.max_node_deletions
            )
            if deletable and self.prng.next_byte() < threshold:
                self._deleted_nodes.add(gene.node_id)
                self._nodes_deleted_count += 1
                self.stats.node_deletions += 1
                return None
            self._valid_nodes.add(gene.node_id)
            self._max_node_id = max(self._max_node_id, gene.node_id)
            return gene
        # Connection gene: dangling prune takes priority over random delete.
        if gene.source in self._deleted_nodes or gene.dest in self._deleted_nodes:
            self.stats.dangling_prunes += 1
            return None
        threshold = self.config.threshold(self.config.conn_delete_prob)
        if self.prng.next_byte() < threshold:
            self.stats.conn_deletions += 1
            return None
        return gene

    # -- stage 4: add gene ---------------------------------------------------------

    def _add_stage(self, gene: PackedGene) -> List[PackedGene]:
        if gene.is_node:
            return [gene]

        # Node addition: split the incoming connection.
        threshold = self.config.threshold(self.config.node_add_prob)
        if self.prng.next_byte() < threshold:
            new_id = self._max_node_id + 1
            self._max_node_id = new_id
            self._valid_nodes.add(new_id)
            self.stats.node_additions += 1
            node = pack_node(
                new_id,
                NODE_TYPE_HIDDEN,
                0.0,
                1.0,
                DEFAULT_NODE_ACTIVATION,
                DEFAULT_NODE_AGGREGATION,
            )
            upstream = pack_connection(gene.source, new_id, DEFAULT_CONN_WEIGHT, True)
            downstream = pack_connection(new_id, gene.dest, gene.weight, True)
            # The incoming connection gene is dropped (Section IV-C3).
            return view([node, upstream, downstream])

        # Connection addition: the two-cycle store-source / pair-with-next-
        # destination mechanism.
        produced = [gene]
        threshold = self.config.threshold(self.config.conn_add_prob)
        if self._pending_conn_source is not None:
            source = self._pending_conn_source
            self._pending_conn_source = None
            # inputs (negative ids) are always valid sources; hidden/output
            # sources must not have been deleted upstream
            source_valid = source < 0 or source in self._valid_nodes
            if source != gene.dest and source_valid:
                new_conn = pack_connection(source, gene.dest, DEFAULT_CONN_WEIGHT, True)
                self.stats.conn_additions += 1
                produced.append(PackedGene(new_conn))
        elif self.prng.next_byte() < threshold:
            self._pending_conn_source = gene.source
        return produced


def reference_align_parent_streams(
    stream1: Sequence[int], stream2: Sequence[int]
) -> List[AlignedPair]:
    """Gene Split alignment: merge-join the two sorted parent streams.

    Homologous genes pair up; disjoint/excess genes of the *fitter* parent
    (stream1) pass through alone; the less-fit parent's disjoint genes are
    skipped, which is both the NEAT inheritance rule and what lets one PE
    emit a child no longer than its fitter parent's stream.
    """
    index2: Dict[tuple, int] = {g.key: g.word for g in view(stream2)}
    return [(gene.word, index2.get(gene.key)) for gene in view(stream1)]


class ReferenceGeneMerge:
    """The object-level :class:`repro.hw.eve.GeneMerge`."""

    def __init__(self) -> None:
        self.dropped_invalid = 0

    def merge(self, produced: Sequence[int], parent_conn_keys: set) -> Tuple[int, ...]:
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
        """
        nodes: Dict[int, PackedGene] = {}
        conns: Dict[Tuple[int, int], PackedGene] = {}
        order: List[Tuple[int, int]] = []
        for gene in view(produced):
            if gene.is_node:
                nodes.setdefault(gene.node_id, gene)
            else:
                key = (gene.source, gene.dest)
                if key not in conns:
                    conns[key] = gene
                    order.append(key)
                else:
                    self.dropped_invalid += 1

        node_ids = set(nodes)
        valid_conns: Dict[Tuple[int, int], PackedGene] = {}
        inherited: List[Tuple[int, int]] = []
        added: List[Tuple[int, int]] = []
        for key in order:
            src, dst = key
            if dst not in node_ids or (src >= 0 and src not in node_ids):
                self.dropped_invalid += 1
                continue
            (inherited if key in parent_conn_keys else added).append(key)

        for key in inherited:
            valid_conns[key] = conns[key]
        # Newly added connections are admitted one by one, rejecting any
        # that would close a cycle over the connections kept so far.
        for key in added:
            if creates_cycle(valid_conns.keys(), key):
                self.dropped_invalid += 1
                continue
            valid_conns[key] = conns[key]

        stream = [nodes[i] for i in sorted(nodes)]
        stream.extend(valid_conns[k] for k in sorted(valid_conns))
        return tuple(gene.word for gene in stream)


def reference_decode_genome(
    stream: Iterable[int], key: int, config: GenomeConfig
) -> Genome:
    """Hardware gene stream -> software genome (inverse of encode_genome)."""
    genome = Genome(key)
    for gene in view(stream):
        if gene.is_node:
            genome.nodes[gene.node_id] = NodeGene(
                gene.node_id,
                bias=gene.bias,
                response=gene.response,
                activation=gene.activation,
                aggregation=gene.aggregation,
            )
        elif gene.is_connection:
            conn_key = (gene.source, gene.dest)
            genome.connections[conn_key] = ConnectionGene(
                conn_key, weight=gene.weight, enabled=gene.enabled
            )
        else:
            raise GeneEncodingError(f"unknown gene type {gene.gene_type}")
    return genome


class ReferenceEvolutionEngine:
    """The cycle-by-cycle EvE walk over :class:`ReferencePE` s, Gene Split
    and Gene Merge of this module."""

    def __init__(self, config: Optional[EvEConfig] = None) -> None:
        self.config = config or EvEConfig()
        self.pes = [
            ReferencePE(pe_index=i, seed=self.config.seed)
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
        merge = ReferenceGeneMerge()
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
        merge: ReferenceGeneMerge,
        result: EvolutionResult,
    ) -> int:
        """Execute one wave of up to num_pes children; returns makespan."""
        aligned_streams: List[List[AlignedPair]] = []
        parent_conn_keys: List[set] = []
        active: List[Tuple[ReferencePE, ReproductionEvent]] = []
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
            aligned_streams.append(reference_align_parent_streams(stream1, stream2))
            # Only the fitter parent's connections are inherited: the
            # aligned stream carries no other parent-2 gene.
            parent_conn_keys.append(
                {(g.source, g.dest) for g in view(stream1) if g.is_connection}
            )
            pe.begin_child(self.config.pe, fitness1, fitness2)
            active.append((pe, event))

        # Cycle-by-cycle distribution: at cycle i every still-active PE
        # demands word i of each parent stream; the NoC turns demands into
        # SRAM reads (deduplicated when multicasting).
        max_len = max((len(s) for s in aligned_streams), default=0)
        produced: List[List[int]] = [[] for _ in active]
        for i in range(max_len):
            demands = []
            for slot, ((pe, event), stream) in enumerate(zip(active, aligned_streams)):
                if i >= len(stream):
                    continue
                gene1, gene2 = stream[i]
                demands.append((pe.pe_index, event.parent1_key, i))
                if gene2 is not None:
                    demands.append((pe.pe_index, event.parent2_key, i))
                produced[slot].extend(pe.process_pair(gene1, gene2))
            reads = self.noc.distribute([(genome, word) for _pe, genome, word in demands])
            buffer.stats.reads += reads

        makespan = 0
        for slot, (pe, event) in enumerate(active):
            child_cycles = pe.finish_child()
            makespan = max(makespan, child_cycles)
            stream = merge.merge(produced[slot], parent_conn_keys[slot])
            buffer.write_genome(event.child_key, stream)
            result.children[event.child_key] = stream
            result.pe_stats = PEStats(*(
                total + count
                for total, count in zip(astuple(result.pe_stats), astuple(pe.stats))
            ))
            pe.stats = PEStats()
        if not active:
            return 0
        return makespan
