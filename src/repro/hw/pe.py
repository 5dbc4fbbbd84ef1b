"""EvE Processing Element: the 4-stage reproduction pipeline (Fig. 7).

Each PE turns one aligned stream of parent gene pairs into one child gene
stream, applying — in pipeline order —

1. **Crossover engine**: per attribute, an 8-bit PRNG value is compared
   against a programmable bias to pick parent 1 or parent 2's copy.
2. **Perturbation engine**: per attribute, a perturbation probability
   gates adding a small PRNG-derived delta, then "Limit & Quantize" clamps
   back into the Q4.4 attribute range.
3. **Delete Gene engine**: node deletions are gated by probability *and*
   a previously-deleted-node-count threshold ("in order to keep the genome
   alive"); deleted node ids are stored in the Node ID regs and matched
   against later connection genes to prune danglers.
4. **Add Gene engine**: node addition splits the incoming connection
   (new node id = max seen + 1, two fresh connection genes, incoming
   dropped); connection addition uses the paper's two-cycle scheme —
   store the source of one connection, pair it with the destination of the
   next.

The stages work on the raw 64-bit gene word (:mod:`.gene_encoding`), as
the hardware does: a crossover pick is an 8-bit compare and a field
select, a perturbation is a Q4.4 add with saturation, and node ids stay
in their offset 16-bit encoding throughout.  The probability registers
are turned into 8-bit compare values once per child, at configuration
load.  PRNG bytes come from read-ahead blocks of ``XorWow.bytes`` through
a cursor; the PE's byte stream is exactly the generator's, so the
unconsumed bytes of the current block are part of the PE's state.

The PE is functional *and* cycle-accounted: it consumes one gene pair per
cycle after a 2-cycle configuration load (Section IV-C5), plus the
4-stage pipeline drain.

Fidelity note: this is the hardware semantics, not a bit-identical replay
of the software :meth:`Genome.mutate` — the PRNG, quantisation and
structural-mutation mechanics are the hardware's own, exactly as the
paper's EvE differs from neat-python.  Integration tests check the
invariants (validity, orderedness) and that closed-loop evolution through
the PE still learns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from .gene_encoding import (
    ACTIVATION_SHIFT,
    AGGREGATION_SHIFT,
    CONN_KEY_BITS,
    DEST_SHIFT,
    ENABLED_SHIFT,
    GENE_TYPE_CONNECTION,
    ID_MASK,
    ID_OFFSET,
    ID_SHIFT,
    NODE_KEY_BITS,
    NODE_TYPE_HIDDEN,
    NODE_TYPE_SHIFT,
    RESPONSE_SHIFT,
    TYPE_MASK,
    VALUE_SHIFT,
    GeneEncodingError,
    PackedGene,
    pack_connection,
    pack_node,
)
from .prng import XorWow

PIPELINE_DEPTH = 4
CONFIG_LOAD_CYCLES = 2  # "it takes 2 cycles to load the parents' fitness
# values and other control information" (Section IV-C5)

#: Default attribute values for genes minted by the Add Gene engine.
DEFAULT_NODE_ACTIVATION = "tanh"
DEFAULT_NODE_AGGREGATION = "sum"
DEFAULT_CONN_WEIGHT = 1.0

#: PRNG bytes fetched per read-ahead block.
_PRNG_BLOCK_BYTES = 64
#: Most PRNG bytes one gene pair consumes: a node gene takes 4 crossover
#: picks, 2 x (gate + delta) perturbation bytes and 1 delete gate.
_MAX_BYTES_PER_PAIR = 9

_FIELD = 0xFF
_VALUE_FIELD = _FIELD << VALUE_SHIFT  # a node's bias, a connection's weight
_RESPONSE_FIELD = _FIELD << RESPONSE_SHIFT
_ENABLED_BIT = 1 << ENABLED_SHIFT
#: Attribute fields the crossover engine picks, in PRNG byte order.
_NODE_ATTRIBUTES = (
    _VALUE_FIELD, _RESPONSE_FIELD, 0xF << ACTIVATION_SHIFT, 0xF << AGGREGATION_SHIFT
)
_CONN_ATTRIBUTES = (_VALUE_FIELD, _ENABLED_BIT)
#: Offsets of the Q4.4 fields the perturbation engine perturbs, in order.
_NODE_VALUES = (VALUE_SHIFT, RESPONSE_SHIFT)
_CONN_VALUES = (VALUE_SHIFT,)
#: The bits ``pack_node`` / ``pack_connection`` write: re-packing a gene
#: keeps these and clears the type and reserved bits.  (The attribute
#: fields are disjoint, so their sum is their union.)
_NODE_FIELDS = NODE_KEY_BITS | (0b11 << NODE_TYPE_SHIFT) | sum(_NODE_ATTRIBUTES)
_CONN_FIELDS = CONN_KEY_BITS | _VALUE_FIELD | _ENABLED_BIT
#: The Add Gene engine's minted genes, ids left zero.
_NEW_NODE_WORD = pack_node(
    -ID_OFFSET, NODE_TYPE_HIDDEN, 0.0, 1.0,
    DEFAULT_NODE_ACTIVATION, DEFAULT_NODE_AGGREGATION,
).word
_NEW_CONN_WORD = pack_connection(
    -ID_OFFSET, -ID_OFFSET, DEFAULT_CONN_WEIGHT, True
).word


@dataclass
class PEConfig:
    """The programmable probability registers of Fig. 7 (8-bit compares)."""

    crossover_bias: float = 0.5
    perturb_prob: float = 0.25
    node_delete_prob: float = 0.002
    conn_delete_prob: float = 0.004
    node_add_prob: float = 0.004
    conn_add_prob: float = 0.01
    max_node_deletions: int = 1
    #: perturbation step: raw Q4.4 delta = signed PRNG byte >> this shift
    perturb_shift: int = 3

    def threshold(self, probability: float) -> int:
        """Probability -> the 8-bit compare value the hardware uses."""
        return max(0, min(256, int(round(probability * 256))))


@dataclass
class PEStats:
    """Per-PE op counters (the hardware image of MutationCounts)."""

    genes_in: int = 0
    genes_out: int = 0
    crossovers: int = 0
    perturbations: int = 0
    node_deletions: int = 0
    conn_deletions: int = 0
    dangling_prunes: int = 0
    node_additions: int = 0
    conn_additions: int = 0
    busy_cycles: int = 0

    def merge(self, other: "PEStats") -> None:
        for attr in (
            "genes_in",
            "genes_out",
            "crossovers",
            "perturbations",
            "node_deletions",
            "conn_deletions",
            "dangling_prunes",
            "node_additions",
            "conn_additions",
            "busy_cycles",
        ):
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))


def _perturbed(field: int, delta: int) -> int:
    """Q4.4 add with saturation: ``field`` and the result are 8-bit
    two's-complement fields, ``delta`` a signed raw step."""
    raw = ((field ^ 0x80) - 0x80) + delta
    if raw < -128:
        raw = -128
    elif raw > 127:
        raw = 127
    return raw & _FIELD


class ProcessingElement:
    """One EvE PE.  Reusable: ``begin_child`` resets per-child state."""

    def __init__(self, pe_index: int = 0, seed: int = 0) -> None:
        self.pe_index = pe_index
        self.prng = XorWow(seed=seed ^ (0xA5A5A5A5 + pe_index * 0x9E3779B9))
        # Read-ahead bytes of self.prng; the PE's stream continues at
        # _prng_bytes[_prng_pos], and self.prng already stands after them.
        self._prng_bytes: List[int] = []
        self._prng_pos = 0
        self.stats = PEStats()
        self._reset_child_state()
        self._load_config(PEConfig())

    def _reset_child_state(self) -> None:
        # The "Node ID regs" of Fig. 7: deleted ids, intermediate state,
        # and the running max id — all as encoded 16-bit id fields.
        self._deleted_nodes: Set[int] = set()
        self._valid_nodes: Set[int] = set()
        self._max_node_id = ID_OFFSET - 1
        self._nodes_deleted_count = 0
        self._pending_conn_source: Optional[int] = None
        self._fitness1 = 0.0
        self._fitness2 = 0.0
        self._cycles = 0

    def _load_config(self, config: PEConfig) -> None:
        """Latch the probability registers as 8-bit compare values."""
        self.config = config
        threshold = config.threshold
        self._crossover_threshold = threshold(config.crossover_bias)
        self._perturb_threshold = threshold(config.perturb_prob)
        self._node_delete_threshold = threshold(config.node_delete_prob)
        self._conn_delete_threshold = threshold(config.conn_delete_prob)
        self._node_add_threshold = threshold(config.node_add_prob)
        self._conn_add_threshold = threshold(config.conn_add_prob)
        self._max_node_deletions = config.max_node_deletions
        self._perturb_shift = config.perturb_shift

    # ------------------------------------------------------------------

    def begin_child(
        self, config: PEConfig, fitness1: float, fitness2: float
    ) -> None:
        """Configuration load: 2 cycles of control information."""
        self._reset_child_state()
        self._load_config(config)
        self._fitness1 = fitness1
        self._fitness2 = fitness2
        self._cycles = CONFIG_LOAD_CYCLES

    def next_byte(self) -> int:
        """Consume the next byte of this PE's PRNG stream."""
        if self._prng_pos == len(self._prng_bytes):
            self._prng_bytes = self.prng.bytes(_PRNG_BLOCK_BYTES)
            self._prng_pos = 0
        byte = self._prng_bytes[self._prng_pos]
        self._prng_pos += 1
        return byte

    def process_pair(
        self, gene1: Optional[PackedGene], gene2: Optional[PackedGene]
    ) -> List[PackedGene]:
        """Push one aligned parent gene pair through all four stages.

        ``gene2 is None`` for disjoint/excess genes inherited from the
        fitter parent.  Returns 0..3 child genes (deletion yields none;
        node addition yields a node plus two connections).
        """
        if gene1 is None:
            raise ValueError("gene1 must be present (fitter parent's stream)")
        self._cycles += 1
        stats = self.stats
        stats.busy_cycles += 1
        rand = self._prng_bytes
        pos = self._prng_pos
        if pos > len(rand) - _MAX_BYTES_PER_PAIR:
            rand = self._prng_bytes = rand[pos:] + self.prng.bytes(_PRNG_BLOCK_BYTES)
            # the cursor moves with the buffer: a pair that raises keeps it
            pos = self._prng_pos = 0
        word = gene1.word
        is_node = not word & TYPE_MASK
        # Set when a stage re-packs the gene (pack_node / pack_connection
        # in the object-level model): type and reserved bits are rebuilt.
        repacked = False

        # -- stage 1: crossover ---------------------------------------------
        if gene2 is None:
            stats.genes_in += 1
        else:
            stats.genes_in += 2
            other = gene2.word
            if (
                (other & TYPE_MASK == 0) != is_node
                or (word ^ other) & (NODE_KEY_BITS if is_node else CONN_KEY_BITS)
            ):
                raise ValueError(
                    f"gene split misalignment: {gene1.key} vs {gene2.key}"
                )
            stats.crossovers += 1
            bias = self._crossover_threshold
            # A byte at or above the bias takes parent 2's field.
            for field in _NODE_ATTRIBUTES if is_node else _CONN_ATTRIBUTES:
                if rand[pos] >= bias:
                    word = (word & ~field) | (other & field)
                pos += 1
            if is_node:
                self._check_node_type(word, pos)
            repacked = True

        # -- stage 2: perturbation ------------------------------------------
        threshold = self._perturb_threshold
        perturbed = False
        for shift in _NODE_VALUES if is_node else _CONN_VALUES:
            if rand[pos] < threshold:
                delta = ((rand[pos + 1] ^ 0x80) - 0x80) >> self._perturb_shift
                field = _perturbed((word >> shift) & _FIELD, delta)
                word = (word & ~(_FIELD << shift)) | (field << shift)
                pos += 2
                stats.perturbations += 1
                perturbed = True
            else:
                pos += 1
        if perturbed and is_node:
            self._check_node_type(word, pos)
        repacked = repacked or perturbed

        if is_node:
            if repacked:
                word &= _NODE_FIELDS
            # -- stage 3: delete gene (node) --------------------------------
            node_id = (word >> ID_SHIFT) & ID_MASK
            if (
                (word >> NODE_TYPE_SHIFT) & 0b11 == NODE_TYPE_HIDDEN
                and self._nodes_deleted_count < self._max_node_deletions
            ):
                byte = rand[pos]
                pos += 1
                if byte < self._node_delete_threshold:
                    self._prng_pos = pos
                    self._deleted_nodes.add(node_id)
                    self._nodes_deleted_count += 1
                    stats.node_deletions += 1
                    return []
            self._prng_pos = pos
            self._valid_nodes.add(node_id)
            if node_id > self._max_node_id:
                self._max_node_id = node_id
            # -- stage 4: add gene passes node genes through ----------------
            stats.genes_out += 1
            return [PackedGene(word) if word != gene1.word else gene1]

        if repacked:
            word = (word & _CONN_FIELDS) | GENE_TYPE_CONNECTION
        # -- stage 3: delete gene (connection) ------------------------------
        # Dangling prune takes priority over random delete.
        source = (word >> ID_SHIFT) & ID_MASK
        dest = (word >> DEST_SHIFT) & ID_MASK
        deleted = self._deleted_nodes
        if deleted and (source in deleted or dest in deleted):
            self._prng_pos = pos
            stats.dangling_prunes += 1
            return []
        if rand[pos] < self._conn_delete_threshold:
            self._prng_pos = pos + 1
            stats.conn_deletions += 1
            return []

        # -- stage 4: add gene (connection) ---------------------------------
        if rand[pos + 1] < self._node_add_threshold:
            # Node addition: split the incoming connection, which is
            # dropped (Section IV-C3).
            self._prng_pos = pos + 2
            new_id = self._max_node_id + 1
            self._max_node_id = new_id
            self._valid_nodes.add(new_id)
            stats.node_additions += 1
            if new_id > ID_MASK:
                raise GeneEncodingError(
                    f"node id {new_id - ID_OFFSET} outside the 16-bit field"
                )
            stats.genes_out += 3
            return [
                PackedGene(_NEW_NODE_WORD | new_id << ID_SHIFT),
                PackedGene(
                    _NEW_CONN_WORD | source << ID_SHIFT | new_id << DEST_SHIFT
                ),
                PackedGene(
                    GENE_TYPE_CONNECTION | new_id << ID_SHIFT
                    | dest << DEST_SHIFT | (word & _VALUE_FIELD) | _ENABLED_BIT
                ),
            ]
        pos += 2

        # Connection addition: the two-cycle store-source / pair-with-next-
        # destination mechanism.
        produced = [PackedGene(word) if word != gene1.word else gene1]
        pending = self._pending_conn_source
        if pending is not None:
            self._pending_conn_source = None
            # inputs (negative ids) are always valid sources; hidden/output
            # sources must not have been deleted upstream
            if pending != dest and (
                pending < ID_OFFSET or pending in self._valid_nodes
            ):
                produced.append(PackedGene(
                    _NEW_CONN_WORD | pending << ID_SHIFT | dest << DEST_SHIFT
                ))
                stats.conn_additions += 1
        else:
            if rand[pos] < self._conn_add_threshold:
                self._pending_conn_source = source
            pos += 1
        self._prng_pos = pos
        stats.genes_out += len(produced)
        return produced

    def _check_node_type(self, word: int, pos: int) -> None:
        """``pack_node``'s node-type check, for a node gene being
        re-packed; ``pos`` is the read cursor to keep if it fails."""
        node_type = (word >> NODE_TYPE_SHIFT) & 0b11
        if node_type == 0b11:  # Fig. 6 defines 00, 01 and 10
            self._prng_pos = pos
            raise GeneEncodingError(f"invalid node type {node_type}")

    def finish_child(self) -> int:
        """Pipeline drain; returns total cycles spent on this child."""
        self._cycles += PIPELINE_DEPTH
        return self._cycles

    @property
    def cycles(self) -> int:
        return self._cycles
