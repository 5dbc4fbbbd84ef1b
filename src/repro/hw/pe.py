"""EvE Processing Elements: the 4-stage reproduction pipeline (Fig. 7).

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
the hardware does: 8-bit compares, field selects, saturating Q4.4 adds,
node ids in their offset 16-bit encoding, and probability registers
turned into 8-bit compare values at configuration load.

Every PE takes one aligned gene pair per cycle (Section IV-C5) and PEs
share no state, so :class:`ProcessingElement` simulates the whole array in
lockstep, one numpy lane per PE: each PE register is an array over the
lanes — the XorWow state, read-ahead PRNG bytes with a read cursor (the
unconsumed bytes are part of the PE's state) and the Node ID regs.  One
:meth:`ProcessingElement.process_pair` call is one cycle of every lane,
each stage a masked update.  A PE spends a 2-cycle configuration load,
one cycle per pair and the 4-stage pipeline drain on a child.  These are
the hardware's semantics, not a replay of the software
:meth:`Genome.mutate`, exactly as the paper's EvE differs from neat-python.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

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
    gene_key,
    pack_connection,
    pack_node,
)
from .prng import WEYL_STEP, splitmix_states, xorwow_bytes

PIPELINE_DEPTH = 4
CONFIG_LOAD_CYCLES = 2  # "it takes 2 cycles to load the parents' fitness
# values and other control information" (Section IV-C5)

#: Default attribute values for genes minted by the Add Gene engine.
DEFAULT_NODE_ACTIVATION = "tanh"
DEFAULT_NODE_AGGREGATION = "sum"
DEFAULT_CONN_WEIGHT = 1.0

#: Fewest PRNG bytes a lane draws ahead at a time.
_PRNG_BLOCK_BYTES = 64
#: Bytes past a lane's last drawn one that a masked-off stage may read.
_READ_SLACK = 10
_CROSSOVER_BYTES = np.arange(4)

_FIELD = 0xFF
_VALUE_FIELD = _FIELD << VALUE_SHIFT  # a node's bias, a connection's weight
_RESPONSE_FIELD = _FIELD << RESPONSE_SHIFT
_ENABLED_BIT = 1 << ENABLED_SHIFT
#: Attribute fields the crossover engine picks, in PRNG byte order, for a
#: node gene and for a connection gene (which has two).
_NODE_ATTRIBUTES = (
    _VALUE_FIELD, _RESPONSE_FIELD, 0xF << ACTIVATION_SHIFT, 0xF << AGGREGATION_SHIFT
)
_CONN_ATTRIBUTES = (_VALUE_FIELD, _ENABLED_BIT, 0, 0)
#: Those fields by gene kind: row 0 a connection's, row 1 a node's.
_ATTRIBUTES = np.array([_CONN_ATTRIBUTES, _NODE_ATTRIBUTES], dtype=np.int64)
#: The bits ``pack_node`` / ``pack_connection`` write: re-packing a gene
#: keeps these and clears the type and reserved bits.  (The attribute
#: fields are disjoint, so their sum is their union.)
_NODE_FIELDS = NODE_KEY_BITS | (0b11 << NODE_TYPE_SHIFT) | sum(_NODE_ATTRIBUTES)
_CONN_FIELDS = CONN_KEY_BITS | _VALUE_FIELD | _ENABLED_BIT
#: The Add Gene engine's minted genes, ids left zero.
_NEW_NODE_WORD = pack_node(
    -ID_OFFSET, NODE_TYPE_HIDDEN, 0.0, 1.0,
    DEFAULT_NODE_ACTIVATION, DEFAULT_NODE_AGGREGATION,
)
_NEW_CONN_WORD = pack_connection(-ID_OFFSET, -ID_OFFSET, DEFAULT_CONN_WEIGHT, True)
_INVALID_NODE_TYPE = 0b11  # Fig. 6 defines 00, 01 and 10


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


@functools.lru_cache(maxsize=8)
def _saturating_adds(shift: int) -> np.ndarray:
    """Limit & Quantize for every (field, PRNG byte): entry
    ``field << 8 | byte`` is the Q4.4 field plus the signed byte
    ``>> shift``, saturated, as an 8-bit field."""
    signed = (np.arange(256, dtype=np.int16) ^ 0x80) - 0x80
    raw = signed[:, None] + (signed[None, :] >> shift)
    return (np.clip(raw, -128, 127) & _FIELD).astype(np.uint8).reshape(-1)


class _Wave:
    """A wave's pair tables, one row per cycle, with what no stage
    changes (crossover and perturbation rewrite only attribute fields),
    the latched configuration and the PEs' Node ID regs."""

    def __init__(self, config: PEConfig, words1, words2, paired, present) -> None:
        count, width = words1.shape
        self.count, self.cycle = count, 0
        self.thresholds = [config.threshold(p) for p in (
            config.crossover_bias, config.perturb_prob, config.node_delete_prob,
            config.conn_delete_prob, config.node_add_prob, config.conn_add_prob,
        )]
        self.max_node_deletions = config.max_node_deletions
        self.saturated = _saturating_adds(config.perturb_shift)
        self.word = word = np.ascontiguousarray(words1.T).view(np.int64)
        other = np.ascontiguousarray(words2.T).view(np.int64)
        self.present = present = np.ascontiguousarray(present.T)
        paired = paired.T & present
        self.is_node = is_node = (word & TYPE_MASK) == 0
        self.misaligned = paired & (
            (((other & TYPE_MASK) == 0) != is_node)
            | ((word ^ other) & np.where(is_node, NODE_KEY_BITS, CONN_KEY_BITS) != 0)
        )
        self.crossed = paired & ~self.misaligned
        self.crossed_pos = (self.crossed * (2 + 2 * is_node)).astype(np.int8)
        self.diff = word ^ other
        self.genes_in = present.view(np.int8) + paired
        node_type = (word >> NODE_TYPE_SHIFT) & 0b11
        self.invalid_type = is_node & (node_type == _INVALID_NODE_TYPE)
        self.hidden = is_node & (node_type == NODE_TYPE_HIDDEN)
        self.source = ((word >> ID_SHIFT) & ID_MASK).astype(np.int32)
        self.dest = ((word >> DEST_SHIFT) & ID_MASK).astype(np.int32)
        repacked = np.where(
            is_node, word & _NODE_FIELDS, (word & _CONN_FIELDS) | GENE_TYPE_CONNECTION
        )
        # Per cycle: whether any PE can fail a check or re-pack to new bits.
        self.any_misaligned = self.misaligned.any(axis=1).tolist()
        self.any_invalid = (self.invalid_type & present).any(axis=1).tolist()
        self.any_repack = (present & (repacked != word)).any(axis=1).tolist()
        # Node ID regs: per PE the id deleted and the id made valid at each
        # cycle (-1 for none), the max id, deletion count, pending source.
        self.deleted_ids = np.full((width, count), -1, dtype=np.int32)
        self.valid_ids = np.full((width, count), -1, dtype=np.int32)
        self.max_node_id = np.full(count, ID_OFFSET - 1, dtype=np.int32)
        self.num_deleted = np.zeros(count, dtype=np.int32)
        self.pending_source = np.full(count, -1, dtype=np.int32)
        self.running = np.ones(count, dtype=bool)
        self.out = np.zeros((width, count, 3), dtype=np.int64)  # child words
        self.emitted = np.zeros((width, count), dtype=np.int8)


class ProcessingElement:
    """The EvE PE array as lockstep lanes; lane ``i`` is PE ``i``.

    ``counts`` holds each PE's :class:`PEStats` counters, a column per
    field, and ``cycles`` the cycles of its current child.
    """

    def __init__(self, num_pes: int = 1, seed: int = 0) -> None:
        # XorWow state, one column per PE: five xorshift words, Weyl counter.
        self._prng = np.empty((6, num_pes), dtype=np.uint32)
        self._prng[:5] = splitmix_states(
            [seed ^ (0xA5A5A5A5 + i * 0x9E3779B9) for i in range(num_pes)]
        )
        self._prng[5] = WEYL_STEP
        # Read-ahead bytes: a PE's stream continues at _ahead[i, _cursor[i]]
        # up to _filled[i], and its XorWow state already stands after them.
        self._ahead = np.zeros((num_pes, _READ_SLACK), dtype=np.uint8)
        self._cursor = np.zeros(num_pes, dtype=np.int64)
        self._filled = np.zeros(num_pes, dtype=np.int64)
        self.counts = np.zeros((num_pes, len(fields(PEStats))), dtype=np.int64)
        self.cycles = np.zeros(num_pes, dtype=np.int64)
        self._wave: Optional[_Wave] = None

    def begin_child(self, config: PEConfig, words1, words2, paired, present) -> None:
        """Configuration load for a wave: 2 cycles of control information.

        PE ``k`` breeds a child from row ``k`` of the (PEs, cycles) tables
        of :func:`repro.hw.eve.align_parent_streams`: at cycle ``i`` it
        takes ``words1[k, i]`` (the fitter parent's gene) and, if
        ``paired[k, i]``, its homologue ``words2[k, i]``, or idles where
        ``present[k, i]`` is false.  Each PE latches ``config``, clears its
        Node ID regs and reads ahead every PRNG byte its stream can consume
        (5 a gene, plus 4 crossover picks for a node pair or 2 for a
        connection pair), all PEs in one generator pass.
        """
        count = len(words1)
        self.cycles[:count] = CONFIG_LOAD_CYCLES
        is_node = (words1 & np.uint64(TYPE_MASK)) == 0
        self._read_ahead(count, ((5 + paired * (2 + 2 * is_node)) * present).sum(axis=1))
        self._wave = _Wave(config, words1, words2, paired, present)

    def finish_child(self) -> Tuple[np.ndarray, List[List[int]]]:
        """Pipeline drain: each PE's total cycles for its child, and the
        child words it emitted, in order."""
        wave, self._wave = self._wave, None
        self.cycles[: wave.count] += PIPELINE_DEPTH
        emitted = wave.emitted.T
        words = wave.out.transpose(1, 0, 2)[np.arange(3) < emitted[:, :, None]]
        words = words.view(np.uint64).tolist()
        ends = np.cumsum(emitted.sum(axis=1)).tolist()
        return self.cycles[: wave.count].copy(), [
            words[start:end] for start, end in zip([0] + ends, ends)
        ]

    def reset_stats(self) -> PEStats:
        """The counters summed over the PEs, which restart at 0."""
        stats = PEStats(*self.counts.sum(axis=0).tolist())
        self.counts[:] = 0
        return stats

    def _read_ahead(self, count: int, need: np.ndarray) -> None:
        """Make at least ``need[k]`` unread PRNG bytes ready on PE ``k``.

        Every PE short of its need draws the largest shortfall (at least
        a block), so one generator pass serves them all.
        """
        unread = self._filled[:count] - self._cursor[:count]
        short = np.flatnonzero(unread < need)
        if not len(short):
            return
        unread = unread[short]
        drawn = max(int((need[short] - unread).max()), _PRNG_BLOCK_BYTES)
        width, held = int(unread.max()) + drawn + _READ_SLACK, self._ahead.shape[1]
        if width > held:
            self._ahead = np.pad(self._ahead, ((0, 0), (0, max(width, 2 * held) - held)))
        # Each short PE's unread bytes move to the front and its new bytes
        # follow; the masks keep every row's bytes in order.
        rows = self._ahead[short]
        column = np.arange(rows.shape[1])
        cursor, unread = self._cursor[short][:, None], unread[:, None]
        rows[column < unread] = rows[(column >= cursor) & (column < cursor + unread)]
        state = self._prng[:, short]
        rows[(column >= unread) & (column < unread + drawn)] = xorwow_bytes(state, drawn).ravel()
        self._prng[:, short] = state
        self._ahead[short] = rows
        self._cursor[short] = 0
        self._filled[short] = unread[:, 0] + drawn

    def process_pair(self) -> Dict[int, Exception]:
        """One cycle: each PE with a pair this cycle pushes it through the
        four stages, emitting 0-3 child words (none for a deletion, a node
        and two connections for a node addition).

        Returns the PEs whose pair failed (misalignment, invalid node type,
        id overflow) with their exceptions.  A failed PE stops at the
        failing stage, with its read cursor and counters as that stage
        left them, and idles for the rest of the wave.
        """
        wave = self._wave
        i, count = wave.cycle, wave.count
        wave.cycle += 1
        crossover, perturb, node_delete, conn_delete, node_add, conn_add = wave.thresholds
        failed: Dict[int, Exception] = {}
        active = wave.present[i] & wave.running
        live = active.copy()
        ahead = self._ahead.reshape(-1)
        start = np.arange(count) * self._ahead.shape[1] + self._cursor[:count]
        word, is_node = wave.word[i], wave.is_node[i]

        # -- stage 1: crossover ---------------------------------------------
        if wave.any_misaligned[i]:
            genes = word.view(np.uint64), (word ^ wave.diff[i]).view(np.uint64)
            for k in np.flatnonzero(wave.misaligned[i] & live):
                failed[int(k)] = ValueError(
                    "gene split misalignment: {} vs {}".format(
                        *(gene_key(int(words[k])) for words in genes))
                )
            live &= ~wave.misaligned[i]
        crossed = wave.crossed[i] & live
        # A byte at or above the bias takes parent 2's field.
        take2 = ahead[start[:, None] + _CROSSOVER_BYTES] >= crossover
        picked = (take2 * _ATTRIBUTES[is_node.view(np.int8)]).sum(axis=1) * crossed
        word = word ^ (wave.diff[i] & picked)
        if wave.any_invalid[i]:
            _fail(crossed & wave.invalid_type[i], live, failed)
        pos = wave.crossed_pos[i] * active

        # -- stage 2: perturbation ------------------------------------------
        perturbations = np.zeros(count, dtype=np.int64)
        for shift, gated in ((VALUE_SHIFT, live), (RESPONSE_SHIFT, live & is_node)):
            at = start + pos
            hit = gated & (ahead[at] < perturb)
            field = (word >> shift) & _FIELD
            saturated = wave.saturated[(field << 8) | ahead[at + 1]]
            word = word + (((saturated - field) * hit) << shift)
            pos += gated
            pos += hit
            perturbations += hit
        perturbed = perturbations > 0
        if wave.any_invalid[i]:
            _fail(perturbed & wave.invalid_type[i] & live, live, failed)
        if wave.any_repack[i]:
            word = np.where(crossed | perturbed, np.where(
                is_node, word & _NODE_FIELDS, (word & _CONN_FIELDS) | GENE_TYPE_CONNECTION
            ), word)
        node, conn = live & is_node, live & ~is_node
        source, dest = wave.source[i], wave.dest[i]

        # -- stage 3: delete gene ---------------------------------------------
        deletable = node & wave.hidden[i] & (wave.num_deleted < wave.max_node_deletions)
        node_deleted = deletable & (ahead[start + pos] < node_delete)
        pos += deletable
        kept = node & ~node_deleted
        # Dangling prune takes priority over random delete.
        dangling = np.zeros(count, dtype=bool)
        if (conn & (wave.num_deleted > 0)).any():
            deleted = wave.deleted_ids[:i]
            dangling = conn & (
                (deleted == source).any(axis=0) | (deleted == dest).any(axis=0)
            )
            conn &= ~dangling
        if node_deleted.any():
            wave.deleted_ids[i] = np.where(node_deleted, source, -1)
            wave.num_deleted += node_deleted
        conn_deleted = conn & (ahead[start + pos] < conn_delete)
        pos += conn
        conn &= ~conn_deleted

        # -- stage 4: add gene (connection) ---------------------------------
        # Node addition splits the incoming connection, which is dropped
        # (Section IV-C3).
        split = conn & (ahead[start + pos] < node_add)
        pos += conn
        conn &= ~split
        new_id = wave.max_node_id.astype(np.int64) + 1
        np.maximum(wave.max_node_id, source * kept, out=wave.max_node_id)
        wave.max_node_id += split
        wave.valid_ids[i] = np.where(kept, source, np.where(split, new_id, -1))
        overflow = split & (new_id > ID_MASK)
        for k in np.flatnonzero(overflow):
            failed[int(k)] = GeneEncodingError(
                f"node id {new_id[k] - ID_OFFSET} outside the 16-bit field"
            )
        split &= ~overflow
        # Connection addition: the two-cycle store-source / pair-with-next-
        # destination mechanism.  Inputs (negative ids) are always valid
        # sources; hidden/output ones must not have been deleted upstream.
        pending = wave.pending_source.astype(np.int64)
        pairing = conn & (pending >= 0)
        added = pairing & (pending != dest)
        unchecked = added & (pending >= ID_OFFSET)
        if unchecked.any():
            added &= ~unchecked | (wave.valid_ids[:i] == pending).any(axis=0)
        storing = conn & ~pairing
        store = storing & (ahead[start + pos] < conn_add)
        pos += storing
        np.putmask(wave.pending_source, pairing, -1)
        np.copyto(wave.pending_source, source, where=store)

        # -- emit -------------------------------------------------------------
        out, dest_bits = wave.out[i], dest.astype(np.int64) << DEST_SHIFT
        out[:, 0] = np.where(split, _NEW_NODE_WORD | (new_id << ID_SHIFT), word)
        out[:, 1] = _NEW_CONN_WORD | np.where(
            split,
            (source.astype(np.int64) << ID_SHIFT) | (new_id << DEST_SHIFT),
            (pending << ID_SHIFT) | dest_bits,
        )
        out[:, 2] = (GENE_TYPE_CONNECTION | _ENABLED_BIT | dest_bits
                     | (new_id << ID_SHIFT) | (word & _VALUE_FIELD))
        emitted = wave.emitted[i]
        emitted[:] = kept | conn
        emitted += added
        emitted += 3 * split
        self.counts[:count] += np.stack([
            wave.genes_in[i] * active, emitted, crossed, perturbations,
            node_deleted, conn_deleted, dangling, split | overflow, added, active,
        ], axis=1)
        self.cycles[:count] += active
        self._cursor[:count] += pos
        wave.running[list(failed)] = False
        return failed


def _fail(invalid: np.ndarray, live: np.ndarray, failed) -> None:
    """``pack_node``'s node-type check failing on re-packed node genes:
    those lanes stop, their read cursor after the stage's bytes."""
    for k in np.flatnonzero(invalid):
        failed[int(k)] = GeneEncodingError(f"invalid node type {_INVALID_NODE_TYPE}")
    live &= ~invalid
