"""64-bit hardware gene encoding (Fig. 6).

"We use 64 bits to capture both types of genes."  Node genes carry the
four attributes {Bias, Response, Activation, Aggregation}; connection
genes carry source/destination node ids, weight and enable.

Concrete bit layout chosen for this reproduction (LSB first):

====================  =============================  ==========================
field                 node gene                      connection gene
====================  =============================  ==========================
bits 0-1              gene type = 0b00               gene type = 0b01
bits 2-17             node id (offset-32768)         source id (offset-32768)
bits 18-33            node type (2b) in 18-19        destination id (offset-32768)
bits 34-41            bias (Q4.4 two's complement)   weight (Q4.4 two's complement)
bits 42-49            response (Q4.4)                bit 42: enabled
bits 50-53            activation code                reserved
bits 54-57            aggregation code               reserved
bits 58-63            reserved                       reserved
====================  =============================  ==========================

Node types follow Fig. 6: ``00`` hidden, ``01`` input, ``10`` output.
Scalar attributes are quantised to signed Q4.4 fixed point (range
[-8, +7.9375], step 1/16) — this is the "Limit & Quantize" block of the
perturbation engine (Fig. 7).  Node ids are stored offset by 32768 so the
negative input-node ids of the software representation round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..neat.activations import ACTIVATION_CODES, ACTIVATION_NAMES
from ..neat.aggregations import AGGREGATION_CODES, AGGREGATION_NAMES
from ..neat.config import GenomeConfig
from ..neat.genes import ConnectionGene, NodeGene
from ..neat.genome import Genome

GENE_WORD_BITS = 64
GENE_WORD_BYTES = 8

GENE_TYPE_NODE = 0b00
GENE_TYPE_CONNECTION = 0b01

NODE_TYPE_HIDDEN = 0b00
NODE_TYPE_INPUT = 0b01
NODE_TYPE_OUTPUT = 0b10

ID_OFFSET = 1 << 15  # node ids stored as value + 32768 in a 16-bit field
ID_MASK = 0xFFFF

# Field offsets of the table above.  The EvE kernels (:mod:`.pe`,
# :mod:`.eve`) and :func:`decode_genome` read and write gene words by
# shift and mask with these rather than through :class:`PackedGene`'s
# properties.
TYPE_MASK = 0b11
ID_SHIFT = 2  # node id / connection source
DEST_SHIFT = 18  # connection destination
NODE_TYPE_SHIFT = 18
VALUE_SHIFT = 34  # bias / weight
RESPONSE_SHIFT = 42
ENABLED_SHIFT = 42
ACTIVATION_SHIFT = 50
AGGREGATION_SHIFT = 54
#: The bits :meth:`PackedGene.key` reads: a node's id, or a connection's
#: source and destination.
NODE_KEY_BITS = ID_MASK << ID_SHIFT
CONN_KEY_BITS = NODE_KEY_BITS | (ID_MASK << DEST_SHIFT)

# Q4.4 fixed point: 1 sign + 3 integer + 4 fraction bits.
FIXED_POINT_SCALE = 16
FIXED_MIN = -128  # raw
FIXED_MAX = 127  # raw
FIXED_MIN_VALUE = FIXED_MIN / FIXED_POINT_SCALE  # -8.0
FIXED_MAX_VALUE = FIXED_MAX / FIXED_POINT_SCALE  # +7.9375


class GeneEncodingError(ValueError):
    """Raised when a gene cannot be represented in the 64-bit word."""


def quantize(value: float) -> int:
    """Limit & Quantize: clamp to Q4.4 range, round to the nearest step."""
    raw = int(round(value * FIXED_POINT_SCALE))
    return max(FIXED_MIN, min(FIXED_MAX, raw))


def dequantize(raw: int) -> float:
    return raw / FIXED_POINT_SCALE


def _encode_fixed(value: float) -> int:
    return quantize(value) & 0xFF


def _decode_fixed(bits: int) -> float:
    raw = bits & 0xFF
    if raw >= 128:
        raw -= 256
    return dequantize(raw)


#: ``_decode_fixed`` of every 8-bit field value.
_FIXED_VALUES = tuple(_decode_fixed(bits) for bits in range(256))


def _encode_id(node_id: int) -> int:
    shifted = node_id + ID_OFFSET
    if not 0 <= shifted <= ID_MASK:
        raise GeneEncodingError(f"node id {node_id} outside the 16-bit field")
    return shifted


def _decode_id(bits: int) -> int:
    return (bits & ID_MASK) - ID_OFFSET


def split_key(word: int) -> int:
    """:meth:`PackedGene.key` of a gene word as one int.

    The key bits, tagged in bit 0: clear for a node gene, set for any
    other gene type (which, like ``PackedGene.key``, keys as a
    connection).  Two words have equal keys exactly when their
    ``PackedGene.key`` tuples are equal.
    """
    if word & TYPE_MASK == GENE_TYPE_NODE:
        return word & NODE_KEY_BITS
    return (word & CONN_KEY_BITS) | 1


@dataclass(frozen=True)
class PackedGene:
    """A 64-bit gene word plus convenience accessors."""

    word: int

    def __post_init__(self) -> None:
        if not 0 <= self.word < (1 << GENE_WORD_BITS):
            raise GeneEncodingError("gene word outside 64 bits")

    @property
    def gene_type(self) -> int:
        return self.word & TYPE_MASK

    @property
    def is_node(self) -> bool:
        return self.gene_type == GENE_TYPE_NODE

    @property
    def is_connection(self) -> bool:
        return self.gene_type == GENE_TYPE_CONNECTION

    # -- node fields --------------------------------------------------------

    @property
    def node_id(self) -> int:
        return _decode_id(self.word >> ID_SHIFT)

    @property
    def node_type(self) -> int:
        return (self.word >> NODE_TYPE_SHIFT) & 0b11

    @property
    def bias(self) -> float:
        return _decode_fixed(self.word >> VALUE_SHIFT)

    @property
    def response(self) -> float:
        return _decode_fixed(self.word >> RESPONSE_SHIFT)

    @property
    def activation(self) -> str:
        return ACTIVATION_NAMES[(self.word >> ACTIVATION_SHIFT) & 0xF]

    @property
    def aggregation(self) -> str:
        return AGGREGATION_NAMES[(self.word >> AGGREGATION_SHIFT) & 0xF]

    # -- connection fields ----------------------------------------------------

    @property
    def source(self) -> int:
        return _decode_id(self.word >> ID_SHIFT)

    @property
    def dest(self) -> int:
        return _decode_id(self.word >> DEST_SHIFT)

    @property
    def weight(self) -> float:
        return _decode_fixed(self.word >> VALUE_SHIFT)

    @property
    def enabled(self) -> bool:
        return bool((self.word >> ENABLED_SHIFT) & 0b1)

    @property
    def key(self):
        """Gene alignment key used by the Gene Split block."""
        if self.is_node:
            return ("node", self.node_id)
        return ("conn", self.source, self.dest)

    def __repr__(self) -> str:
        if self.is_node:
            return (
                f"PackedGene(node id={self.node_id} type={self.node_type} "
                f"bias={self.bias:+.4f} response={self.response:+.4f})"
            )
        return (
            f"PackedGene(conn {self.source}->{self.dest} "
            f"weight={self.weight:+.4f} enabled={self.enabled})"
        )


def pack_node(
    node_id: int,
    node_type: int,
    bias: float,
    response: float,
    activation: str,
    aggregation: str,
) -> PackedGene:
    if activation not in ACTIVATION_CODES:
        raise GeneEncodingError(f"activation {activation!r} has no hardware code")
    if aggregation not in AGGREGATION_CODES:
        raise GeneEncodingError(f"aggregation {aggregation!r} has no hardware code")
    if node_type not in (NODE_TYPE_HIDDEN, NODE_TYPE_INPUT, NODE_TYPE_OUTPUT):
        raise GeneEncodingError(f"invalid node type {node_type}")
    word = GENE_TYPE_NODE
    word |= _encode_id(node_id) << ID_SHIFT
    word |= node_type << NODE_TYPE_SHIFT
    word |= _encode_fixed(bias) << VALUE_SHIFT
    word |= _encode_fixed(response) << RESPONSE_SHIFT
    word |= ACTIVATION_CODES[activation] << ACTIVATION_SHIFT
    word |= AGGREGATION_CODES[aggregation] << AGGREGATION_SHIFT
    return PackedGene(word)


def pack_connection(source: int, dest: int, weight: float, enabled: bool) -> PackedGene:
    word = GENE_TYPE_CONNECTION
    word |= _encode_id(source) << ID_SHIFT
    word |= _encode_id(dest) << DEST_SHIFT
    word |= _encode_fixed(weight) << VALUE_SHIFT
    word |= (1 if enabled else 0) << ENABLED_SHIFT
    return PackedGene(word)


def pack_node_gene(gene: NodeGene, config: GenomeConfig) -> PackedGene:
    node_type = NODE_TYPE_OUTPUT if gene.key in config.output_keys else NODE_TYPE_HIDDEN
    return pack_node(
        gene.key, node_type, gene.bias, gene.response, gene.activation, gene.aggregation
    )


def pack_connection_gene(gene: ConnectionGene) -> PackedGene:
    return pack_connection(gene.source, gene.dest, gene.weight, gene.enabled)


def encode_genome(genome: Genome, config: GenomeConfig) -> List[PackedGene]:
    """Genome -> hardware gene stream (Section IV-C5 genome organisation).

    Two logical clusters — node genes then connection genes — each sorted
    ascending by id, exactly the order the Gene Split block streams.
    """
    stream: List[PackedGene] = []
    for key in sorted(genome.nodes):
        stream.append(pack_node_gene(genome.nodes[key], config))
    for key in sorted(genome.connections):
        stream.append(pack_connection_gene(genome.connections[key]))
    return stream


def decode_genome(
    stream: Iterable[PackedGene], key: int, config: GenomeConfig
) -> Genome:
    """Hardware gene stream -> software genome (inverse of encode_genome).

    Fields are read straight off each word by shift and mask.
    """
    genome = Genome(key)
    nodes = genome.nodes
    connections = genome.connections
    for gene in stream:
        word = gene.word
        gene_type = word & TYPE_MASK
        if gene_type == GENE_TYPE_NODE:
            node_id = ((word >> ID_SHIFT) & ID_MASK) - ID_OFFSET
            nodes[node_id] = NodeGene(
                node_id,
                _FIXED_VALUES[(word >> VALUE_SHIFT) & 0xFF],
                _FIXED_VALUES[(word >> RESPONSE_SHIFT) & 0xFF],
                ACTIVATION_NAMES[(word >> ACTIVATION_SHIFT) & 0xF],
                AGGREGATION_NAMES[(word >> AGGREGATION_SHIFT) & 0xF],
            )
        elif gene_type == GENE_TYPE_CONNECTION:
            conn_key = (
                ((word >> ID_SHIFT) & ID_MASK) - ID_OFFSET,
                ((word >> DEST_SHIFT) & ID_MASK) - ID_OFFSET,
            )
            connections[conn_key] = ConnectionGene(
                conn_key,
                _FIXED_VALUES[(word >> VALUE_SHIFT) & 0xFF],
                bool((word >> ENABLED_SHIFT) & 0b1),
            )
        else:
            raise GeneEncodingError(f"unknown gene type {gene_type}")
    return genome


def quantize_genome(genome: Genome, config: GenomeConfig) -> Genome:
    """Round-trip a genome through the 64-bit encoding (Q4.4 attributes).

    Useful for testing how much the hardware quantisation perturbs the
    phenotype relative to the float software genome.
    """
    return decode_genome(encode_genome(genome, config), genome.key, config)
