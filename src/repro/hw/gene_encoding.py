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

A gene is its word, a plain ``int``, and a genome is a
:data:`GeneStream`, the tuple of its words in stream order, from
:func:`encode_genome` through the Genome Buffer, Gene Split, the PEs and
Gene Merge to :func:`decode_genome`.  Every consumer reads a field by
shift and mask with the offsets below; :func:`gene_key` spells out the
key Gene Split aligns on.  Words are not range-checked in flight: none
enters the model from outside the program, :func:`encode_genome` checks
ids and clamps Q4.4 values, and the PEs check the ids they mint.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..neat.activations import ACTIVATION_CODES, ACTIVATION_NAMES
from ..neat.aggregations import AGGREGATION_CODES, AGGREGATION_NAMES
from ..neat.config import GenomeConfig
from ..neat.genes import ConnectionGene, NodeGene
from ..neat.genome import Genome

#: A genome's gene words in stream order.
GeneStream = Tuple[int, ...]

GENE_WORD_BITS = 64
GENE_WORD_BYTES = 8

GENE_TYPE_NODE = 0b00
GENE_TYPE_CONNECTION = 0b01

NODE_TYPE_HIDDEN = 0b00
NODE_TYPE_INPUT = 0b01
NODE_TYPE_OUTPUT = 0b10

ID_OFFSET = 1 << 15  # node ids stored as value + 32768 in a 16-bit field
ID_MASK = 0xFFFF

# Field offsets of the table above.
TYPE_MASK = 0b11
ID_SHIFT = 2  # node id / connection source
DEST_SHIFT = 18  # connection destination
NODE_TYPE_SHIFT = 18
VALUE_SHIFT = 34  # bias / weight
RESPONSE_SHIFT = 42
ENABLED_SHIFT = 42
ACTIVATION_SHIFT = 50
AGGREGATION_SHIFT = 54
#: The bits :func:`gene_key` reads: a node's id, or a connection's
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


#: The Q4.4 value of every 8-bit field.
_FIXED_VALUES = tuple(dequantize((bits ^ 0x80) - 0x80) for bits in range(256))


def _encode_id(node_id: int) -> int:
    shifted = node_id + ID_OFFSET
    if not 0 <= shifted <= ID_MASK:
        raise GeneEncodingError(f"node id {node_id} outside the 16-bit field")
    return shifted


def _decode_id(word: int, shift: int) -> int:
    return ((word >> shift) & ID_MASK) - ID_OFFSET


def gene_key(word: int) -> tuple:
    """The key Gene Split aligns a word on: ``("node", id)`` for a node
    gene, ``("conn", source, dest)`` for any other type."""
    if word & TYPE_MASK == GENE_TYPE_NODE:
        return ("node", _decode_id(word, ID_SHIFT))
    return ("conn", _decode_id(word, ID_SHIFT), _decode_id(word, DEST_SHIFT))


def pack_node(
    node_id: int,
    node_type: int,
    bias: float,
    response: float,
    activation: str,
    aggregation: str,
) -> int:
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
    return word


def pack_connection(source: int, dest: int, weight: float, enabled: bool) -> int:
    word = GENE_TYPE_CONNECTION
    word |= _encode_id(source) << ID_SHIFT
    word |= _encode_id(dest) << DEST_SHIFT
    word |= _encode_fixed(weight) << VALUE_SHIFT
    word |= (1 if enabled else 0) << ENABLED_SHIFT
    return word


def pack_node_gene(gene: NodeGene, config: GenomeConfig) -> int:
    node_type = NODE_TYPE_OUTPUT if gene.key in config.output_keys else NODE_TYPE_HIDDEN
    return pack_node(
        gene.key, node_type, gene.bias, gene.response, gene.activation, gene.aggregation
    )


def pack_connection_gene(gene: ConnectionGene) -> int:
    return pack_connection(gene.source, gene.dest, gene.weight, gene.enabled)


def encode_genome(genome: Genome, config: GenomeConfig) -> GeneStream:
    """Genome -> hardware gene stream (Section IV-C5 genome organisation).

    Two logical clusters — node genes then connection genes — each sorted
    ascending by id, exactly the order the Gene Split block streams.
    """
    nodes, connections = genome.nodes, genome.connections
    return tuple(
        [pack_node_gene(nodes[key], config) for key in sorted(nodes)]
        + [pack_connection_gene(connections[key]) for key in sorted(connections)]
    )


def decode_genome(stream: Iterable[int], key: int, config: GenomeConfig) -> Genome:
    """Hardware gene stream -> software genome (inverse of encode_genome).

    Fields are read straight off each word by shift and mask.
    """
    genome = Genome(key)
    nodes = genome.nodes
    connections = genome.connections
    for word in stream:
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
