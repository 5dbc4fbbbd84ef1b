"""Unit tests for the 64-bit hardware gene encoding (Fig. 6).

Packed words are read back through the test oracle's ``PackedGene``,
which spells out Fig. 6's bit table on its own, so the shift-and-mask
code of ``repro.hw.gene_encoding`` is checked against an independent
reading of the layout.
"""

import random

import pytest
from eve_reference import PackedGene, view

from repro.hw.gene_encoding import (
    FIXED_MAX_VALUE,
    FIXED_MIN_VALUE,
    GENE_WORD_BITS,
    GeneEncodingError,
    NODE_TYPE_HIDDEN,
    NODE_TYPE_OUTPUT,
    decode_genome,
    dequantize,
    encode_genome,
    gene_key,
    pack_connection,
    pack_node,
    quantize,
)
from repro.neat import Genome, GenomeConfig, InnovationTracker


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=3, num_outputs=2)


class TestQuantization:
    def test_q44_step(self):
        assert dequantize(quantize(0.0625)) == pytest.approx(0.0625)  # 1/16

    def test_clamps_to_range(self):
        assert dequantize(quantize(100.0)) == FIXED_MAX_VALUE
        assert dequantize(quantize(-100.0)) == FIXED_MIN_VALUE

    def test_rounding(self):
        # 0.03 rounds to 0.0625*round(0.48)=0
        assert dequantize(quantize(0.03)) == pytest.approx(0.0625 * round(0.03 * 16))

    def test_idempotent(self):
        for value in (-8.0, -1.3, 0.0, 0.5, 3.99, 7.9375):
            once = dequantize(quantize(value))
            assert dequantize(quantize(once)) == once


class TestNodePacking:
    def test_round_trip(self):
        gene = PackedGene(pack_node(42, NODE_TYPE_HIDDEN, 1.25, -0.5, "relu", "sum"))
        assert gene.is_node and not gene.is_connection
        assert gene.node_id == 42
        assert gene.node_type == NODE_TYPE_HIDDEN
        assert gene.bias == 1.25
        assert gene.response == -0.5
        assert gene.activation == "relu"
        assert gene.aggregation == "sum"

    def test_word_fits_64_bits(self):
        word = pack_node(30000, NODE_TYPE_OUTPUT, 7.9375, -8.0, "tanh", "max")
        assert 0 <= word < (1 << GENE_WORD_BITS)

    def test_unknown_activation_raises(self):
        with pytest.raises(GeneEncodingError):
            pack_node(1, NODE_TYPE_HIDDEN, 0.0, 1.0, "mystery", "sum")

    def test_invalid_node_type_raises(self):
        with pytest.raises(GeneEncodingError):
            pack_node(1, 3, 0.0, 1.0, "tanh", "sum")

    def test_id_out_of_field_raises(self):
        with pytest.raises(GeneEncodingError):
            pack_node(40000, NODE_TYPE_HIDDEN, 0.0, 1.0, "tanh", "sum")


class TestConnectionPacking:
    def test_round_trip(self):
        gene = PackedGene(pack_connection(-3, 17, 2.5, True))
        assert gene.is_connection
        assert gene.source == -3
        assert gene.dest == 17
        assert gene.weight == 2.5
        assert gene.enabled

    def test_negative_ids_round_trip(self):
        gene = PackedGene(pack_connection(-128, -1, -1.0, False))
        assert gene.source == -128
        assert gene.dest == -1
        assert not gene.enabled

    def test_weight_quantised(self):
        gene = PackedGene(pack_connection(-1, 0, 0.51, True))
        assert gene.weight == pytest.approx(0.5)

    def test_key(self):
        conn = pack_connection(-1, 0, 1.0, True)
        node = pack_node(4, NODE_TYPE_HIDDEN, 0, 1, "tanh", "sum")
        for key in (gene_key, lambda word: PackedGene(word).key):
            assert key(conn) == ("conn", -1, 0)
            assert key(node) == ("node", 4)


class TestGenomeStream:
    def make_genome(self, config, mutations=30, seed=1):
        rng = random.Random(seed)
        innovations = InnovationTracker(next_node_id=config.num_outputs)
        genome = Genome(0)
        genome.configure_new(config, rng)
        for _ in range(mutations):
            genome.mutate(config, rng, innovations)
        return genome

    def test_stream_order_nodes_then_connections(self, config):
        genome = self.make_genome(config)
        stream = view(encode_genome(genome, config))
        node_part = [g for g in stream if g.is_node]
        conn_part = stream[len(node_part):]
        assert all(g.is_connection for g in conn_part)
        node_ids = [g.node_id for g in node_part]
        assert node_ids == sorted(node_ids)
        conn_keys = [(g.source, g.dest) for g in conn_part]
        assert conn_keys == sorted(conn_keys)

    def test_stream_length(self, config):
        genome = self.make_genome(config)
        stream = encode_genome(genome, config)
        assert len(stream) == genome.num_genes

    def test_decode_recovers_structure(self, config):
        genome = self.make_genome(config)
        decoded = decode_genome(encode_genome(genome, config), 0, config)
        assert set(decoded.nodes) == set(genome.nodes)
        assert set(decoded.connections) == set(genome.connections)
        for key, conn in genome.connections.items():
            assert decoded.connections[key].enabled == conn.enabled

    def test_decode_quantises_attributes(self, config):
        genome = self.make_genome(config)
        decoded = decode_genome(encode_genome(genome, config), 0, config)
        for key, conn in genome.connections.items():
            assert abs(decoded.connections[key].weight - conn.weight) <= 1 / 32 + 1e-9

    def test_output_nodes_marked(self, config):
        genome = self.make_genome(config, mutations=0)
        for gene in view(encode_genome(genome, config)):
            if gene.is_node and gene.node_id in config.output_keys:
                assert gene.node_type == NODE_TYPE_OUTPUT

    def test_quantize_genome_valid(self, config):
        genome = self.make_genome(config)
        quantized = decode_genome(encode_genome(genome, config), genome.key, config)
        quantized.validate(config)

    def test_quantize_genome_idempotent(self, config):
        genome = self.make_genome(config)
        q1 = decode_genome(encode_genome(genome, config), genome.key, config)
        q2 = decode_genome(encode_genome(q1, config), q1.key, config)
        for key in q1.connections:
            assert q1.connections[key].weight == q2.connections[key].weight


class TestPackedGeneValidation:
    def test_word_range_checked(self):
        with pytest.raises(GeneEncodingError):
            PackedGene(1 << 64)
        with pytest.raises(GeneEncodingError):
            PackedGene(-1)
