"""Unit tests for the EvE evolution engine."""

import random

import pytest
from eve_reference import PackedGene, view

from repro.hw.eve import EvEConfig, EvolutionEngine, GeneMerge, align_parent_streams
from repro.hw.gene_encoding import (
    decode_genome, encode_genome, pack_connection, pack_node,
)
from repro.hw.gene_encoding import NODE_TYPE_HIDDEN, NODE_TYPE_OUTPUT
from repro.hw.pe import PEConfig
from repro.hw.sram import GenomeBuffer
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.reproduction import ReproductionEvent


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=3, num_outputs=2)


def make_parents(config, seed=0, mutations=20):
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=config.num_outputs)
    p1 = Genome(0)
    p1.configure_new(config, rng)
    for _ in range(mutations):
        p1.mutate(config, rng, innovations)
    p2 = p1.copy(1)
    for _ in range(mutations // 2):
        p2.mutate(config, rng, innovations)
    return p1, p2


def load_buffer(config, parents):
    buffer = GenomeBuffer()
    for i, genome in enumerate(parents):
        buffer.write_genome(i, encode_genome(genome, config))
        buffer.set_fitness(i, 10.0 - i)
    return buffer


def aligned_pairs(stream1, stream2):
    """Gene Split of one child: (fitter gene, homologue or None) pairs."""
    words1, words2, paired, present = align_parent_streams([stream1, stream2], [0], [1])
    return [
        (PackedGene(int(w1)), PackedGene(int(w2)) if p else None)
        for w1, w2, p in zip(words1[0][present[0]], words2[0][present[0]], paired[0][present[0]])
    ]


class TestAlignment:
    def test_homologous_paired(self, config):
        p1, _ = make_parents(config)
        stream = encode_genome(p1, config)
        pairs = aligned_pairs(stream, stream)
        assert all(g2 is not None and g1.key == g2.key for g1, g2 in pairs)

    def test_disjoint_from_fitter_only(self, config):
        p1, p2 = make_parents(config)
        s1 = encode_genome(p1, config)
        s2 = encode_genome(p2, config)
        pairs = aligned_pairs(s1, s2)
        assert len(pairs) == len(s1)
        keys2 = {g.key for g in view(s2)}
        for g1, g2 in pairs:
            if g1.key in keys2:
                assert g2 is not None
            else:
                assert g2 is None


class TestGeneMerge:
    def test_orders_nodes_then_connections(self):
        merge = GeneMerge()
        produced = [
            pack_connection(-1, 0, 1.0, True),
            pack_node(0, NODE_TYPE_OUTPUT, 0, 1, "tanh", "sum"),
            pack_node(5, NODE_TYPE_HIDDEN, 0, 1, "tanh", "sum"),
            pack_connection(-1, 5, 1.0, True),
        ]
        stream = view(merge.merge(produced, parent_conn_keys=set()))
        assert [g.is_node for g in stream] == [True, True, False, False]
        assert stream[0].node_id == 0 and stream[1].node_id == 5

    def test_drops_dangling_connection(self):
        merge = GeneMerge()
        produced = [
            pack_node(0, NODE_TYPE_OUTPUT, 0, 1, "tanh", "sum"),
            pack_connection(-1, 99, 1.0, True),  # node 99 does not exist
        ]
        stream = view(merge.merge(produced, parent_conn_keys=set()))
        assert all(g.is_node for g in stream)
        assert merge.dropped_invalid == 1

    def test_drops_cyclic_addition(self):
        merge = GeneMerge()
        inherited = {(5, 6)}
        produced = [
            pack_node(5, NODE_TYPE_HIDDEN, 0, 1, "tanh", "sum"),
            pack_node(6, NODE_TYPE_HIDDEN, 0, 1, "tanh", "sum"),
            pack_connection(5, 6, 1.0, True),
            pack_connection(6, 5, 1.0, True),  # new edge closing a cycle
        ]
        stream = view(merge.merge(produced, parent_conn_keys=inherited))
        conn_keys = {(g.source, g.dest) for g in stream if g.is_connection}
        assert (5, 6) in conn_keys
        assert (6, 5) not in conn_keys
        assert merge.dropped_invalid == 1

    def test_dedups_by_key(self):
        merge = GeneMerge()
        produced = [
            pack_node(0, NODE_TYPE_OUTPUT, 0, 1, "tanh", "sum"),
            pack_connection(-1, 0, 1.0, True),
            pack_connection(-1, 0, 2.0, True),
        ]
        stream = view(merge.merge(produced, parent_conn_keys={(-1, 0)}))
        conns = [g for g in stream if g.is_connection]
        assert len(conns) == 1
        assert conns[0].weight == 1.0  # first occurrence wins


class TestEvolutionEngine:
    def test_children_produced_and_valid(self, config):
        p1, p2 = make_parents(config)
        buffer = load_buffer(config, [p1, p2])
        eve = EvolutionEngine(EvEConfig(num_pes=4))
        events = [
            ReproductionEvent(10 + i, 0, 1, 1) for i in range(6)
        ]
        result = eve.reproduce_generation(buffer, events)
        assert len(result.children) == 6
        for key, stream in result.children.items():
            child = decode_genome(stream, key, config)
            child.validate(config)

    def test_children_written_to_buffer(self, config):
        p1, p2 = make_parents(config)
        buffer = load_buffer(config, [p1, p2])
        eve = EvolutionEngine(EvEConfig(num_pes=2))
        events = [ReproductionEvent(10, 0, 1, 1)]
        result = eve.reproduce_generation(buffer, events)
        assert buffer.peek_genome(10) == result.children[10]

    def test_elite_copy_bypasses_pes(self, config):
        p1, p2 = make_parents(config)
        buffer = load_buffer(config, [p1, p2])
        eve = EvolutionEngine(EvEConfig(num_pes=2))
        result = eve.reproduce_generation(buffer, [], elite_pairs=[(0, 50)])
        assert result.children[50] == encode_genome(p1, config)
        assert result.pe_stats.genes_in == 0
        assert result.elite_copy_cycles == p1.num_genes

    def test_zero_probability_child_is_quantised_parent(self, config):
        """With all mutation probs 0 and crossover bias 1, the child is
        exactly the fitter parent's (quantised) genome."""
        p1, p2 = make_parents(config)
        buffer = load_buffer(config, [p1, p2])
        pe_cfg = PEConfig(
            crossover_bias=1.0, perturb_prob=0.0, node_delete_prob=0.0,
            conn_delete_prob=0.0, node_add_prob=0.0, conn_add_prob=0.0,
        )
        eve = EvolutionEngine(EvEConfig(num_pes=1, pe=pe_cfg))
        result = eve.reproduce_generation(buffer, [ReproductionEvent(10, 0, 1, 1)])
        assert result.children[10] == encode_genome(p1, config)

    def test_fitter_parent_drives_alignment(self, config):
        """Swapping parent order must not change the child structure when
        crossover is deterministic (bias towards the fitter parent)."""
        p1, p2 = make_parents(config)
        pe_cfg = PEConfig(crossover_bias=1.0, perturb_prob=0.0, node_delete_prob=0.0,
                          conn_delete_prob=0.0, node_add_prob=0.0, conn_add_prob=0.0)
        streams = []
        for parents in [(0, 1), (1, 0)]:
            buffer = load_buffer(config, [p1, p2])
            eve = EvolutionEngine(EvEConfig(num_pes=1, pe=pe_cfg))
            result = eve.reproduce_generation(
                buffer, [ReproductionEvent(10, parents[0], parents[1], 1)]
            )
            streams.append(result.children[10])
        assert streams[0] == streams[1]

    def test_multicast_saves_reads_vs_p2p(self, config):
        p1, p2 = make_parents(config)
        reads = {}
        for noc in ("p2p", "multicast"):
            buffer = load_buffer(config, [p1, p2])
            eve = EvolutionEngine(EvEConfig(num_pes=8, noc=noc))
            events = [ReproductionEvent(10 + i, 0, 1, 1) for i in range(8)]
            result = eve.reproduce_generation(buffer, events)
            reads[noc] = result.sram_reads
        assert reads["multicast"] < reads["p2p"]
        # 8 identical children over multicast need only ~1 stream's reads
        assert reads["p2p"] >= 6 * reads["multicast"]

    def test_more_pes_fewer_waves(self, config):
        p1, p2 = make_parents(config)
        events = [ReproductionEvent(10 + i, 0, 1, 1) for i in range(16)]
        waves = {}
        cycles = {}
        for n in (2, 16):
            buffer = load_buffer(config, [p1, p2])
            eve = EvolutionEngine(EvEConfig(num_pes=n))
            result = eve.reproduce_generation(buffer, list(events))
            waves[n] = result.waves
            cycles[n] = result.cycles
        assert waves[2] == 8 and waves[16] == 1
        assert cycles[16] < cycles[2]

    def test_ops_counted(self, config):
        p1, p2 = make_parents(config)
        buffer = load_buffer(config, [p1, p2])
        eve = EvolutionEngine(EvEConfig(num_pes=4))
        events = [ReproductionEvent(10 + i, 0, 1, 1) for i in range(4)]
        result = eve.reproduce_generation(buffer, events)
        assert result.pe_stats.crossovers > 0

    def test_deterministic_for_seed(self, config):
        p1, p2 = make_parents(config)
        outs = []
        for _ in range(2):
            buffer = load_buffer(config, [p1, p2])
            eve = EvolutionEngine(EvEConfig(num_pes=4, seed=77))
            events = [ReproductionEvent(10 + i, 0, 1, 1) for i in range(4)]
            result = eve.reproduce_generation(buffer, events)
            outs.append(result.children)
        assert outs[0] == outs[1]


class TestAddedConnectionCycleCheck:
    """A connection the Add Gene engine mints must be cycle-checked even
    when the less-fit parent happens to carry the same key: only the
    fitter parent's genes reach the child through the aligned stream."""

    @staticmethod
    def _parent(conns):
        nodes = [pack_node(0, NODE_TYPE_OUTPUT, 0, 1, "tanh", "sum")] + [
            pack_node(i, NODE_TYPE_HIDDEN, 0, 1, "tanh", "sum") for i in (2, 3, 4)
        ]
        return nodes + [pack_connection(s, d, 1.0, True) for s, d in conns]

    @pytest.mark.parametrize("parents", [(0, 1), (1, 0)])
    def test_opposite_edge_in_other_parent_is_not_inherited(self, config, parents):
        # The fitter parent has 2->3; with every connection addition
        # taken, the PE stores source 3 at (3, 0) and pairs it with the
        # destination of (4, 2), minting 3->2, which closes 2->3->2.  The
        # less-fit parent carries 3->2 itself.
        fitter = self._parent([(-1, 4), (2, 3), (3, 0), (4, 2)])
        other = self._parent([(-1, 4), (3, 0), (3, 2), (4, 2)])
        buffer = GenomeBuffer()
        buffer.write_genome(0, fitter)
        buffer.set_fitness(0, 2.0)
        buffer.write_genome(1, other)
        buffer.set_fitness(1, 1.0)
        pe_cfg = PEConfig(
            crossover_bias=1.0, perturb_prob=0.0, node_delete_prob=0.0,
            conn_delete_prob=0.0, node_add_prob=0.0, conn_add_prob=1.0,
        )
        eve = EvolutionEngine(EvEConfig(num_pes=1, pe=pe_cfg))
        result = eve.reproduce_generation(
            buffer, [ReproductionEvent(10, parents[0], parents[1], 1)]
        )
        child = decode_genome(result.children[10], 10, config)
        assert (2, 3) in child.connections
        assert (3, 2) not in child.connections
        assert (-1, 3) in child.connections  # the acyclic addition stays
        assert not child.has_cycle()
        assert result.dropped_invalid_additions == 1
