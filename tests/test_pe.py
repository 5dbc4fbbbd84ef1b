"""Unit tests for the EvE Processing Elements (Fig. 7 pipeline), one lane."""

import numpy as np
import pytest
from eve_reference import PackedGene

from repro.hw.gene_encoding import (
    NODE_TYPE_HIDDEN,
    NODE_TYPE_OUTPUT,
    pack_connection,
    pack_node,
)
from repro.hw.pe import (
    CONFIG_LOAD_CYCLES,
    PIPELINE_DEPTH,
    PEConfig,
    PEStats,
    ProcessingElement,
)


def begin(pe, pairs, **config_kwargs):
    """Configuration load on PE 0 for a child streaming ``pairs``."""
    words = np.zeros((2, 1, len(pairs)), dtype=np.uint64)
    present = np.zeros((2, 1, len(pairs)), dtype=bool)
    for i, (gene1, gene2) in enumerate(pairs):
        for side, gene in enumerate((gene1, gene2)):
            if gene is not None:
                words[side, 0, i], present[side, 0, i] = gene.word, True
    pe.begin_child(PEConfig(**config_kwargs), words[0], words[1], present[1], present[0])


def stream(pe, pairs, **config_kwargs):
    """Stream ``pairs`` through PE 0 as one child; returns the child genes
    of each pair, seen through the oracle's field view, or raises the
    pair's error as the engine does."""
    begin(pe, pairs, **config_kwargs)
    emitted = []
    for _ in pairs:
        before = pe.counts[0, 1]
        failed = pe.process_pair()
        if failed:
            pe.finish_child()
            raise failed[0]
        emitted.append(pe.counts[0, 1] - before)
    _cycles, (words,) = pe.finish_child()
    genes = [PackedGene(word) for word in words]
    ends = np.cumsum(emitted).tolist()
    return [genes[end - count : end] for count, end in zip(emitted, ends)]


def make_pe(seed=0):
    return ProcessingElement(1, seed=seed)


def stats(pe):
    return PEStats(*pe.counts[0].tolist())


def node(node_id, bias=0.0, node_type=NODE_TYPE_HIDDEN):
    return PackedGene(pack_node(node_id, node_type, bias, 1.0, "tanh", "sum"))


def conn(src, dst, weight=1.0, enabled=True):
    return PackedGene(pack_connection(src, dst, weight, enabled))


QUIET = dict(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
             node_add_prob=0.0, conn_add_prob=0.0)


class TestConfigLoad:
    def test_two_cycle_config(self):
        pe = make_pe()
        begin(pe, [])
        assert pe.cycles[0] == CONFIG_LOAD_CYCLES

    def test_drain_adds_pipeline_depth(self):
        pe = make_pe()
        begin(pe, [])
        cycles, _words = pe.finish_child()
        assert cycles.tolist() == [CONFIG_LOAD_CYCLES + PIPELINE_DEPTH]

    def test_one_gene_per_cycle(self):
        pe = make_pe()
        begin(pe, [(node(i), None) for i in range(5)], **QUIET)
        for _ in range(5):
            pe.process_pair()
        assert pe.cycles[0] == CONFIG_LOAD_CYCLES + 5

    def test_threshold_mapping(self):
        config = PEConfig()
        assert config.threshold(0.0) == 0
        assert config.threshold(1.0) == 256
        assert config.threshold(0.5) == 128


class TestCrossoverStage:
    def test_disjoint_gene_passes_through(self):
        pe = make_pe()
        gene = node(3, bias=1.5)
        assert stream(pe, [(gene, None)], **QUIET) == [[gene]]
        assert stats(pe).crossovers == 0

    def test_homologous_attributes_from_either_parent(self):
        pe = make_pe()
        g1 = node(3, bias=1.0)
        g2 = node(3, bias=-1.0)
        (out,) = stream(pe, [(g1, g2)], **QUIET)
        assert len(out) == 1
        assert out[0].bias in (1.0, -1.0)
        assert stats(pe).crossovers == 1

    def test_bias_one_always_parent1(self):
        pe = make_pe()
        pairs = [(conn(-1, i, weight=2.0), conn(-1, i, weight=-2.0)) for i in range(10)]
        for out in stream(pe, pairs, crossover_bias=1.0, **QUIET):
            assert out[0].weight == 2.0

    def test_bias_zero_always_parent2(self):
        pe = make_pe()
        pairs = [(conn(-1, i, weight=2.0), conn(-1, i, weight=-2.0)) for i in range(10)]
        for out in stream(pe, pairs, crossover_bias=0.0, **QUIET):
            assert out[0].weight == -2.0

    def test_misaligned_pair_raises(self):
        pe = make_pe()
        with pytest.raises(ValueError, match="misalignment"):
            stream(pe, [(node(1), node(2))])

    def test_node_paired_with_connection_raises(self):
        # the connection's source equals the node's id: the key bits
        # agree, the gene types do not
        pe = make_pe()
        with pytest.raises(ValueError, match="misalignment"):
            stream(pe, [(node(3), conn(3, 5))])
        with pytest.raises(ValueError, match="misalignment"):
            stream(pe, [(conn(3, 5), node(3))])

    def test_missing_gene1_idles_the_lane(self):
        # A cycle without a fitter-parent gene: no cycle, byte or gene.
        pe, idle = make_pe(), make_pe()
        begin(pe, [(None, node(1)), (node(2), None)])
        begin(idle, [(node(2), None)])
        pe.process_pair()
        assert pe.cycles[0] == CONFIG_LOAD_CYCLES and not pe.counts.any()
        pe.process_pair()
        idle.process_pair()
        assert pe.finish_child()[1] == idle.finish_child()[1]


class TestPerturbationStage:
    def test_prob_one_perturbs(self):
        pe = make_pe()
        pairs = [(conn(-1, i, weight=0.0), None) for i in range(50)]
        outs = stream(pe, pairs, **dict(QUIET, perturb_prob=1.0))
        changed = sum(1 for out in outs if out and out[0].weight != 0.0)
        assert changed > 10
        assert stats(pe).perturbations > 0

    def test_prob_zero_never_perturbs(self):
        pe = make_pe()
        pairs = [(conn(-1, i, weight=0.5), None) for i in range(50)]
        for out in stream(pe, pairs, **QUIET):
            assert out[0].weight == 0.5
        assert stats(pe).perturbations == 0

    def test_values_stay_in_q44_range(self):
        pe = make_pe()
        pairs = [(conn(-1, i, weight=7.9), None) for i in range(100)]
        for out in stream(pe, pairs, **dict(QUIET, perturb_prob=1.0)):
            for g in out:
                assert -8.0 <= g.weight <= 7.9375


class TestDeleteStage:
    def test_node_delete_prunes_connections(self):
        pe = make_pe()
        out_node, out_conn = stream(
            pe, [(node(5), None), (conn(-1, 5), None)],
            **dict(QUIET, node_delete_prob=1.0, max_node_deletions=1),
        )
        assert out_node == []  # deleted
        assert stats(pe).node_deletions == 1
        # connections touching node 5 must be pruned
        assert out_conn == []
        assert stats(pe).dangling_prunes == 1

    def test_deletion_threshold_keeps_genome_alive(self):
        pe = make_pe()
        outs = stream(pe, [(node(i), None) for i in range(10)],
                      **dict(QUIET, node_delete_prob=1.0, max_node_deletions=2))
        assert outs.count([]) == 2  # stops at the threshold

    def test_output_nodes_never_deleted(self):
        pe = make_pe()
        (out,) = stream(pe, [(node(0, node_type=NODE_TYPE_OUTPUT), None)],
                        **dict(QUIET, node_delete_prob=1.0))
        assert len(out) == 1

    def test_connection_delete(self):
        pe = make_pe()
        (out,) = stream(pe, [(conn(-1, 0), None)], **dict(QUIET, conn_delete_prob=1.0))
        assert out == []
        assert stats(pe).conn_deletions == 1


class TestAddStage:
    def test_node_addition_splits_connection(self):
        pe = make_pe()
        *_, out = stream(pe, [
            (node(0, node_type=NODE_TYPE_OUTPUT), None),
            (node(7), None),
            (conn(-1, 0, weight=0.5), None),
        ], **dict(QUIET, node_add_prob=1.0))
        # node + upstream + downstream, original dropped
        assert len(out) == 3
        new_node = out[0]
        assert new_node.is_node
        assert new_node.node_id == 8  # max existing id + 1
        upstream, downstream = out[1], out[2]
        assert (upstream.source, upstream.dest) == (-1, 8)
        assert (downstream.source, downstream.dest) == (8, 0)
        assert downstream.weight == 0.5
        assert stats(pe).node_additions == 1

    def test_two_cycle_connection_addition(self):
        pe = make_pe()
        *_, out1, out2 = stream(pe, [
            (node(0, node_type=NODE_TYPE_OUTPUT), None),
            (node(5), None),
            (conn(-1, 5), None),
            (conn(5, 0), None),
        ], **dict(QUIET, conn_add_prob=1.0))
        assert len(out1) == 1  # source stored, nothing added yet
        # next connection pairs the stored source with its destination
        assert len(out2) == 2
        added = out2[1]
        assert (added.source, added.dest) == (-1, 0)
        assert stats(pe).conn_additions == 1

    def test_stored_source_must_be_input_or_seen_node(self):
        pe = make_pe()
        outs = stream(pe, [
            (conn(0, 1), None),  # stores source 0, never seen as a node
            (conn(2, 3), None),
            (conn(-1, 1), None),  # inputs are always valid sources
            (conn(2, 3), None),
        ], **dict(QUIET, conn_add_prob=1.0))
        assert len(outs[1]) == 1
        assert [(g.source, g.dest) for g in outs[3]] == [(2, 3), (-1, 3)]

    def test_no_self_connection_added(self):
        pe = make_pe()
        *_, out = stream(pe, [
            (node(0, node_type=NODE_TYPE_OUTPUT), None),
            (conn(0, 0), None),  # degenerate incoming
            (conn(-1, 0), None),
        ], **dict(QUIET, conn_add_prob=1.0))
        for g in out[1:]:
            assert g.source != g.dest


class TestStats:
    def test_genes_in_out_counted(self):
        pe = make_pe()
        stream(pe, [(node(1), node(1)), (node(2), None)], **QUIET)
        assert stats(pe).genes_in == 3
        assert stats(pe).genes_out == 2

    def test_begin_child_resets_state(self):
        pe = make_pe()
        stream(pe, [(node(5), None)], **dict(QUIET, node_delete_prob=1.0))  # deletes node 5
        (out,) = stream(pe, [(conn(-1, 5), None)], node_delete_prob=0.0)
        assert len(out) == 1  # deletion memory cleared

    def test_determinism_per_seed(self):
        results = []
        for _ in range(2):
            pe = make_pe(seed=9)
            outs = stream(pe, [(conn(-1, i, weight=1.0), None) for i in range(20)],
                          perturb_prob=0.5)
            results.append([g.word for out in outs for g in out])
        assert results[0] == results[1]
