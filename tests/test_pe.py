"""Unit tests for the EvE Processing Element (Fig. 7 pipeline)."""

import pytest

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
    ProcessingElement,
)


def make_pe(seed=0, **config_kwargs):
    pe = ProcessingElement(pe_index=0, seed=seed)
    config = PEConfig(**config_kwargs)
    pe.begin_child(config, fitness1=2.0, fitness2=1.0)
    return pe


def node(node_id, bias=0.0, node_type=NODE_TYPE_HIDDEN):
    return pack_node(node_id, node_type, bias, 1.0, "tanh", "sum")


def conn(src, dst, weight=1.0, enabled=True):
    return pack_connection(src, dst, weight, enabled)


class TestConfigLoad:
    def test_two_cycle_config(self):
        pe = make_pe()
        assert pe.cycles == CONFIG_LOAD_CYCLES

    def test_drain_adds_pipeline_depth(self):
        pe = make_pe()
        total = pe.finish_child()
        assert total == CONFIG_LOAD_CYCLES + PIPELINE_DEPTH

    def test_one_gene_per_cycle(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        for i in range(5):
            pe.process_pair(node(i), None)
        assert pe.cycles == CONFIG_LOAD_CYCLES + 5

    def test_threshold_mapping(self):
        config = PEConfig()
        assert config.threshold(0.0) == 0
        assert config.threshold(1.0) == 256
        assert config.threshold(0.5) == 128


class TestCrossoverStage:
    def test_disjoint_gene_passes_through(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        gene = node(3, bias=1.5)
        out = pe.process_pair(gene, None)
        assert out == [gene]
        assert pe.stats.crossovers == 0

    def test_homologous_attributes_from_either_parent(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        g1 = node(3, bias=1.0)
        g2 = node(3, bias=-1.0)
        out = pe.process_pair(g1, g2)
        assert len(out) == 1
        assert out[0].bias in (1.0, -1.0)
        assert pe.stats.crossovers == 1

    def test_bias_one_always_parent1(self):
        pe = make_pe(crossover_bias=1.0, perturb_prob=0.0, node_delete_prob=0.0,
                     conn_delete_prob=0.0, node_add_prob=0.0, conn_add_prob=0.0)
        for i in range(10):
            out = pe.process_pair(conn(-1, i, weight=2.0), conn(-1, i, weight=-2.0))
            assert out[0].weight == 2.0

    def test_bias_zero_always_parent2(self):
        pe = make_pe(crossover_bias=0.0, perturb_prob=0.0, node_delete_prob=0.0,
                     conn_delete_prob=0.0, node_add_prob=0.0, conn_add_prob=0.0)
        for i in range(10):
            out = pe.process_pair(conn(-1, i, weight=2.0), conn(-1, i, weight=-2.0))
            assert out[0].weight == -2.0

    def test_misaligned_pair_raises(self):
        pe = make_pe()
        with pytest.raises(ValueError, match="misalignment"):
            pe.process_pair(node(1), node(2))

    def test_node_paired_with_connection_raises(self):
        # the connection's source equals the node's id: the key bits
        # agree, the gene types do not
        pe = make_pe()
        with pytest.raises(ValueError, match="misalignment"):
            pe.process_pair(node(3), conn(3, 5))
        with pytest.raises(ValueError, match="misalignment"):
            pe.process_pair(conn(3, 5), node(3))

    def test_missing_gene1_raises(self):
        pe = make_pe()
        with pytest.raises(ValueError):
            pe.process_pair(None, node(1))


class TestPerturbationStage:
    def test_prob_one_perturbs(self):
        pe = make_pe(perturb_prob=1.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        changed = 0
        for i in range(50):
            out = pe.process_pair(conn(-1, i, weight=0.0), None)
            if out and out[0].weight != 0.0:
                changed += 1
        assert changed > 10
        assert pe.stats.perturbations > 0

    def test_prob_zero_never_perturbs(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        for i in range(50):
            out = pe.process_pair(conn(-1, i, weight=0.5), None)
            assert out[0].weight == 0.5
        assert pe.stats.perturbations == 0

    def test_values_stay_in_q44_range(self):
        pe = make_pe(perturb_prob=1.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        for i in range(100):
            out = pe.process_pair(conn(-1, i, weight=7.9), None)
            for g in out:
                assert -8.0 <= g.weight <= 7.9375


class TestDeleteStage:
    def test_node_delete_prunes_connections(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=1.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0, max_node_deletions=1)
        out_node = pe.process_pair(node(5), None)
        assert out_node == []  # deleted
        assert pe.stats.node_deletions == 1
        # connections touching node 5 must be pruned
        out_conn = pe.process_pair(conn(-1, 5), None)
        assert out_conn == []
        assert pe.stats.dangling_prunes == 1

    def test_deletion_threshold_keeps_genome_alive(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=1.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0, max_node_deletions=2)
        deleted = 0
        for i in range(10):
            if pe.process_pair(node(i), None) == []:
                deleted += 1
        assert deleted == 2  # stops at the threshold

    def test_output_nodes_never_deleted(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=1.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        out = pe.process_pair(node(0, node_type=NODE_TYPE_OUTPUT), None)
        assert len(out) == 1

    def test_connection_delete(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=1.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        out = pe.process_pair(conn(-1, 0), None)
        assert out == []
        assert pe.stats.conn_deletions == 1


class TestAddStage:
    def test_node_addition_splits_connection(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=1.0, conn_add_prob=0.0)
        pe.process_pair(node(0, node_type=NODE_TYPE_OUTPUT), None)
        pe.process_pair(node(7), None)
        out = pe.process_pair(conn(-1, 0, weight=0.5), None)
        # node + upstream + downstream, original dropped
        assert len(out) == 3
        new_node = out[0]
        assert new_node.is_node
        assert new_node.node_id == 8  # max existing id + 1
        upstream, downstream = out[1], out[2]
        assert (upstream.source, upstream.dest) == (-1, 8)
        assert (downstream.source, downstream.dest) == (8, 0)
        assert downstream.weight == 0.5
        assert pe.stats.node_additions == 1

    def test_two_cycle_connection_addition(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=1.0)
        pe.process_pair(node(0, node_type=NODE_TYPE_OUTPUT), None)
        pe.process_pair(node(5), None)
        out1 = pe.process_pair(conn(-1, 5), None)
        assert len(out1) == 1  # source stored, nothing added yet
        out2 = pe.process_pair(conn(5, 0), None)
        # next connection pairs the stored source with its destination
        assert len(out2) == 2
        added = out2[1]
        assert (added.source, added.dest) == (-1, 0)
        assert pe.stats.conn_additions == 1

    def test_stored_source_must_be_input_or_seen_node(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=1.0)
        pe.process_pair(conn(0, 1), None)  # stores source 0, never seen as a node
        assert len(pe.process_pair(conn(2, 3), None)) == 1
        pe.process_pair(conn(-1, 1), None)  # inputs are always valid sources
        out = pe.process_pair(conn(2, 3), None)
        assert [(g.source, g.dest) for g in out] == [(2, 3), (-1, 3)]

    def test_no_self_connection_added(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=1.0)
        pe.process_pair(node(0, node_type=NODE_TYPE_OUTPUT), None)
        pe.process_pair(conn(0, 0), None)  # degenerate incoming
        out = pe.process_pair(conn(-1, 0), None)
        for g in out[1:]:
            assert g.source != g.dest


class TestStats:
    def test_genes_in_out_counted(self):
        pe = make_pe(perturb_prob=0.0, node_delete_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        pe.process_pair(node(1), node(1))
        pe.process_pair(node(2), None)
        assert pe.stats.genes_in == 3
        assert pe.stats.genes_out == 2

    def test_begin_child_resets_state(self):
        pe = make_pe(node_delete_prob=1.0, perturb_prob=0.0, conn_delete_prob=0.0,
                     node_add_prob=0.0, conn_add_prob=0.0)
        pe.process_pair(node(5), None)  # deletes node 5
        pe.begin_child(PEConfig(node_delete_prob=0.0), 1.0, 1.0)
        out = pe.process_pair(conn(-1, 5), None)
        assert len(out) == 1  # deletion memory cleared

    def test_determinism_per_seed(self):
        results = []
        for _ in range(2):
            pe = make_pe(seed=9, perturb_prob=0.5)
            words = []
            for i in range(20):
                for g in pe.process_pair(conn(-1, i, weight=1.0), None):
                    words.append(g.word)
            results.append(words)
        assert results[0] == results[1]
