"""Unit tests for repro.neat.genome."""

import random

import pytest

from repro.neat.config import GenomeConfig
from repro.neat.genome import Genome, MutationCounts, creates_cycle
from repro.neat.innovation import InnovationTracker


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=3, num_outputs=2)


@pytest.fixture
def rng():
    return random.Random(99)


@pytest.fixture
def innovations():
    return InnovationTracker(next_node_id=2)


@pytest.fixture
def genome(config, rng):
    g = Genome(0)
    g.configure_new(config, rng)
    return g


class TestCreatesCycle:
    def test_self_loop(self):
        assert creates_cycle([], (1, 1))

    def test_simple_cycle(self):
        assert creates_cycle([(1, 2), (2, 3)], (3, 1))

    def test_no_cycle(self):
        assert not creates_cycle([(1, 2), (2, 3)], (1, 3))

    def test_diamond_is_acyclic(self):
        edges = [(1, 2), (1, 3), (2, 4), (3, 4)]
        assert not creates_cycle(edges, (1, 4))

    def test_back_edge(self):
        assert creates_cycle([(1, 2), (2, 3), (3, 4)], (4, 2))


class TestInitialTopology:
    def test_matches_paper_minimal_topology(self, genome, config):
        # Section III-B: inputs fully connected to outputs, zero weights.
        assert set(genome.nodes) == {0, 1}
        assert len(genome.connections) == 3 * 2
        assert all(c.weight == 0.0 for c in genome.connections.values())
        assert all(c.enabled for c in genome.connections.values())

    def test_initial_none_connection(self, config, rng):
        config.initial_connection = "none"
        g = Genome(1)
        g.configure_new(config, rng)
        assert not g.connections
        assert len(g.nodes) == 2

    def test_initial_random_weights(self, config, rng):
        config.initial_weight = None
        g = Genome(1)
        g.configure_new(config, rng)
        assert any(c.weight != 0.0 for c in g.connections.values())

    def test_validate_passes(self, genome, config):
        genome.validate(config)


class TestStructuralMutations:
    def test_add_node_splits_connection(self, genome, config, rng, innovations):
        before_conns = len(genome.connections)
        new_id = genome.mutate_add_node(config, rng, innovations)
        assert new_id is not None
        assert new_id in genome.nodes
        # one disabled + two added
        assert len(genome.connections) == before_conns + 2
        disabled = [c for c in genome.connections.values() if not c.enabled]
        assert len(disabled) == 1
        src, dst = disabled[0].key
        assert (src, new_id) in genome.connections
        assert (new_id, dst) in genome.connections
        genome.validate(config)

    def test_add_node_weight_inheritance(self, genome, config, rng, innovations):
        # New upstream connection gets weight 1.0, downstream inherits.
        for conn in genome.connections.values():
            conn.weight = 0.75
        new_id = genome.mutate_add_node(config, rng, innovations)
        up = [c for k, c in genome.connections.items() if k[1] == new_id]
        down = [c for k, c in genome.connections.items() if k[0] == new_id]
        assert up[0].weight == 1.0
        assert down[0].weight == 0.75

    def test_add_node_counts(self, genome, config, rng, innovations):
        counts = MutationCounts()
        genome.mutate_add_node(config, rng, innovations, counts)
        assert counts.node_additions == 1

    def test_delete_node_prunes_danglers(self, genome, config, rng, innovations):
        new_id = genome.mutate_add_node(config, rng, innovations)
        # force delete of the hidden node specifically
        victim = None
        while victim != new_id:
            g = genome.copy()
            victim = g.mutate_delete_node(config, rng)
            if victim == new_id:
                assert all(new_id not in key for key in g.connections)
                g.validate(config)
                return
        pytest.fail("never deleted the hidden node")

    def test_delete_node_never_removes_outputs(self, genome, config, rng):
        # only outputs exist -> nothing deletable? outputs are protected but
        # hidden nodes don't exist yet, so candidates = empty.
        assert genome.mutate_delete_node(config, rng) is None
        assert set(genome.nodes) == {0, 1}

    def test_add_connection_is_acyclic(self, config, rng, innovations):
        g = Genome(0)
        g.configure_new(config, rng)
        for _ in range(30):
            g.mutate_add_node(config, rng, innovations)
            g.mutate_add_connection(config, rng)
            assert not g.has_cycle()

    def test_add_connection_no_input_dest(self, genome, config, rng):
        for _ in range(50):
            key = genome.mutate_add_connection(config, rng)
            if key is not None:
                assert key[1] >= 0

    def test_add_connection_reenables_disabled(self, genome, config, rng):
        conn = next(iter(genome.connections.values()))
        conn.enabled = False
        for _ in range(200):
            key = genome.mutate_add_connection(config, rng)
            if key == conn.key:
                assert genome.connections[key].enabled
                return
        pytest.fail("never re-enabled the disabled connection")

    def test_delete_connection(self, genome, config, rng):
        counts = MutationCounts()
        before = len(genome.connections)
        key = genome.mutate_delete_connection(rng, counts)
        assert key is not None
        assert len(genome.connections) == before - 1
        assert counts.conn_deletions == 1

    def test_delete_connection_empty(self, config, rng):
        g = Genome(0)
        config2 = GenomeConfig(num_inputs=1, num_outputs=1, initial_connection="none")
        g.configure_new(config2, rng)
        assert g.mutate_delete_connection(rng) is None


class TestMutate:
    def test_mutate_preserves_validity(self, genome, config, rng, innovations):
        for _ in range(100):
            genome.mutate(config, rng, innovations)
        genome.validate(config)

    def test_mutate_counts_accumulate(self, genome, config, rng, innovations):
        config.weight_mutate_rate = 1.0
        counts = genome.mutate(config, rng, innovations)
        assert counts.perturbations > 0
        assert counts.total == counts.crossovers + counts.mutations

    def test_single_structural_mode(self, genome, config, rng, innovations):
        config.single_structural_mutation = True
        counts = MutationCounts()
        for _ in range(20):
            genome.mutate(config, rng, innovations, counts)
        structural = (
            counts.node_additions
            + counts.node_deletions
            + counts.conn_additions
            + counts.conn_deletions
        )
        # at most one structural mutation per call (deletion cascades count
        # extra conn deletions, so compare against a generous bound)
        assert structural <= 20 + counts.node_deletions * len(genome.connections)


class TestCrossover:
    def test_fitter_parent_dominates_structure(self, config, rng, innovations):
        p1 = Genome(1)
        p1.configure_new(config, rng)
        for _ in range(10):
            p1.mutate_add_node(config, rng, innovations)
        p2 = Genome(2)
        p2.configure_new(config, rng)
        p1.fitness, p2.fitness = 10.0, 1.0
        child = Genome.crossover(3, p1, p2, config, rng)
        assert set(child.nodes) == set(p1.nodes)
        assert set(child.connections) == set(p1.connections)

    def test_parent_order_does_not_matter(self, config, rng, innovations):
        p1 = Genome(1)
        p1.configure_new(config, rng)
        for _ in range(5):
            p1.mutate_add_node(config, rng, innovations)
        p2 = Genome(2)
        p2.configure_new(config, rng)
        p1.fitness, p2.fitness = 10.0, 1.0
        child_a = Genome.crossover(3, p1, p2, config, rng)
        child_b = Genome.crossover(4, p2, p1, config, rng)
        assert set(child_a.nodes) == set(child_b.nodes)

    def test_crossover_counts_homologous_genes(self, config, rng):
        p1 = Genome(1)
        p1.configure_new(config, rng)
        p2 = Genome(2)
        p2.configure_new(config, rng)
        p1.fitness = p2.fitness = 1.0
        counts = MutationCounts()
        Genome.crossover(3, p1, p2, config, rng, counts)
        # 2 output nodes + 6 connections are homologous
        assert counts.crossovers == 8

    def test_child_is_valid(self, config, rng, innovations):
        p1 = Genome(1)
        p1.configure_new(config, rng)
        p2 = Genome(2)
        p2.configure_new(config, rng)
        for _ in range(20):
            p1.mutate(config, rng, innovations)
            p2.mutate(config, rng, innovations)
        p1.fitness, p2.fitness = 3.0, 2.0
        child = Genome.crossover(3, p1, p2, config, rng)
        child.validate(config)


class TestDistance:
    def test_zero_for_clones(self, genome, config):
        assert genome.distance(genome.copy(), config) == 0.0

    def test_symmetric(self, config, rng, innovations):
        p1 = Genome(1)
        p1.configure_new(config, rng)
        p2 = p1.copy(2)
        for _ in range(10):
            p2.mutate(config, rng, innovations)
        assert p1.distance(p2, config) == pytest.approx(p2.distance(p1, config))

    def test_grows_with_disjoint_genes(self, config, rng, innovations):
        p1 = Genome(1)
        p1.configure_new(config, rng)
        p2 = p1.copy(2)
        d0 = p1.distance(p2, config)
        for _ in range(5):
            p2.mutate_add_node(config, rng, innovations)
        assert p1.distance(p2, config) > d0


class TestIntrospection:
    def test_size(self, genome):
        enabled, nodes = genome.size()
        assert enabled == 6
        assert nodes == 2

    def test_num_genes(self, genome):
        assert genome.num_genes == 8

    def test_validate_catches_dangling(self, genome, config):
        from repro.neat.genes import ConnectionGene

        genome.connections[(77, 0)] = ConnectionGene((77, 0))
        with pytest.raises(ValueError, match="dangling"):
            genome.validate(config)

    def test_validate_catches_missing_output(self, genome, config):
        del genome.nodes[0]
        with pytest.raises(ValueError, match="output"):
            genome.validate(config)

    def test_copy_with_new_key(self, genome):
        clone = genome.copy(42)
        assert clone.key == 42
        assert set(clone.connections) == set(genome.connections)
