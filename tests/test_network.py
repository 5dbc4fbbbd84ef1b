"""Unit tests for repro.neat.network."""

import math
import random

import pytest

from repro.neat.config import GenomeConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.network import (
    FeedForwardNetwork,
    feed_forward_layers,
    required_for_output,
)


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=2, num_outputs=1)


def build_genome(config, connections, nodes=None):
    g = Genome(0)
    for key in config.output_keys:
        g.nodes[key] = NodeGene(key)
    for node in nodes or []:
        g.nodes[node.key] = node
    for key, weight in connections.items():
        g.connections[key] = ConnectionGene(key, weight=weight)
    return g


class TestRequiredForOutput:
    def test_direct(self):
        req = required_for_output([-1], [0], [(-1, 0)])
        assert req == {0}

    def test_chain(self):
        req = required_for_output([-1], [0], [(-1, 5), (5, 0)])
        assert req == {0, 5}

    def test_dead_branch_excluded(self):
        req = required_for_output([-1], [0], [(-1, 0), (-1, 9)])
        assert 9 not in req


class TestFeedForwardLayers:
    def test_single_layer(self):
        layers = feed_forward_layers([-1, -2], [0], [(-1, 0), (-2, 0)])
        assert layers == [[0]]

    def test_two_layers(self):
        layers = feed_forward_layers([-1], [0], [(-1, 5), (5, 0)])
        assert layers == [[5], [0]]

    def test_diamond(self):
        conns = [(-1, 1), (-1, 2), (1, 0), (2, 0)]
        layers = feed_forward_layers([-1], [0], conns)
        assert layers == [[1, 2], [0]]

    def test_cycle_raises(self):
        with pytest.raises(ValueError):
            feed_forward_layers([-1], [0], [(-1, 0), (0, 5), (5, 0)])

    def test_unconnected_output_still_layered(self):
        layers = feed_forward_layers([-1], [0], [])
        assert layers == [[0]]


class TestFeedForwardNetwork:
    def test_identity_passthrough(self, config):
        g = build_genome(config, {(-1, 0): 1.0, (-2, 0): 0.0})
        g.nodes[0].activation = "identity"
        net = FeedForwardNetwork.create(g, config)
        assert net.activate([0.7, 5.0])[0] == pytest.approx(0.7)

    def test_bias_and_response(self, config):
        g = build_genome(config, {(-1, 0): 2.0})
        g.nodes[0].activation = "identity"
        g.nodes[0].bias = 1.0
        g.nodes[0].response = 3.0
        net = FeedForwardNetwork.create(g, config)
        # 1.0 + 3.0 * (2.0 * 0.5) = 4.0
        assert net.activate([0.5, 0.0])[0] == pytest.approx(4.0)

    def test_tanh_activation_applied(self, config):
        g = build_genome(config, {(-1, 0): 1.0})
        net = FeedForwardNetwork.create(g, config)
        expected = math.tanh(2.5 * 1.0)
        assert net.activate([1.0, 0.0])[0] == pytest.approx(expected)

    def test_disabled_connection_ignored(self, config):
        g = build_genome(config, {(-1, 0): 5.0})
        g.connections[(-1, 0)].enabled = False
        g.nodes[0].activation = "identity"
        net = FeedForwardNetwork.create(g, config)
        assert net.activate([1.0, 1.0])[0] == pytest.approx(0.0)

    def test_hidden_layer_chain(self, config):
        hidden = NodeGene(5, activation="identity")
        g = build_genome(
            config, {(-1, 5): 2.0, (5, 0): 3.0}, nodes=[hidden]
        )
        g.nodes[0].activation = "identity"
        net = FeedForwardNetwork.create(g, config)
        assert net.activate([1.0, 0.0])[0] == pytest.approx(6.0)

    def test_wrong_input_count_raises(self, config):
        g = build_genome(config, {(-1, 0): 1.0})
        net = FeedForwardNetwork.create(g, config)
        with pytest.raises(ValueError):
            net.activate([1.0])

    def test_num_macs(self, config):
        g = build_genome(config, {(-1, 0): 1.0, (-2, 0): 1.0})
        net = FeedForwardNetwork.create(g, config)
        assert net.num_macs == 2

    def test_max_aggregation(self, config):
        g = build_genome(config, {(-1, 0): 1.0, (-2, 0): 1.0})
        g.nodes[0].activation = "identity"
        g.nodes[0].aggregation = "max"
        net = FeedForwardNetwork.create(g, config)
        assert net.activate([0.2, 0.9])[0] == pytest.approx(0.9)

    def test_reset_clears_values(self, config):
        g = build_genome(config, {(-1, 0): 1.0})
        net = FeedForwardNetwork.create(g, config)
        net.activate([1.0, 1.0])
        net.reset()
        assert all(v == 0.0 for v in net.values)

    def test_evolved_genome_runs(self, config):
        rng = random.Random(3)
        innovations = InnovationTracker(next_node_id=1)
        g = Genome(0)
        g.configure_new(config, rng)
        for _ in range(40):
            g.mutate(config, rng, innovations)
        net = FeedForwardNetwork.create(g, config)
        out = net.activate([0.5, -0.5])
        assert len(out) == 1
        assert math.isfinite(out[0])
