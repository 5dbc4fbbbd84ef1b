"""Unit tests for repro.neat.genes."""

import random

import pytest

from repro.neat.config import GenomeConfig
from repro.neat.genes import ConnectionGene, NodeGene


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=2, num_outputs=1)


@pytest.fixture
def rng():
    return random.Random(7)


class TestNodeGene:
    def test_defaults(self):
        node = NodeGene(3)
        assert node.key == 3
        assert node.response == 1.0
        assert node.activation == "tanh"

    def test_rejects_tuple_key(self):
        with pytest.raises(TypeError):
            NodeGene((1, 2))

    def test_random_init_respects_bounds(self, config, rng):
        config.bias_init_stdev = 100.0
        for _ in range(50):
            node = NodeGene.random_init(5, config, rng)
            assert config.bias_min_value <= node.bias <= config.bias_max_value

    def test_copy_is_independent(self):
        node = NodeGene(1, bias=0.5)
        clone = node.copy()
        clone.bias = 9.9
        assert node.bias == 0.5

    def test_mutate_clamps(self, config, rng):
        config.bias_mutate_rate = 1.0
        config.bias_mutate_power = 100.0
        node = NodeGene(1)
        for _ in range(20):
            node.mutate(config, rng)
            assert config.bias_min_value <= node.bias <= config.bias_max_value

    def test_mutate_returns_count(self, config, rng):
        config.bias_mutate_rate = 1.0
        config.response_mutate_rate = 1.0
        node = NodeGene(1)
        assert node.mutate(config, rng) >= 2

    def test_mutate_zero_rates_changes_nothing(self, config, rng):
        for attr in ("bias", "response"):
            setattr(config, f"{attr}_mutate_rate", 0.0)
            setattr(config, f"{attr}_replace_rate", 0.0)
        config.activation_mutate_rate = 0.0
        config.aggregation_mutate_rate = 0.0
        node = NodeGene(1, bias=0.25, response=1.5)
        assert node.mutate(config, rng) == 0
        assert node.bias == 0.25 and node.response == 1.5

    def test_crossover_picks_from_parents(self, config, rng):
        a = NodeGene(1, bias=1.0, response=2.0)
        b = NodeGene(1, bias=-1.0, response=-2.0)
        child = a.crossover(b, rng)
        assert child.bias in (1.0, -1.0)
        assert child.response in (2.0, -2.0)

    def test_crossover_bias_one_keeps_parent_a(self, config, rng):
        a = NodeGene(1, bias=1.0, response=2.0)
        b = NodeGene(1, bias=-1.0, response=-2.0)
        child = a.crossover(b, rng, bias=1.0)
        assert child.bias == 1.0 and child.response == 2.0

    def test_crossover_key_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            NodeGene(1).crossover(NodeGene(2), rng)

    def test_distance_zero_for_identical(self, config):
        a = NodeGene(1, bias=0.3)
        assert a.distance(a.copy(), config) == 0.0

    def test_distance_counts_categorical(self, config):
        a = NodeGene(1, activation="tanh")
        b = NodeGene(1, activation="relu")
        assert a.distance(b, config) == pytest.approx(
            config.compatibility_weight_coefficient
        )

    def test_equality(self):
        assert NodeGene(1, bias=0.5) == NodeGene(1, bias=0.5)
        assert NodeGene(1, bias=0.5) != NodeGene(1, bias=0.6)


class TestConnectionGene:
    def test_key_properties(self):
        conn = ConnectionGene((-1, 0), weight=0.5)
        assert conn.source == -1
        assert conn.dest == 0

    def test_rejects_int_key(self):
        with pytest.raises(TypeError):
            ConnectionGene(5)

    def test_mutate_weight_clamps(self, config, rng):
        config.weight_mutate_rate = 1.0
        config.weight_mutate_power = 100.0
        conn = ConnectionGene((-1, 0))
        for _ in range(20):
            conn.mutate(config, rng)
            assert config.weight_min_value <= conn.weight <= config.weight_max_value

    def test_enabled_toggle(self, config, rng):
        config.weight_mutate_rate = 0.0
        config.weight_replace_rate = 0.0
        config.enabled_mutate_rate = 1.0
        conn = ConnectionGene((-1, 0), enabled=True)
        conn.mutate(config, rng)
        assert conn.enabled is False

    def test_crossover(self, rng):
        a = ConnectionGene((-1, 0), weight=1.0, enabled=True)
        b = ConnectionGene((-1, 0), weight=-1.0, enabled=False)
        child = a.crossover(b, rng)
        assert child.weight in (1.0, -1.0)
        assert child.key == (-1, 0)

    def test_distance(self, config):
        a = ConnectionGene((-1, 0), weight=1.0, enabled=True)
        b = ConnectionGene((-1, 0), weight=0.0, enabled=False)
        expected = (1.0 + 1.0) * config.compatibility_weight_coefficient
        assert a.distance(b, config) == pytest.approx(expected)
