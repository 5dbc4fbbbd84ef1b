"""Unit tests for gradient fine-tuning of evolved topologies."""

import math
import random

import pytest

from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.backprop import DifferentiableNetwork, UntrainableGenomeError
from repro.neat.network import FeedForwardNetwork


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=2, num_outputs=1)


def make_genome(config, hidden=3, seed=0):
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=config.num_outputs)
    genome = Genome(0)
    genome.configure_new(config, rng)
    for _ in range(hidden):
        genome.mutate_add_node(config, rng, innovations)
    for conn in genome.connections.values():
        conn.weight = rng.uniform(-1, 1)
    return genome


class TestForwardConsistency:
    def test_matches_feedforward_network(self, config):
        genome = make_genome(config)
        trainable = DifferentiableNetwork(genome, config)
        reference = FeedForwardNetwork.create(genome, config)
        for x in ([0.0, 0.0], [1.0, -1.0], [0.3, 0.7]):
            assert trainable.activate(x)[0] == pytest.approx(
                reference.activate(x)[0], abs=1e-12
            )

    def test_wrong_input_count(self, config):
        trainable = DifferentiableNetwork(make_genome(config), config)
        with pytest.raises(ValueError):
            trainable.activate([1.0])

    def test_unsupported_aggregation_rejected(self, config):
        genome = make_genome(config)
        genome.nodes[0].aggregation = "max"
        with pytest.raises(UntrainableGenomeError):
            DifferentiableNetwork(genome, config)

    def test_unsupported_activation_rejected(self, config):
        genome = make_genome(config)
        genome.nodes[0].activation = "sin"
        with pytest.raises(UntrainableGenomeError):
            DifferentiableNetwork(genome, config)


class TestGradients:
    def test_numerical_gradient_check(self, config):
        """Analytic dL/dw matches central finite differences."""
        genome = make_genome(config, hidden=2, seed=3)
        network = DifferentiableNetwork(genome, config)
        x = [0.4, -0.6]
        target = 0.25

        def loss_with(key, value):
            old = network.weights[key]
            network.weights[key] = value
            out = network.activate(x)[0]
            network.weights[key] = old
            return 0.5 * (out - target) ** 2

        out = network.activate(x)[0]
        weight_grads, bias_grads = network.gradients(x, [out - target])
        eps = 1e-6
        for key, analytic in weight_grads.items():
            w = network.weights[key]
            numeric = (loss_with(key, w + eps) - loss_with(key, w - eps)) / (2 * eps)
            assert analytic == pytest.approx(numeric, abs=1e-5)

    def test_bias_gradient_check(self, config):
        genome = make_genome(config, hidden=1, seed=4)
        network = DifferentiableNetwork(genome, config)
        x = [0.2, 0.9]
        target = -0.1
        out = network.activate(x)[0]
        _wg, bias_grads = network.gradients(x, [out - target])
        eps = 1e-6
        for node_id, analytic in bias_grads.items():
            b = network.biases[node_id]
            network.biases[node_id] = b + eps
            hi = 0.5 * (network.activate(x)[0] - target) ** 2
            network.biases[node_id] = b - eps
            lo = 0.5 * (network.activate(x)[0] - target) ** 2
            network.biases[node_id] = b
            assert analytic == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)


class TestTraining:
    def test_loss_decreases(self, config):
        genome = make_genome(config, hidden=3, seed=5)
        samples = [
            ([a, b], [math.tanh(0.8 * a - 0.4 * b)])
            for a in (-1.0, -0.5, 0.0, 0.5, 1.0)
            for b in (-1.0, 0.0, 1.0)
        ]
        result = DifferentiableNetwork(genome, config).train(
            samples, epochs=150, learning_rate=0.2
        )
        assert result.final_loss < 0.25 * result.initial_loss

    def test_write_back_updates_genome(self, config):
        genome = make_genome(config, hidden=1, seed=6)
        before = {k: c.weight for k, c in genome.connections.items()}
        samples = [([1.0, 1.0], [0.9])]
        network = DifferentiableNetwork(genome, config)
        network.train(samples, epochs=30, learning_rate=0.3)
        network.write_back()
        after = {k: c.weight for k, c in genome.connections.items()}
        assert any(abs(after[k] - before[k]) > 1e-6
                   for k in before if genome.connections[k].enabled)

    def test_trained_genome_still_hardware_encodable(self, config):
        """The hybrid loop: evolve -> SGD tune -> back to the hardware path."""
        from repro.hw import encode_genome, decode_genome

        genome = make_genome(config, hidden=2, seed=7)
        network = DifferentiableNetwork(genome, config)
        network.train([([0.5, 0.5], [0.1])], epochs=20)
        network.write_back()
        genome.validate(config)
        decoded = decode_genome(encode_genome(genome, config), 0, config)
        decoded.validate(config)

    def test_weights_clipped(self, config):
        genome = make_genome(config, hidden=0, seed=8)
        network = DifferentiableNetwork(genome, config)
        network.train([([1.0, 1.0], [100.0])], epochs=500, learning_rate=5.0)
        assert all(abs(w) <= 8.0 for w in network.weights.values())

    def test_topology_unchanged_by_training(self, config):
        genome = make_genome(config, hidden=2, seed=9)
        keys_before = (set(genome.nodes), set(genome.connections))
        network = DifferentiableNetwork(genome, config)
        network.train([([0.1, 0.2], [0.3])], epochs=10)
        network.write_back()
        assert (set(genome.nodes), set(genome.connections)) == keys_before
