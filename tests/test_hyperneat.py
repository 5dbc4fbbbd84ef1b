"""Unit tests for the HyperNEAT/CPPN indirect encoding."""

import random

import pytest

from repro.neat import Genome, InnovationTracker, Population
from repro.neat.hyperneat import (
    HyperNEATDecoder,
    Substrate,
    cppn_config,
    evolve_hyperneat,
)
from repro.neat.network import FeedForwardNetwork


@pytest.fixture
def substrate():
    return Substrate.grid(4, 2, num_hidden=3)


@pytest.fixture
def cppn_setup():
    config = cppn_config(pop_size=10)
    rng = random.Random(0)
    innovations = InnovationTracker(next_node_id=1)
    genome = Genome(0)
    genome.configure_new(config.genome, rng)
    for _ in range(8):
        genome.mutate(config.genome, rng, innovations)
    return config, genome


class TestSubstrate:
    def test_grid_layout(self, substrate):
        assert len(substrate.inputs) == 4
        assert len(substrate.outputs) == 2
        assert len(substrate.hidden) == 3
        assert all(n.y == -1.0 for n in substrate.inputs)
        assert all(n.y == 1.0 for n in substrate.outputs)
        assert all(n.y == 0.0 for n in substrate.hidden)

    def test_node_ids_follow_convention(self, substrate):
        assert [n.node_id for n in substrate.inputs] == [-1, -2, -3, -4]
        assert [n.node_id for n in substrate.outputs] == [0, 1]
        assert all(n.node_id >= 2 for n in substrate.hidden)

    def test_single_node_centered(self):
        sub = Substrate.grid(1, 1)
        assert sub.inputs[0].x == 0.0
        assert sub.outputs[0].x == 0.0

    def test_queries_feed_forward_only(self, substrate):
        for src, dst in substrate.connection_queries():
            assert src.y < dst.y

    def test_query_count(self, substrate):
        # in->hid (4*3) + hid->out (3*2) + in->out (4*2)
        assert len(substrate.connection_queries()) == 12 + 6 + 8

    def test_no_hidden_direct_connections(self):
        sub = Substrate.grid(3, 2, num_hidden=0)
        assert len(sub.connection_queries()) == 6


class TestCPPNConfig:
    def test_io_shape(self):
        config = cppn_config()
        assert config.genome.num_inputs == 4
        assert config.genome.num_outputs == 1

    def test_mixed_activations(self):
        config = cppn_config()
        assert "sin" in config.genome.activation_options
        assert "gauss" in config.genome.activation_options


class TestDecoder:
    def test_phenotype_valid(self, substrate, cppn_setup):
        config, cppn = cppn_setup
        decoder = HyperNEATDecoder(substrate, config.genome)
        phenotype = decoder.decode(cppn)
        phenotype.validate(substrate.phenotype_config)

    def test_phenotype_runs_on_network(self, substrate, cppn_setup):
        config, cppn = cppn_setup
        decoder = HyperNEATDecoder(substrate, config.genome)
        phenotype = decoder.decode(cppn)
        net = FeedForwardNetwork.create(phenotype, substrate.phenotype_config)
        out = net.activate([0.1, 0.2, 0.3, 0.4])
        assert len(out) == 2

    def test_weights_bounded(self, substrate, cppn_setup):
        config, cppn = cppn_setup
        decoder = HyperNEATDecoder(substrate, config.genome, weight_range=4.0)
        phenotype = decoder.decode(cppn)
        for conn in phenotype.connections.values():
            assert abs(conn.weight) <= 4.0

    def test_threshold_prunes_connections(self, substrate, cppn_setup):
        config, cppn = cppn_setup
        loose = HyperNEATDecoder(substrate, config.genome, expression_threshold=0.0)
        tight = HyperNEATDecoder(substrate, config.genome, expression_threshold=0.9)
        assert len(tight.decode(cppn).connections) <= len(
            loose.decode(cppn).connections
        )

    def test_decode_deterministic(self, substrate, cppn_setup):
        config, cppn = cppn_setup
        decoder = HyperNEATDecoder(substrate, config.genome)
        a = decoder.decode(cppn)
        b = decoder.decode(cppn)
        assert {k: c.weight for k, c in a.connections.items()} == {
            k: c.weight for k, c in b.connections.items()
        }

    def test_rejects_wrong_cppn_shape(self, substrate):
        from repro.neat import GenomeConfig

        with pytest.raises(ValueError):
            HyperNEATDecoder(substrate, GenomeConfig(num_inputs=2, num_outputs=1))

    def test_compression_ratio_on_large_substrate(self, cppn_setup):
        """The encoding-efficiency claim: phenotype genes >> CPPN genes."""
        config, cppn = cppn_setup
        big = Substrate.grid(32, 8, num_hidden=16)
        decoder = HyperNEATDecoder(big, config.genome, expression_threshold=0.05)
        ratio = decoder.compression_ratio(cppn)
        phenotype = decoder.decode(cppn)
        if phenotype.num_genes > 100:
            assert ratio > 2.0


class TestEvolveHyperNEAT:
    def test_end_to_end_improves(self, monkeypatch):
        substrate = Substrate.grid(2, 1, num_hidden=2)

        def fitness(phenotype, config):
            net = FeedForwardNetwork.create(phenotype, config)
            target = [0.6, -0.2]
            error = 0.0
            for i, x in enumerate([[1.0, 0.0], [0.0, 1.0]]):
                error += (net.activate(x)[0] - target[i]) ** 2
            return -error

        rows = []
        run_generation = Population.run_generation

        def recorded(self, fitness_function):
            rows.append(run_generation(self, fitness_function))
            return rows[-1]

        monkeypatch.setattr(Population, "run_generation", recorded)
        best, population, decoder = evolve_hyperneat(
            substrate, fitness, generations=5, pop_size=20, seed=1
        )
        series = [row.best_fitness for row in rows]
        assert best.fitness == max(series)
        assert series[-1] >= series[0]
