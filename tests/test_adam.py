"""Unit tests for ADAM, the systolic inference engine."""

import random

import pytest

from repro.hw.adam import (
    ADAM,
    ADAMConfig,
    UnsupportedGenomeError,
    build_inference_plan,
)
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.network import FeedForwardNetwork


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=4, num_outputs=2)


def make_genome(config, seed=0, mutations=30):
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=config.num_outputs)
    genome = Genome(0)
    genome.configure_new(config, rng)
    for _ in range(mutations):
        genome.mutate(config, rng, innovations)
    # ensure nonzero weights so outputs are interesting
    for conn in genome.connections.values():
        if conn.weight == 0.0:
            conn.weight = rng.uniform(-1, 1)
    return genome


class TestInferencePlan:
    def test_wave_structure(self, config):
        genome = make_genome(config)
        plan = build_inference_plan(genome, config)
        assert plan.waves
        assert len(plan.waves) == len(plan.network.layers)
        seen = set(range(config.num_inputs))  # the input columns
        for wave, layer in zip(plan.waves, plan.network.layers):
            sources = {col for links in layer.links for col, _ in links}
            assert sources <= seen
            assert (wave.m, wave.k) == (layer.num_nodes, len(sources))
            seen.update(layer.node_cols)
        outputs = range(config.num_inputs, config.num_inputs + config.num_outputs)
        assert set(outputs) <= seen

    def test_macs_count_enabled_connections_only(self, config):
        genome = make_genome(config, mutations=0)
        for i, conn in enumerate(genome.connections.values()):
            conn.weight = 1.0
            if i == 0:
                conn.enabled = False
        plan = build_inference_plan(genome, config)
        assert plan.macs_per_pass == len(genome.connections) - 1

    def test_non_sum_aggregation_rejected(self, config):
        genome = make_genome(config, mutations=0)
        genome.nodes[0].aggregation = "max"
        with pytest.raises(UnsupportedGenomeError):
            build_inference_plan(genome, config)

    def test_weight_words(self, config):
        genome = make_genome(config, mutations=0)
        plan = build_inference_plan(genome, config)
        # single wave, 2 outputs x 4 inputs dense
        assert plan.weight_words == 8


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_software_network(self, config, seed):
        genome = make_genome(config, seed=seed)
        net = FeedForwardNetwork.create(genome, config)
        plan = build_inference_plan(genome, config)
        adam = ADAM()
        rng = random.Random(seed)
        for _ in range(5):
            x = [rng.uniform(-2, 2) for _ in range(4)]
            assert [v.hex() for v in adam.run(plan, x)] == [
                v.hex() for v in net.activate(x)
            ]

    def test_wrong_input_count_raises(self, config):
        genome = make_genome(config)
        plan = build_inference_plan(genome, config)
        with pytest.raises(ValueError):
            ADAM().run(plan, [1.0])


class TestSystolicCycles:
    def test_single_tile(self):
        adam = ADAM(ADAMConfig(rows=32, cols=32))
        # m=4, k=8 -> one tile: min(32,8)+32 = 40
        assert adam.systolic_cycles(4, 8) == 40

    def test_row_tiling(self):
        adam = ADAM(ADAMConfig(rows=32, cols=32))
        assert adam.systolic_cycles(64, 8) == 2 * 40

    def test_col_tiling(self):
        adam = ADAM(ADAMConfig(rows=32, cols=32))
        assert adam.systolic_cycles(4, 64) == 2 * (32 + 32)

    def test_bigger_array_fewer_cycles_on_large_work(self):
        small = ADAM(ADAMConfig(rows=8, cols=8))
        large = ADAM(ADAMConfig(rows=32, cols=32))
        assert large.systolic_cycles(256, 256) < small.systolic_cycles(256, 256)
        assert large.config.num_macs == 1024


class TestStats:
    def test_stats_accumulate(self, config):
        genome = make_genome(config)
        plan = build_inference_plan(genome, config)
        adam = ADAM()
        adam.run(plan, [0.0] * 4)
        adam.run(plan, [1.0] * 4)
        assert adam.stats.passes == 2
        assert adam.stats.macs == 2 * plan.macs_per_pass
        assert adam.stats.array_cycles > 0
        assert adam.stats.vectorize_cycles > 0

    def test_utilization_bounds(self, config):
        genome = make_genome(config)
        plan = build_inference_plan(genome, config)
        adam = ADAM()
        adam.run(plan, [0.5] * 4)
        assert 0.0 <= adam.stats.utilization <= 1.0

    def test_denser_genome_higher_utilization(self, config):
        """Fig. 11(a) discussion: more connection genes -> denser matrices
        -> higher ADAM utilisation."""
        sparse = make_genome(config, mutations=0)
        for i, conn in enumerate(sparse.connections.values()):
            conn.enabled = i % 4 == 0
        dense = make_genome(config, mutations=0)
        for conn in dense.connections.values():
            conn.enabled = True
        u = {}
        for name, genome in [("sparse", sparse), ("dense", dense)]:
            adam = ADAM()
            adam.run(build_inference_plan(genome, config), [1.0] * 4)
            u[name] = adam.stats.utilization
        assert u["dense"] > u["sparse"]

    def test_reset_stats(self, config):
        genome = make_genome(config)
        plan = build_inference_plan(genome, config)
        adam = ADAM()
        adam.run(plan, [0.0] * 4)
        old = adam.reset_stats()
        assert old.passes == 1
        assert adam.stats.passes == 0

    def test_stats_merge(self):
        from repro.hw.adam import InferenceStats

        a = InferenceStats(passes=1, macs=10, dense_macs=20, array_cycles=5,
                           vectorize_cycles=3, waves=2)
        b = InferenceStats(passes=2, macs=30, dense_macs=40, array_cycles=7,
                           vectorize_cycles=1, waves=4)
        a.merge(b)
        assert a.passes == 3 and a.macs == 40
        assert a.total_cycles == 16
        assert a.utilization == pytest.approx(40 / 60)


class TestStackedAdamEnvelope:
    """The vectorised cost envelope must equal serial ADAM accounting
    exactly — it is what lets a whole generation be costed with array
    ops instead of per-(genome, step, wave) Python loops."""

    def test_charge_matches_serial_run_exactly(self, config):
        from dataclasses import astuple

        from repro.hw.adam import StackedAdamEnvelope

        adam_config = ADAMConfig(rows=8, cols=8)
        genomes = [make_genome(config, seed=s, mutations=10 * s) for s in range(6)]
        plans = [build_inference_plan(g, config) for g in genomes]
        passes = [3, 0, 1, 7, 2, 5]

        serial = ADAM(adam_config)
        for plan, count in zip(plans, passes):
            for _ in range(count):
                serial.run(plan, [0.5, -1.0, 2.0, 0.0])

        envelope = StackedAdamEnvelope(plans, adam_config)
        batched = ADAM(adam_config)
        envelope.charge(batched.stats, passes)
        assert astuple(batched.stats) == astuple(serial.stats)

    def test_per_pass_costs_match_systolic_formula(self, config):
        from repro.hw.adam import StackedAdamEnvelope

        adam_config = ADAMConfig(rows=4, cols=4)
        adam = ADAM(adam_config)
        plan = build_inference_plan(make_genome(config), config)
        envelope = StackedAdamEnvelope([plan], adam_config)
        expected_array = sum(adam.systolic_cycles(w.m, w.k) for w in plan.waves)
        assert envelope.array_cycles_per_pass[0] == expected_array
        assert envelope.vectorize_cycles_per_pass[0] == sum(w.k for w in plan.waves)
        assert envelope.macs_per_pass[0] == plan.macs_per_pass
        assert envelope.waves_per_pass[0] == len(plan.waves)

    def test_empty_and_ragged_populations(self, config):
        from repro.hw.adam import InferenceStats, StackedAdamEnvelope

        empty = StackedAdamEnvelope([])
        stats = InferenceStats()
        empty.charge(stats, [])
        assert stats.passes == 0
        # ragged depths pad with zero-cost slots
        shallow = build_inference_plan(make_genome(config, mutations=0), config)
        deep = build_inference_plan(make_genome(config, seed=2), config)
        envelope = StackedAdamEnvelope([shallow, deep])
        assert len(envelope) == 2
        with pytest.raises(ValueError, match="pass counts"):
            envelope.charge(InferenceStats(), [1])
