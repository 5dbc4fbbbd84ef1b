"""Unit tests for ADAM, the systolic inference engine."""

import random

import pytest

from repro.hw.adam import (
    ADAM,
    ADAMConfig,
    InferencePlan,
    InferenceStats,
    StackedAdamEnvelope,
    UnsupportedGenomeError,
    build_inference_plan,
)
from repro.neat.compiled import StackedPlans, compile_network
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
        plan = InferencePlan.create(genome, config)
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
        plan = InferencePlan.create(genome, config)
        assert plan.macs_per_pass == len(genome.connections) - 1

    def test_non_sum_aggregation_rejected(self, config):
        genome = make_genome(config, mutations=0)
        genome.nodes[0].aggregation = "max"
        with pytest.raises(UnsupportedGenomeError):
            InferencePlan.create(genome, config)
        with pytest.raises(UnsupportedGenomeError, match="aggregation 'max'"):
            build_inference_plan([make_genome(config, seed=1), genome], config)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_software_network(self, config, seed):
        genome = make_genome(config, seed=seed)
        net = FeedForwardNetwork.create(genome, config)
        plan = InferencePlan.create(genome, config)
        adam = ADAM()
        rng = random.Random(seed)
        for _ in range(5):
            x = [rng.uniform(-2, 2) for _ in range(4)]
            assert [v.hex() for v in adam.run(plan, x)] == [
                v.hex() for v in net.activate(x)
            ]

    def test_wrong_input_count_raises(self, config):
        genome = make_genome(config)
        plan = InferencePlan.create(genome, config)
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
        plan = InferencePlan.create(genome, config)
        adam = ADAM()
        adam.run(plan, [0.0] * 4)
        adam.run(plan, [1.0] * 4)
        assert adam.stats.passes == 2
        assert adam.stats.macs == 2 * plan.macs_per_pass
        assert adam.stats.array_cycles > 0
        assert adam.stats.vectorize_cycles > 0

    def test_utilization_bounds(self, config):
        genome = make_genome(config)
        plan = InferencePlan.create(genome, config)
        adam = ADAM()
        adam.run(plan, [0.5] * 4)
        assert 0 <= adam.stats.macs <= adam.stats.dense_macs

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
            adam.run(InferencePlan.create(genome, config), [1.0] * 4)
            u[name] = adam.stats.macs / adam.stats.dense_macs
        assert u["dense"] > u["sparse"]

    def test_reset_stats(self, config):
        genome = make_genome(config)
        plan = InferencePlan.create(genome, config)
        adam = ADAM()
        adam.run(plan, [0.0] * 4)
        old = adam.reset_stats()
        assert old.passes == 1
        assert adam.stats.passes == 0


class TestStackedAdamEnvelope:
    """The vectorised cost envelope must equal serial ADAM accounting
    exactly — it is what lets a whole generation be costed with array
    ops instead of per-(genome, step, wave) Python loops."""

    def test_charge_matches_serial_run_exactly(self, config):
        from dataclasses import astuple

        adam_config = ADAMConfig(rows=8, cols=8)
        genomes = [make_genome(config, seed=s, mutations=10 * s) for s in range(6)]
        plans = [InferencePlan.create(g, config) for g in genomes]
        passes = [3, 0, 1, 7, 2, 5]

        serial = ADAM(adam_config)
        for plan, count in zip(plans, passes):
            for _ in range(count):
                serial.run(plan, [0.5, -1.0, 2.0, 0.0])

        envelope = StackedAdamEnvelope(build_inference_plan(genomes, config), adam_config)
        batched = ADAM(adam_config)
        envelope.charge(batched.stats, passes)
        assert astuple(batched.stats) == astuple(serial.stats)

    def test_per_pass_costs_match_systolic_formula(self, config):
        adam_config = ADAMConfig(rows=4, cols=4)
        adam = ADAM(adam_config)
        genome = make_genome(config)
        plan = InferencePlan.create(genome, config)
        envelope = StackedAdamEnvelope(build_inference_plan([genome], config), adam_config)
        expected_array = sum(adam.systolic_cycles(w.m, w.k) for w in plan.waves)
        assert envelope.array_cycles_per_pass[0] == expected_array
        assert envelope.vectorize_cycles_per_pass[0] == sum(w.k for w in plan.waves)
        assert envelope.macs_per_pass[0] == plan.macs_per_pass
        assert envelope.waves_per_pass[0] == len(plan.waves)

    def test_empty_and_ragged_populations(self, config):
        # a population ADAM can pack none of costs nothing
        unpackable = make_genome(config, mutations=0)
        unpackable.nodes[0].aggregation = "max"
        empty = StackedAdamEnvelope(StackedPlans([compile_network(unpackable, config)], config))
        stats = InferenceStats()
        empty.charge(stats, [])
        assert stats.passes == 0
        # ragged depths pad with zero-cost slots
        shallow = make_genome(config, mutations=0)
        deep = make_genome(config, seed=2)
        envelope = StackedAdamEnvelope(build_inference_plan([shallow, deep], config))
        assert len(envelope) == 2
        with pytest.raises(ValueError, match="pass counts"):
            envelope.charge(InferenceStats(), [1])
