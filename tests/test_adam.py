"""Unit tests for ADAM, the systolic inference engine.

ADAM is charged a generation at a time: :func:`build_inference_plan`
maps the genomes (the lanes' one compile pass) and
:class:`StackedAdamEnvelope` reads each wave's shape off the tables.
Every check compares the envelope with the walkthrough genome by genome
in ``neat_reference`` (``FeedForwardNetwork.create``'s plan, charged
pass by pass with its own tiling arithmetic).
"""

import random
from dataclasses import astuple

import neat_reference as ref
import numpy as np
import pytest

from repro.hw.adam import (
    ADAM,
    ADAMConfig,
    InferenceStats,
    StackedAdamEnvelope,
    UnsupportedGenomeError,
    build_inference_plan,
    systolic_cycles,
)
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.compiled import StackedPlans, compile_network
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


def envelope_stats(genomes, config, passes, adam_config=None):
    """``passes[g]`` forward passes of each genome, charged at once."""
    stats = InferenceStats()
    envelope = StackedAdamEnvelope(build_inference_plan(genomes, config), adam_config)
    envelope.charge(stats, passes)
    return stats


def oracle_stats(genomes, config, passes, adam_config=None):
    """The same passes charged one by one by the oracle."""
    adam = ADAM(adam_config)
    for genome, count in zip(genomes, passes):
        walk = ref.AdamWalk(genome, config, adam)
        for _ in range(count):
            ref.charge_pass(adam.stats, walk.cost)
    return adam.stats


class TestInferencePlan:
    def test_wave_structure(self, config):
        genome = make_genome(config)
        plan = FeedForwardNetwork.create(genome, config)
        shapes = ref.wave_shapes(plan)
        assert shapes
        seen = set(range(config.num_inputs))  # the input columns
        for (m, k, _), layer in zip(shapes, plan.layers):
            sources = {col for links in layer.links for col, _ in links}
            assert sources <= seen
            assert (m, k) == (layer.num_nodes, len(sources))
            seen.update(layer.node_cols)
        outputs = range(config.num_inputs, config.num_inputs + config.num_outputs)
        assert set(outputs) <= seen
        # A 1x1 array takes m * k tiles a wave, so its cycles see every
        # wave's m and k; the 32x32 array sees the shapes another way.
        for adam_config in (ADAMConfig(rows=1, cols=1), ADAMConfig()):
            envelope = StackedAdamEnvelope(build_inference_plan([genome], config), adam_config)
            assert ref.envelope_costs(envelope) == [ref.pass_cost(shapes, adam_config)]

    def test_macs_count_enabled_connections_only(self, config):
        genome = make_genome(config, mutations=0)
        for i, conn in enumerate(genome.connections.values()):
            conn.weight = 1.0
            if i == 0:
                conn.enabled = False
            elif i == 1:
                conn.weight = 0.0
        stats = envelope_stats([genome], config, [1])
        assert stats.macs == len(genome.connections) - 2
        assert astuple(stats) == astuple(oracle_stats([genome], config, [1]))

    def test_non_sum_aggregation_rejected(self, config):
        genome = make_genome(config, mutations=0)
        genome.nodes[0].aggregation = "max"
        with pytest.raises(UnsupportedGenomeError, match="aggregation 'max'") as plan_error:
            build_inference_plan([make_genome(config, seed=1), genome], config)
        with pytest.raises(UnsupportedGenomeError) as oracle_error:
            ref.AdamWalk(genome, config, ADAM())
        assert str(plan_error.value) == str(oracle_error.value)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_software_network(self, config, seed):
        """ADAM's values on the soc are the lanes' over
        build_inference_plan's tables: the software network's bits."""
        genome = make_genome(config, seed=seed)
        net = FeedForwardNetwork.create(genome, config)
        runner = build_inference_plan([genome], config).lane_runner([0])
        rng = random.Random(seed)
        for _ in range(5):
            x = [rng.uniform(-2, 2) for _ in range(4)]
            assert [v.hex() for v in runner.step(np.array([x]))[0].tolist()] == [
                v.hex() for v in net.activate(x)
            ]


class TestSystolicCycles:
    def test_single_tile(self):
        # m=4, k=8 -> one tile: min(32,8)+32 = 40
        assert systolic_cycles(4, 8, ADAMConfig(rows=32, cols=32)) == 40

    def test_row_tiling(self):
        assert systolic_cycles(64, 8, ADAMConfig(rows=32, cols=32)) == 2 * 40

    def test_col_tiling(self):
        assert systolic_cycles(4, 64, ADAMConfig(rows=32, cols=32)) == 2 * (32 + 32)

    def test_bigger_array_fewer_cycles_on_large_work(self):
        small, large = ADAMConfig(rows=8, cols=8), ADAMConfig(rows=32, cols=32)
        assert systolic_cycles(256, 256, large) < systolic_cycles(256, 256, small)
        assert large.num_macs == 1024

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (8, 8), (32, 32)])
    def test_arrays_tile_as_the_oracle_tiles_integers(self, rows, cols):
        adam_config = ADAMConfig(rows=rows, cols=cols)
        m, k = np.meshgrid(np.arange(70), np.arange(70))
        assert systolic_cycles(m, k, adam_config).ravel().tolist() == [
            ref.pass_cost([(mi, ki, 0)], adam_config)[2]
            for mi, ki in zip(m.ravel().tolist(), k.ravel().tolist())
        ]


class TestStats:
    def test_stats_accumulate(self, config):
        genome = make_genome(config)
        adam = ADAM()
        envelope = StackedAdamEnvelope(build_inference_plan([genome], config))
        envelope.charge(adam.stats, [1])
        envelope.charge(adam.stats, [1])
        assert adam.stats.passes == 2
        assert adam.stats.macs == 2 * envelope.macs_per_pass[0]
        assert adam.stats.array_cycles > 0
        assert adam.stats.vectorize_cycles > 0
        assert astuple(adam.stats) == astuple(oracle_stats([genome], config, [2]))

    def test_utilization_bounds(self, config):
        genome = make_genome(config)
        stats = envelope_stats([genome], config, [1])
        assert 0 <= stats.macs <= stats.dense_macs
        assert astuple(stats) == astuple(oracle_stats([genome], config, [1]))

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
            stats = envelope_stats([genome], config, [1])
            assert astuple(stats) == astuple(oracle_stats([genome], config, [1]))
            u[name] = stats.macs / stats.dense_macs
        assert u["dense"] > u["sparse"]

    def test_reset_stats(self, config):
        genome = make_genome(config)
        adam = ADAM()
        StackedAdamEnvelope(build_inference_plan([genome], config)).charge(adam.stats, [1])
        old = adam.reset_stats()
        assert old.passes == 1
        assert adam.stats.passes == 0


class TestStackedAdamEnvelope:
    """The cost envelope must equal ADAM charged pass by pass exactly —
    it is what lets a whole generation be costed with array ops instead
    of per-(genome, step, wave) Python loops."""

    def test_charge_matches_serial_run_exactly(self, config):
        adam_config = ADAMConfig(rows=8, cols=8)
        genomes = [make_genome(config, seed=s, mutations=10 * s) for s in range(6)]
        passes = [3, 0, 1, 7, 2, 5]

        serial = ADAM(adam_config)
        for genome, count in zip(genomes, passes):
            walk = ref.AdamWalk(genome, config, serial)
            for _ in range(count):
                walk.activate([0.5, -1.0, 2.0, 0.0])

        batched = envelope_stats(genomes, config, passes, adam_config)
        assert astuple(batched) == astuple(serial.stats)

    def test_per_pass_costs_match_systolic_formula(self, config):
        adam_config = ADAMConfig(rows=4, cols=4)
        genome = make_genome(config)
        shapes = ref.wave_shapes(FeedForwardNetwork.create(genome, config))
        envelope = StackedAdamEnvelope(build_inference_plan([genome], config), adam_config)
        assert envelope.array_cycles_per_pass[0] == sum(
            systolic_cycles(m, k, adam_config) for m, k, _ in shapes
        )
        assert ref.envelope_costs(envelope) == [ref.pass_cost(shapes, adam_config)]

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
        assert astuple(envelope_stats([shallow, deep], config, [4, 3])) == astuple(
            oracle_stats([shallow, deep], config, [4, 3])
        )
        with pytest.raises(ValueError, match="pass counts"):
            envelope.charge(InferenceStats(), [1])
