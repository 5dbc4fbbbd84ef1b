"""Integration tests: whole-system behaviour across modules.

These exercise the paper's end-to-end claims: NEAT converges on the gym
suite (Section III-B robustness), the hardware path is functionally
faithful, and software/hardware loops agree qualitatively.
"""

import numpy as np
import pytest

from repro.api import Experiment, ExperimentSpec
from repro.core import GeneSysConfig, GeneSysSoC, TraceRecorder, config_for_env
from repro.envs import EVALUATION_SUITE
from repro.hw import EvEConfig, decode_genome, encode_genome
from repro.neat.network import FeedForwardNetwork

# Whole-system runs dominate suite wall time; the quick CI matrix skips
# them with -m "not slow" (the coverage job and tier-1 still run them).
pytestmark = pytest.mark.slow


def run(env_id, **fields):
    return Experiment(ExperimentSpec(env_id, **fields)).run()


class TestSoftwareConvergence:
    """Section III-B: 'All environments reached the target fitness'.

    Full convergence of every env is too slow for CI; CartPole converges
    reliably and fast, and for the rest we assert monotone learning
    progress over a short budget.
    """

    def test_cartpole_reaches_target(self):
        result = run(
            "CartPole-v0", max_generations=20, pop_size=50, episodes=2, seed=0
        )
        assert result.converged

    @pytest.mark.parametrize(
        "env_id", ["MountainCar-v0", "LunarLander-v2", "Asterix-ram-v0"]
    )
    def test_learning_progress(self, env_id):
        result = run(
            env_id,
            max_generations=8,
            pop_size=30,
            episodes=1,
            seed=1,
            max_steps=120,
            fitness_threshold=1e9,  # never stop early
        )
        series = [m.best_fitness for m in result.metrics]
        assert max(series) >= series[0]  # never worse than generation 0
        assert result.generations == 8

    def test_same_codebase_different_fitness_function(self):
        """The paper's robustness claim: identical algorithm, only the
        environment/fitness changes."""
        for env_id in ("CartPole-v0", "MountainCar-v0"):
            result = run(
                env_id, max_generations=2, pop_size=15, seed=0, max_steps=50,
                fitness_threshold=1e9,
            )
            assert result.generations == 2


class TestHardwareFidelity:
    def test_encode_decode_identity_over_evolution(self):
        """Every genome of a real evolved population round-trips through
        the 64-bit encoding with only Q4.4 attribute loss."""
        result = run(
            "MountainCar-v0", max_generations=4, pop_size=20, seed=3,
            max_steps=60, fitness_threshold=1e9,
        )
        config = result.population.config.genome
        for genome in result.population.population.values():
            decoded = decode_genome(encode_genome(genome, config), genome.key, config)
            assert set(decoded.nodes) == set(genome.nodes)
            assert set(decoded.connections) == set(genome.connections)

    def test_quantised_genome_behaviour_close(self):
        """Q4.4 quantisation ('Limit & Quantize') perturbs the phenotype
        only mildly: outputs stay within the quantisation error envelope."""
        result = run(
            "CartPole-v0", max_generations=6, pop_size=30, seed=5, max_steps=80
        )
        config = result.population.config.genome
        genome = result.champion
        quantised = decode_genome(encode_genome(genome, config), genome.key, config)
        net_f = FeedForwardNetwork.create(genome, config)
        net_q = FeedForwardNetwork.create(quantised, config)
        rng = np.random.default_rng(0)
        diffs = []
        for _ in range(20):
            x = rng.uniform(-1, 1, size=4).tolist()
            diffs.append(abs(net_f.activate(x)[0] - net_q.activate(x)[0]))
        assert np.mean(diffs) < 0.5

    def test_hardware_loop_learns_cartpole(self):
        result = run(
            "CartPole-v0", backend="soc", max_generations=15, pop_size=40,
            seed=1,
        )
        assert result.champion.fitness >= 100.0

    def test_hw_and_sw_loops_comparable_quality(self):
        """HW reproduction (quantised, own PRNG) should reach a best
        fitness in the same league as software NEAT on CartPole."""
        sw = run("CartPole-v0", max_generations=10, pop_size=30, seed=7)
        hw = run(
            "CartPole-v0", backend="soc", max_generations=10, pop_size=30,
            seed=7,
        )
        assert hw.best_fitness >= 0.3 * sw.best_fitness


class TestWorkloadClasses:
    def test_atari_class_heavier_than_classic(self):
        """Fig. 5(a): Atari workloads are ~2 orders heavier in ops and
        genes than classic control."""
        classic = TraceRecorder(ExperimentSpec(
            "CartPole-v0", pop_size=20, seed=0, max_steps=40
        )).record(3).mean_workload()
        atari = TraceRecorder(ExperimentSpec(
            "Alien-ram-v0", pop_size=20, seed=0, max_steps=40
        )).record(3).mean_workload()
        assert atari.total_genes > 10 * classic.total_genes
        assert atari.evolution_ops > 5 * classic.evolution_ops

    def test_all_suite_envs_trace(self):
        for env_id in EVALUATION_SUITE:
            spec = ExperimentSpec(env_id, pop_size=10, seed=0, max_steps=20)
            trace = TraceRecorder(spec).record(2)
            assert len(trace.workloads) == 2


class TestSoCAccountingConsistency:
    def test_energy_components_match_counters(self):
        neat = config_for_env("CartPole-v0", pop_size=12)
        config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=4), seed=0)
        soc = GeneSysSoC(config, "CartPole-v0", max_steps=40)
        report = soc.run_generation()
        ledger = report.energy
        assert ledger.adam_macs == report.inference.macs
        assert ledger.eve_pe_cycles == report.evolution.pe_stats.busy_cycles
        assert ledger.total_energy_j == pytest.approx(sum(
            getattr(ledger, f"{part}_energy_j")
            for part in ("eve", "adam", "sram", "dram", "noc", "m0")
        ))

    def test_sram_accesses_cover_reads_and_writes(self):
        neat = config_for_env("CartPole-v0", pop_size=12)
        config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=4), seed=0)
        soc = GeneSysSoC(config, "CartPole-v0", max_steps=40)
        report = soc.run_generation()
        assert report.energy.sram_reads > 0
        assert report.energy.sram_writes > 0
