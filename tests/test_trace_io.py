"""Tests for trace persistence and additional physics/extinction edges."""

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.core import GeneSysConfig, GeneSysSoC, config_for_env
from repro.core.trace import TraceRecorder, WorkloadTrace
from repro.envs import AcrobotEnv
from repro.hw import EvEConfig


class TestTracePersistence:
    def test_save_load_round_trip(self, tmp_path):
        spec = ExperimentSpec("CartPole-v0", pop_size=12, seed=0, max_steps=40)
        trace = TraceRecorder(spec).record(3)
        path = tmp_path / "cartpole.trace"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert loaded.env_id == "CartPole-v0"
        assert len(loaded.lines) == len(trace.lines)
        for a, b in zip(loaded.lines, trace.lines):
            assert (a.generation, a.genome_id, a.op, a.count) == (
                b.generation, b.genome_id, b.op, b.count,
            )

    def test_file_format_matches_paper_fields(self, tmp_path):
        spec = ExperimentSpec("CartPole-v0", pop_size=10, seed=0, max_steps=30)
        trace = TraceRecorder(spec).record(2)
        path = tmp_path / "t.trace"
        trace.save(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# workload trace:")
        # generation, genome id, op type, parameters-changed count
        data = [l for l in lines if not l.startswith("#")]
        assert data
        assert all(len(l.split(",")) == 4 for l in data)


class TestAcrobotPhysics:
    def test_hanging_equilibrium(self):
        """At the exact hanging rest state with zero torque, the dynamics
        are at an equilibrium (the 'book' equations of Sutton 1996)."""
        env = AcrobotEnv(seed=0)
        env.reset()
        env.state = np.zeros(4)
        obs, _r, _d, _i = env.step(1)  # zero torque
        assert np.allclose(env.state, 0.0, atol=1e-12)

    def test_torque_breaks_equilibrium(self):
        env = AcrobotEnv(seed=0)
        env.reset()
        env.state = np.zeros(4)
        env.step(2)  # +1 torque
        assert not np.allclose(env.state, 0.0)


class TestSoCExtinctionRecovery:
    def test_reinitialises_after_total_stagnation(self):
        neat = config_for_env("MountainCar-v0", pop_size=8)
        neat.species.max_stagnation = 1
        neat.species.species_elitism = 0
        config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=4), seed=0)
        soc = GeneSysSoC(config, "MountainCar-v0", max_steps=15)
        # Tiny caps give every genome the identical -15 fitness: guaranteed
        # stagnation, then complete extinction, then CPU re-seed.
        for _ in range(5):
            soc.run_generation()
        assert len(soc.population) == 8
        assert soc.buffer.resident_genomes() == sorted(soc.population)
