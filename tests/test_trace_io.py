"""Tests for additional physics/extinction edges."""

import numpy as np

from repro.core import GeneSysConfig, GeneSysSoC, config_for_env
from repro.envs import AcrobotEnv
from repro.hw import EvEConfig


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
