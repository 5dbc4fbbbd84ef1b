"""Batched environments (:mod:`repro.envs.batched`).

The vectorized physics ports must replay the scalar environments
*bitwise* — same seeds, same trajectories, same rewards, same
termination steps — because the golden regression contract promises
identical fitness trajectories across evaluation strategies.
"""

import numpy as np
import pytest

from repro.envs.batched import (
    LockstepEnvs,
    VectorizedCartPole,
    VectorizedMountainCar,
    make_batched,
)
from repro.envs.registry import make


@pytest.mark.parametrize(
    "env_id, batched_cls",
    [("CartPole-v0", VectorizedCartPole), ("MountainCar-v0", VectorizedMountainCar)],
)
def test_vectorized_replays_scalar_bitwise(env_id, batched_cls):
    """Step scalar twin envs in parallel: every observation, reward and
    done flag must be bit-identical at every step, for every lane."""
    seeds = list(range(17))
    batch = batched_cls(env_id)
    obs = batch.start(seeds)

    twins = []
    for i, seed in enumerate(seeds):
        env = make(env_id)
        env.seed(seed)
        assert (env.reset() == obs[i]).all()
        twins.append(env)

    rng = np.random.default_rng(0)
    for step in range(60):
        if not twins:
            break
        actions = rng.integers(0, batch.action_space.n, size=len(twins))
        obs, rewards, dones = batch.step(actions)
        for i, env in enumerate(twins):
            o, r, done, _info = env.step(int(actions[i]))
            assert (o == obs[i]).all(), (env_id, step, i)
            assert r == rewards[i]
            assert done == bool(dones[i])
        keep = ~dones
        twins = [env for env, k in zip(twins, keep) if k]
        batch.prune(keep)
        obs = obs[keep]


def test_vectorized_time_limit_truncates():
    batch = VectorizedCartPole("CartPole-v0")
    batch.max_episode_steps = 5
    batch.start([0, 1])
    for _ in range(4):
        _obs, _r, dones = batch.step(np.zeros(2, dtype=int))
    # CartPole from these seeds survives longer than 5 steps under a
    # constant-0 policy only if physics allows; the limit must force done
    _obs, _r, dones = batch.step(np.zeros(2, dtype=int))
    assert dones.all()


def test_lockstep_envs_match_scalar():
    env_id = "Acrobot-v1"
    seeds = [3, 4, 5]
    batch = LockstepEnvs(env_id)
    obs = batch.start(seeds)
    twins = []
    for i, seed in enumerate(seeds):
        env = make(env_id)
        env.seed(seed)
        assert (env.reset().ravel() == obs[i]).all()
        twins.append(env)
    rng = np.random.default_rng(1)
    for _ in range(10):
        if not twins:
            break
        actions = rng.integers(0, batch.action_space.n, size=len(twins))
        obs, rewards, dones = batch.step(actions)
        for i, env in enumerate(twins):
            o, r, done, _info = env.step(int(actions[i]))
            assert (o.ravel() == obs[i]).all()
            assert r == rewards[i]
            assert done == bool(dones[i])
        keep = ~dones
        twins = [env for env, k in zip(twins, keep) if k]
        batch.prune(keep)
        obs = obs[keep]


def test_lockstep_envs_reuse_instances_across_starts():
    batch = LockstepEnvs("CartPole-v0")
    batch.start([0, 1, 2])
    first = list(batch._envs)
    obs = batch.start([5, 6])
    assert batch._envs[:2] == first[:2]
    assert len(obs) == 2


def test_registry_dispatch():
    assert isinstance(make_batched("MountainCar-v0"), VectorizedMountainCar)
    assert isinstance(make_batched("CartPole-v0"), VectorizedCartPole)
    assert isinstance(make_batched("Acrobot-v1"), LockstepEnvs)


def test_port_errors_are_not_fallbacks(monkeypatch):
    """Only a template the port cannot replay drops to the lockstep
    fallback; any other error inside a port surfaces."""

    def broken(self, env_id, template=None):
        raise TypeError("bug inside the port")

    monkeypatch.setattr(VectorizedCartPole, "__init__", broken)
    with pytest.raises(TypeError, match="bug inside the port"):
        make_batched("CartPole-v0", factory=lambda: make("CartPole-v0"))
