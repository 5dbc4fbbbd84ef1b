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


#: Lanes (reset seeds 0..n-1) replayed per port.  Squared through
#: libm's ``pow``, 26 of the CartPole lane-steps differed, the first at
#: seed 3289, step 1.
REPLAY_LANES = {"CartPole-v0": 4000, "MountainCar-v0": 500}


@pytest.mark.parametrize(
    "env_id, batched_cls",
    [("CartPole-v0", VectorizedCartPole), ("MountainCar-v0", VectorizedMountainCar)],
)
def test_vectorized_replays_scalar_bitwise(env_id, batched_cls):
    """Random-action episodes, every lane stepped beside a scalar twin
    until it finishes: every observation, reward and done flag must be
    bit-identical at every step, for every lane."""
    seeds = range(REPLAY_LANES[env_id])
    batch = batched_cls(env_id)
    obs = batch.start(seeds)

    twins = []
    for seed in seeds:
        env = make(env_id)
        env.seed(seed)
        assert env.reset().tobytes() == obs[seed].tobytes()
        twins.append((seed, env))

    rng = np.random.default_rng(0)
    mismatched = []
    for step in range(batch.max_episode_steps):
        if not twins:
            break
        actions = rng.integers(0, batch.action_space.n, size=len(twins))
        obs, rewards, dones = batch.step(actions)
        for i, (seed, env) in enumerate(twins):
            o, r, done, _info = env.step(int(actions[i]))
            if (o.tobytes(), r, done) != (obs[i].tobytes(), rewards[i], dones[i]):
                mismatched.append((seed, step))
        keep = ~dones
        twins = [twin for twin, k in zip(twins, keep) if k]
        batch.prune(keep)
    assert not twins
    assert mismatched == []


@pytest.mark.parametrize(
    "words",
    [
        # cos(theta) squared: through pow, the scalar step gave theta_dot
        # 0x1.d4e818ed234dep+0 where the port gives 0x1.d4e818ed234dfp+0.
        ("-0x1.292e0094d64e0p+1", "-0x1.d97d3eca65bd0p-2",
         "-0x1.8d8aa7331faacp-5", "0x1.8df45940ff524p+0"),
        # theta_dot squared: through pow, x_dot and theta_dot differ.
        ("0x1.c2df26ceac202p+0", "-0x1.5d3b74bece200p-7",
         "-0x1.7b0a4b291bd18p-3", "-0x1.3d64b16d8f5eep+0"),
    ],
)
def test_cartpole_witness_state_steps_to_the_same_bytes(words):
    """States where libm's ``pow(v, 2.0)`` misses ``v * v`` in the last
    bit for one of the step's two squares.  The scalar step and the port
    spell both as products, so one step from action 0 agrees."""
    state = [float.fromhex(w) for w in words]
    env = make("CartPole-v0")
    env.reset()
    env.state = np.array(state)
    obs, reward, done, _info = env.step(0)

    batch = VectorizedCartPole("CartPole-v0")
    batch.start([0])
    batch.state = np.array([state])
    lane_obs, lane_rewards, lane_dones = batch.step(np.array([0]))

    assert obs.tobytes() == lane_obs[0].tobytes()
    assert env.state.tobytes() == batch.state[0].tobytes()
    assert (reward, done) == (lane_rewards[0], bool(lane_dones[0]))


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
