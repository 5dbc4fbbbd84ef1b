"""The classic-control physics against their oracles, step by step.

``repro.envs`` steps CartPole, MountainCar and Acrobot on Python floats.
Hypothesis draws a start state, the tunable parameters and the actions,
and each environment is stepped beside its oracle over the rollout:
MountainCar and Acrobot beside their numpy-scalar reference
(``tests/env_reference.py``), CartPole beside one lane of
``VectorizedCartPole`` built from the same parameterised template.  The
observation and ``env.state`` must match by bytes, the reward and the
done flag by value.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from env_reference import ReferenceAcrobot, ReferenceMountainCar
from repro.envs.acrobot import AcrobotEnv
from repro.envs.batched import VectorizedCartPole
from repro.envs.cartpole import CartPoleEnv
from repro.envs.mountain_car import MountainCarEnv


def floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def params(ranges):
    """Half the draws keep the defaults; the rest draw every parameter."""
    return st.one_of(
        st.just({}),
        st.fixed_dictionaries({name: floats(*r) for name, r in ranges.items()}),
    )


def actions(n):
    return st.lists(st.integers(0, n - 1), min_size=1, max_size=60)


def same_step(got, want):
    (obs, reward, done, _), (ref_obs, ref_reward, ref_done, _) = got, want
    assert obs.tobytes() == ref_obs.tobytes()
    assert (reward, done) == (ref_reward, ref_done)
    return done


def replay(env, ref, state, plan):
    """Start both environments from ``state`` and step them through
    ``plan`` until the episode ends."""
    for e in (env, ref):
        e.reset()
        e.state = np.array(state, dtype=np.float64)
    for action in plan:
        done = same_step(env.step(action), ref.step(action))
        assert env.state.tobytes() == ref.state.tobytes()
        if done:
            break


MC = MountainCarEnv
mc_states = st.tuples(
    st.one_of(
        st.sampled_from([MC.MIN_POSITION, MC.MAX_POSITION]),
        floats(MC.MIN_POSITION, MC.MAX_POSITION),
    ),
    st.one_of(
        st.sampled_from([-MC.MAX_SPEED, MC.MAX_SPEED, 0.0, -0.0, math.nan]),
        floats(-MC.MAX_SPEED, MC.MAX_SPEED),
    ),
)
mc_params = params({
    "force": (0.0, 0.01),
    "gravity": (0.0, 0.01),
    "goal_position": (MC.MIN_POSITION, MC.MAX_POSITION),
    "reward_per_step": (-2.0, 2.0),
})


@settings(max_examples=60, deadline=None)
@given(state=mc_states, overrides=mc_params, plan=actions(3))
@example(state=(MC.MIN_POSITION, -0.05), overrides={}, plan=[0, 0, 2])
@example(state=(-0.5, math.nan), overrides={}, plan=[1, 2, 0])
@example(state=(0.49, MC.MAX_SPEED), overrides={}, plan=[2, 2])
def test_mountain_car_matches_reference(state, overrides, plan):
    replay(MC(**overrides), ReferenceMountainCar(**overrides), state, plan)


AB = AcrobotEnv
acrobot_states = st.tuples(
    floats(-math.pi, math.pi),
    floats(-math.pi, math.pi),
    floats(-AB.MAX_VEL_1, AB.MAX_VEL_1),
    floats(-AB.MAX_VEL_2, AB.MAX_VEL_2),
)


def hex_state(*words):
    return tuple(float.fromhex(w) for w in words)


@settings(max_examples=60, deadline=None)
@given(state=acrobot_states, plan=actions(3))
@example(state=(0.0, 0.0, AB.MAX_VEL_1, -AB.MAX_VEL_2), plan=[2, 0, 1])
# One step from each of these takes another path if ``dtheta2 ** 2``,
# ``dtheta1 ** 2`` or ``d2 ** 2`` (in that order) is spelled as a
# product: libm's pow(v, 2.0) and v * v differ in the last bit there.
@example(
    state=hex_state("0x1.011374caf626cp+0", "-0x1.da303e6ee2a18p-2",
                    "0x1.7df072dd0dfa4p+2", "-0x1.52ac7af431ce0p+4"),
    plan=[0],
)
@example(
    state=hex_state("0x1.20e4ce1ab7614p+1", "0x1.14a4fbb4b2af6p+1",
                    "0x1.e7e31e5f6dbfcp+2", "0x1.d2f904f5b34cap+3"),
    plan=[2],
)
@example(
    state=hex_state("-0x1.41a65a0f376b7p+0", "0x1.2cf3760afdc90p-2",
                    "0x1.2d9ed09a5fb00p+2", "-0x1.26c063da823a0p+4"),
    plan=[1],
)
def test_acrobot_matches_reference(state, plan):
    replay(AB(), ReferenceAcrobot(), state, plan)


CP = CartPoleEnv
cartpole_states = st.tuples(
    floats(-CP.X_THRESHOLD, CP.X_THRESHOLD),
    floats(-3.0, 3.0),
    floats(-CP.THETA_THRESHOLD, CP.THETA_THRESHOLD),
    floats(-3.5, 3.5),
)
cartpole_params = params({
    "gravity": (1.0, 20.0),
    "masscart": (0.5, 2.0),
    "masspole": (0.05, 0.5),
    "length": (0.25, 1.0),
    "force_mag": (5.0, 20.0),
    "tau": (0.005, 0.05),
    "x_threshold": (1.0, 4.8),
    "reward_per_step": (-1.0, 2.0),
})


@settings(max_examples=60, deadline=None)
@given(state=cartpole_states, overrides=cartpole_params, plan=actions(2))
def test_cartpole_matches_vectorized_lane(state, overrides, plan):
    env = CP(**overrides)
    env.reset()
    env.state = np.array(state, dtype=np.float64)
    lane = VectorizedCartPole("CartPole-v0", template=CP(**overrides))
    lane.start([0])
    lane.state = np.array([state], dtype=np.float64)
    for action in plan:
        obs, rewards, dones = lane.step(np.array([action]))
        done = same_step(env.step(action), (obs[0], rewards[0], bool(dones[0]), {}))
        assert env.state.tobytes() == lane.state[0].tobytes()
        if done:
            break
