"""Unit tests for repro.envs.registry."""

import pytest

from repro.envs import (
    ATARI_SUITE,
    CANONICAL_IDS,
    CLASSIC_SUITE,
    EVALUATION_SUITE,
    Environment,
    UnknownEnvironmentError,
    available,
    make,
    register,
    unregister,
)


def test_all_canonical_ids_instantiable():
    for env_id in CANONICAL_IDS:
        env = make(env_id, seed=0)
        assert isinstance(env, Environment)
        obs = env.reset()
        assert obs.shape[0] == env.num_observations


def test_env_ids_match_exactly():
    """An id names one environment in every process: another spelling
    of a known id is an unknown id, whose error lists the known ones,
    whether it reaches ``make`` directly or through a spec's run."""
    from repro.api import Experiment, ExperimentSpec

    for spelling in ("cartpole-v0", "CartPole_v0"):
        with pytest.raises(UnknownEnvironmentError, match="'CartPole-v0'"):
            make(spelling)
    spec = ExperimentSpec(
        "cartpole-v0", vectorizer="numpy", max_generations=1, pop_size=4,
        max_steps=5,
    )
    with pytest.raises(UnknownEnvironmentError, match="'CartPole-v0'"):
        Experiment(spec).run()


def test_unknown_env_raises():
    with pytest.raises(UnknownEnvironmentError):
        make("Pong-v0")


def test_available_lists_canonical():
    # Canonical spellings lead the listing, in sorted order; any custom
    # registrations (none here) would follow them.
    assert available()[: len(CANONICAL_IDS)] == sorted(CANONICAL_IDS)


def test_evaluation_suite_is_the_paper_six():
    # The six workloads of Fig. 9/10.
    assert len(EVALUATION_SUITE) == 6
    assert set(EVALUATION_SUITE) <= set(CANONICAL_IDS)


def test_suites_partition_sensibly():
    assert set(CLASSIC_SUITE).isdisjoint(ATARI_SUITE)
    assert len(ATARI_SUITE) == 4


def test_seed_passthrough():
    env1 = make("MountainCar-v0", seed=5)
    env2 = make("MountainCar-v0", seed=5)
    assert (env1.reset() == env2.reset()).all()


def test_register_custom_env():
    class TinyEnv(Environment):
        from repro.envs import Box, Discrete

        observation_space = Box(low=[0.0], high=[1.0])
        action_space = Discrete(2)

        def _reset(self):
            return [0.5]

        def _step(self, action):
            return [0.5], 1.0, True, {}

    register("Tiny-v0", TinyEnv)
    try:
        env = make("Tiny-v0")
        assert env.reset()[0] == 0.5
        # Custom registrations show up after the canonical suite, under
        # the spelling they were registered with.
        assert available() == sorted(CANONICAL_IDS) + ["Tiny-v0"]
        # ... and in the unknown-environment message.
        with pytest.raises(UnknownEnvironmentError, match="Tiny-v0"):
            make("Pong-v0")
    finally:
        unregister("Tiny-v0")
    assert "Tiny-v0" not in available()
    with pytest.raises(UnknownEnvironmentError):
        make("Tiny-v0")
    with pytest.raises(UnknownEnvironmentError):
        unregister("Tiny-v0")
