"""Unit tests for repro.envs.evaluate."""

import numpy as np
import pytest

from repro.envs import (
    CartPoleEnv,
    FitnessEvaluator,
    LunarLanderEnv,
    action_from_outputs,
    actions_from_outputs_batch,
    make,
    run_episode,
)
from repro.envs.bipedal import BipedalWalkerEnv
from repro.neat import NEATConfig, Population
from repro.neat.network import FeedForwardNetwork


class TestActionTranslation:
    def test_discrete_argmax(self):
        env = LunarLanderEnv(seed=0)
        assert action_from_outputs([0.1, 0.9, 0.3, 0.2], env) == 1

    def test_binary_single_output(self):
        env = CartPoleEnv(seed=0)
        assert action_from_outputs([0.9], env) == 1
        assert action_from_outputs([0.1], env) == 0

    def test_binary_single_output_signed(self):
        env = CartPoleEnv(seed=0)
        assert action_from_outputs([-0.5], env) == 0
        assert action_from_outputs([1.5], env) == 1

    def test_box_clipped(self):
        env = BipedalWalkerEnv(seed=0)
        action = action_from_outputs([5.0, -5.0, 0.5, 0.0], env)
        assert np.all(action <= 1.0) and np.all(action >= -1.0)
        assert action[2] == 0.5

    def test_box_short_outputs_padded_to_full_dimension(self):
        """Regression: a network with fewer outputs than the Box action
        dimension used to yield a silently short action array."""
        env = BipedalWalkerEnv(seed=0)
        flat_dim = env.action_space.flat_dim
        action = action_from_outputs([5.0, -5.0], env)
        assert action.shape == (flat_dim,)
        # Missing dimensions are zero-filled, then clipped into bounds.
        assert action[0] == 1.0 and action[1] == -1.0
        assert np.all(action[2:] == 0.0)
        assert env.action_space.contains(action)

    def test_box_extra_outputs_truncated(self):
        env = BipedalWalkerEnv(seed=0)
        flat_dim = env.action_space.flat_dim
        action = action_from_outputs([0.1] * (flat_dim + 3), env)
        assert action.shape == (flat_dim,)

    def test_discrete_two_output_argmax(self):
        env = CartPoleEnv(seed=0)
        assert action_from_outputs([0.2, 0.8], env) == 1

    def test_discrete_argmax_tie_breaks_to_lowest_index(self):
        """Tied maxima must select the lowest-index unit — an explicit
        contract, not an accident of whichever argmax a backend uses."""
        lunar = LunarLanderEnv(seed=0)
        assert action_from_outputs([0.7, 0.7, 0.3, 0.1], lunar) == 0
        assert action_from_outputs([0.1, 0.7, 0.7, 0.7], lunar) == 1
        assert action_from_outputs([0.5, 0.5, 0.5, 0.5], lunar) == 0
        cart = CartPoleEnv(seed=0)
        assert action_from_outputs([0.4, 0.4], cart) == 0


class TestBatchActionTranslation:
    """actions_from_outputs_batch must agree row-for-row with the scalar
    translator on every supported space."""

    def rows(self, n_rows, n_cols, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(-2.0, 2.0, size=(n_rows, n_cols))

    def test_discrete_multi_output(self):
        env = LunarLanderEnv(seed=0)
        outputs = self.rows(50, 4)
        batch = actions_from_outputs_batch(outputs, env.action_space)
        for i, row in enumerate(outputs):
            assert int(batch[i]) == action_from_outputs(list(row), env)

    def test_discrete_multi_output_ties(self):
        env = LunarLanderEnv(seed=0)
        outputs = np.array([[0.7, 0.7, 0.1, 0.7], [0.2, 0.9, 0.9, 0.1]])
        batch = actions_from_outputs_batch(outputs, env.action_space)
        assert list(batch) == [0, 1]

    @pytest.mark.parametrize(
        "row, expected",
        [
            ([0.1, np.nan], 0),
            ([np.nan, 0.1], 1),
            ([np.nan, np.nan], 0),
            ([np.nan, -np.inf], 0),
            ([-np.inf, np.nan], 0),
            ([np.nan, -0.4, 0.3, np.nan], 2),
            ([0.2, np.nan, 0.2, np.nan], 0),
            ([np.nan, np.nan, np.nan, -5.0], 3),
        ],
    )
    def test_discrete_nan_ranks_as_negative_infinity(self, row, expected):
        """Both translators rank NaN as -inf with lowest-index ties
        (np.argmax alone would pick the first NaN)."""
        env = CartPoleEnv(seed=0) if len(row) == 2 else LunarLanderEnv(seed=0)
        batch = actions_from_outputs_batch(np.array([row]), env.action_space)
        assert action_from_outputs(row, env) == expected
        assert int(batch[0]) == expected

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("env_id", ["CartPole-v0", "MountainCar-v0"])
    def test_discrete_single_output_non_finite(self, env_id, value):
        """A non-finite single output drives both translators alike;
        scaled onto Discrete(3) it picks action 0 (it used to raise in
        the scalar translator and wrap to a huge negative int in the
        batched one)."""
        env = make(env_id)
        batch = actions_from_outputs_batch(np.array([[value]]), env.action_space)
        action = action_from_outputs([value], env)
        assert int(batch[0]) == action
        if env.action_space.n > 2:
            assert action == 0

    def test_discrete_single_output_binary(self):
        env = CartPoleEnv(seed=0)
        outputs = self.rows(50, 1)
        batch = actions_from_outputs_batch(outputs, env.action_space)
        for i, row in enumerate(outputs):
            assert int(batch[i]) == action_from_outputs(list(row), env)

    def test_discrete_single_output_scaled(self):
        env = make("MountainCar-v0")  # Discrete(3)
        outputs = self.rows(50, 1, seed=3)
        batch = actions_from_outputs_batch(outputs, env.action_space)
        for i, row in enumerate(outputs):
            assert int(batch[i]) == action_from_outputs(list(row), env)

    def test_discrete_single_output_scaled_huge_activations(self):
        """Regression: a clamped-exp-sized output (~1e26) must not take
        the int64-cast-overflow path and diverge from the scalar rule."""
        env = make("MountainCar-v0")  # Discrete(3)
        outputs = np.array([[1.142e26], [-3.7e18], [8.0e15], [2.5]])
        batch = actions_from_outputs_batch(outputs, env.action_space)
        for i, row in enumerate(outputs):
            assert int(batch[i]) == action_from_outputs(list(row), env)

    def test_box(self):
        env = BipedalWalkerEnv(seed=0)
        outputs = self.rows(20, env.action_space.flat_dim, seed=1)
        batch = actions_from_outputs_batch(outputs, env.action_space)
        for i, row in enumerate(outputs):
            assert (batch[i] == action_from_outputs(list(row), env)).all()

    def test_box_short_rows_padded(self):
        env = BipedalWalkerEnv(seed=0)
        outputs = self.rows(20, 2, seed=2)
        batch = actions_from_outputs_batch(outputs, env.action_space)
        for i, row in enumerate(outputs):
            assert (batch[i] == action_from_outputs(list(row), env)).all()

    def test_multibinary(self):
        from types import SimpleNamespace

        from repro.envs.spaces import MultiBinary

        space = MultiBinary(3)
        fake_env = SimpleNamespace(action_space=space)
        outputs = self.rows(20, 3, seed=4)
        batch = actions_from_outputs_batch(outputs, space)
        for i, row in enumerate(outputs):
            assert list(batch[i]) == action_from_outputs(list(row), fake_env)

    def test_unsupported_space_rejected(self):
        with pytest.raises(TypeError):
            actions_from_outputs_batch(np.zeros((2, 2)), object())


class TestRunEpisode:
    def make_network(self, env_id="CartPole-v0"):
        env = make(env_id, seed=0)
        config = NEATConfig.for_env(env.num_observations, 2, pop_size=5)
        pop = Population(config, seed=0)
        genome = next(iter(pop.population.values()))
        return FeedForwardNetwork.create(genome, config.genome), env

    def test_episode_runs_and_counts(self):
        network, env = self.make_network()
        env.seed(3)
        result = run_episode(network, env)
        assert result.steps >= 1
        assert result.total_reward == result.steps  # CartPole: +1/step
        assert result.inference_macs == network.num_macs * result.steps

    def test_max_steps_cap(self):
        network, env = self.make_network()
        env.seed(3)
        result = run_episode(network, env, max_steps=3)
        assert result.steps <= 3


class TestFitnessEvaluator:
    def test_assigns_all_fitnesses(self):
        config = NEATConfig.for_env(4, 2, pop_size=8)
        pop = Population(config, seed=0)
        evaluator = FitnessEvaluator("CartPole-v0", episodes=1, seed=0)
        genomes = list(pop.population.values())
        evaluator(genomes, config)
        assert all(g.fitness is not None for g in genomes)

    def test_totals_accumulate(self):
        config = NEATConfig.for_env(4, 2, pop_size=4)
        pop = Population(config, seed=0)
        evaluator = FitnessEvaluator("CartPole-v0", episodes=2, seed=0)
        evaluator(list(pop.population.values()), config)
        assert evaluator.totals.episodes == 8
        assert evaluator.totals.steps >= 8

    def test_deterministic_for_seed(self):
        fits = []
        for _ in range(2):
            config = NEATConfig.for_env(4, 2, pop_size=6)
            pop = Population(config, seed=1)
            evaluator = FitnessEvaluator("CartPole-v0", episodes=1, seed=9)
            genomes = list(pop.population.values())
            evaluator(genomes, config)
            fits.append([g.fitness for g in genomes])
        assert fits[0] == fits[1]
