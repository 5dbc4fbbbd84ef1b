"""Unit tests for the REINFORCE policy-gradient baseline."""

import numpy as np
import pytest

from repro.baselines.reinforce import PolicyNetwork, ReinforceAgent, ReinforceConfig
from repro.envs import BipedalWalkerEnv, CartPoleEnv, make


class TestPolicyNetwork:
    def test_softmax_outputs(self):
        net = PolicyNetwork([4, 8, 3], seed=0)
        probs, _ = net.forward(np.zeros(4))
        assert probs.shape == (1, 3)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs > 0)

    def test_op_accounting(self):
        net = PolicyNetwork([4, 8, 2], seed=0)
        net.forward(np.zeros((5, 4)))
        assert net.counters.forward_macs == 5 * net.macs_per_forward
        states = np.zeros((5, 4))
        net.policy_gradient_step(states, np.zeros(5, dtype=int), np.ones(5), 0.01)
        assert net.counters.gradient_calcs == net.num_parameters
        assert net.counters.backward_macs > 0

    def test_gradient_step_moves_policy_towards_advantaged_action(self):
        net = PolicyNetwork([2, 2], seed=0)
        state = np.array([[1.0, 0.5]])
        before, _ = net.forward(state)
        # action 0 with positive advantage -> its probability should rise
        for _ in range(50):
            net.policy_gradient_step(state, np.array([0]), np.array([1.0]), 0.1)
        after, _ = net.forward(state)
        assert after[0, 0] > before[0, 0]

    def test_negative_advantage_pushes_away(self):
        net = PolicyNetwork([2, 2], seed=0)
        state = np.array([[1.0, 0.5]])
        before, _ = net.forward(state)
        for _ in range(50):
            net.policy_gradient_step(state, np.array([0]), np.array([-1.0]), 0.1)
        after, _ = net.forward(state)
        assert after[0, 0] < before[0, 0]


class TestReinforceAgent:
    def test_rejects_box_actions(self):
        with pytest.raises(TypeError):
            ReinforceAgent(BipedalWalkerEnv(seed=0))

    def test_returns_discounting(self):
        agent = ReinforceAgent(CartPoleEnv(seed=0), ReinforceConfig(gamma=0.5))
        returns = agent._returns([1.0, 1.0, 1.0])
        assert returns[2] == pytest.approx(1.0)
        assert returns[1] == pytest.approx(1.5)
        assert returns[0] == pytest.approx(1.75)

    def test_train_episode_runs_and_updates(self):
        agent = ReinforceAgent(CartPoleEnv(seed=0),
                               ReinforceConfig(max_steps=40), seed=0)
        total = agent.train_episode(episode_seed=0)
        assert total >= 1.0
        assert agent.policy.counters.updates == 1
        assert agent.env_steps >= 1

    def test_backprop_every_episode(self):
        """The paper's point: RL pays a gradient computation per reward
        batch — every episode triggers a full backward pass."""
        agent = ReinforceAgent(CartPoleEnv(seed=0),
                               ReinforceConfig(max_steps=20), seed=0)
        for episode in range(5):
            agent.train_episode(episode_seed=episode)
        assert agent.policy.counters.updates == 5
        assert agent.policy.counters.gradient_calcs == 5 * agent.policy.num_parameters

    def test_learns_cartpole_modestly(self):
        agent = ReinforceAgent(
            CartPoleEnv(seed=0),
            ReinforceConfig(hidden_sizes=(16,), learning_rate=0.02,
                            max_steps=200),
            seed=1,
        )
        first_five = [agent.train_episode(episode_seed=e) for e in range(5)]
        agent.train(episodes=60)
        last = agent.history[-5:]
        assert np.mean(last) >= np.mean(first_five) * 0.8  # no collapse
        assert np.mean(last) > 9.0  # visibly better than random flailing

    def test_target_stop(self):
        agent = ReinforceAgent(CartPoleEnv(seed=0),
                               ReinforceConfig(max_steps=30), seed=0)
        agent.train(episodes=50, target=1.0)
        assert len(agent.history) < 50
