"""REINFORCE policy-gradient baseline.

The paper's core contrast (Section II-C): "RL perturbs the action space
and uses backpropagation (which is computation and memory heavy) to
compute parameter updates, while EA perturbs the parameter space ...
directly."  This module is the minimal honest member of the
backprop-per-reward family: Monte-Carlo policy gradient with a running
baseline, counting forward MACs, backward MACs and gradient calculations
so its compute/memory profile can sit next to NEAT's in Table II style
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..envs.base import Environment
from ..envs.spaces import Discrete
from .dqn import OpCounters


@dataclass
class ReinforceConfig:
    hidden_sizes: Tuple[int, ...] = (32,)
    learning_rate: float = 1e-2
    gamma: float = 0.99
    baseline_momentum: float = 0.9
    max_steps: Optional[int] = None


class PolicyNetwork:
    """Softmax policy MLP with manual backprop and op accounting."""

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.layer_sizes = list(layer_sizes)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self.counters = OpCounters()

    @property
    def num_parameters(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    @property
    def macs_per_forward(self) -> int:
        return sum(w.size for w in self.weights)

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        activations = [h]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < len(self.weights) - 1:
                h = np.tanh(h)
            activations.append(h)
        logits = h - h.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        self.counters.forward_macs += self.macs_per_forward * activations[0].shape[0]
        self.counters.forward_passes += activations[0].shape[0]
        return probs, activations

    def policy_gradient_step(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        advantages: np.ndarray,
        learning_rate: float,
    ) -> None:
        """One REINFORCE update: grad log pi(a|s) * advantage."""
        probs, activations = self.forward(states)
        batch = states.shape[0]
        grad_logits = probs.copy()
        grad_logits[np.arange(batch), actions] -= 1.0
        grad_logits *= advantages[:, None] / batch

        grad_out = grad_logits
        for layer in reversed(range(len(self.weights))):
            a_in = activations[layer]
            grad_w = a_in.T @ grad_out
            grad_b = grad_out.sum(axis=0)
            self.counters.backward_macs += self.weights[layer].size * batch * 2
            if layer > 0:
                grad_in = grad_out @ self.weights[layer].T
                grad_out = grad_in * (1.0 - activations[layer] ** 2)  # tanh'
            self.weights[layer] -= learning_rate * grad_w
            self.biases[layer] -= learning_rate * grad_b
        self.counters.gradient_calcs += self.num_parameters
        self.counters.updates += 1


class ReinforceAgent:
    """Monte-Carlo policy gradient on a Discrete-action environment."""

    def __init__(self, env: Environment, config: Optional[ReinforceConfig] = None,
                 seed: int = 0) -> None:
        if not isinstance(env.action_space, Discrete):
            raise TypeError("REINFORCE baseline supports Discrete actions only")
        self.env = env
        self.config = config or ReinforceConfig()
        self.policy = PolicyNetwork(
            [env.num_observations, *self.config.hidden_sizes, env.num_actions],
            seed=seed,
        )
        self.rng = np.random.default_rng(seed)
        self.baseline = 0.0
        self.history: List[float] = []
        self.env_steps = 0

    def _returns(self, rewards: List[float]) -> np.ndarray:
        out = np.zeros(len(rewards))
        running = 0.0
        for t in reversed(range(len(rewards))):
            running = rewards[t] + self.config.gamma * running
            out[t] = running
        return out

    def train_episode(self, episode_seed: Optional[int] = None) -> float:
        if episode_seed is not None:
            self.env.seed(episode_seed)
        obs = self.env.reset()
        states: List[np.ndarray] = []
        actions: List[int] = []
        rewards: List[float] = []
        limit = self.config.max_steps or self.env.max_episode_steps
        for _ in range(limit):
            probs, _ = self.policy.forward(obs.ravel())
            action = int(self.rng.choice(len(probs[0]), p=probs[0]))
            states.append(obs.ravel().copy())
            actions.append(action)
            obs, reward, done, _info = self.env.step(action)
            rewards.append(reward)
            self.env_steps += 1
            if done:
                break
        total = float(sum(rewards))
        returns = self._returns(rewards)
        cfg = self.config
        self.baseline = (
            cfg.baseline_momentum * self.baseline
            + (1 - cfg.baseline_momentum) * returns.mean()
        )
        advantages = returns - self.baseline
        scale = advantages.std()
        if scale > 1e-8:
            advantages = advantages / scale
        self.policy.policy_gradient_step(
            np.stack(states), np.array(actions), advantages, cfg.learning_rate
        )
        self.history.append(total)
        return total

    def train(self, episodes: int, target: Optional[float] = None) -> float:
        best = float("-inf")
        for episode in range(episodes):
            total = self.train_episode(episode_seed=episode)
            best = max(best, total)
            if target is not None and total >= target:
                break
        return best
