"""OpenAI Evolution Strategies baseline (Salimans et al. 2017, ref. [3]).

The paper repeatedly anchors against this work ("Evolution strategies as
a scalable alternative to reinforcement learning"): ES perturbs a *fixed*
topology's flat parameter vector with Gaussian noise, estimates the
gradient from episode returns, and needs no backpropagation — but unlike
NEAT it never evolves structure, and its per-generation compute is
population x full-network inference.

Implemented with antithetic (mirrored) sampling, rank centering, and
exact op accounting so it can be compared against NEAT's GLP/PLP profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..envs.base import Environment


@dataclass
class ESConfig:
    population: int = 32          # perturbation pairs per generation
    sigma: float = 0.1            # perturbation scale
    learning_rate: float = 0.03
    hidden_sizes: Tuple[int, ...] = (16,)
    episodes_per_eval: int = 1
    max_steps: Optional[int] = None


@dataclass
class ESStats:
    generations: int = 0
    episodes: int = 0
    env_steps: int = 0
    inference_macs: int = 0
    parameter_updates: int = 0  # one per parameter per generation


class ESPolicy:
    """Fixed-topology MLP policy over a flat parameter vector."""

    def __init__(self, num_inputs: int, num_outputs: int,
                 hidden_sizes: Sequence[int]) -> None:
        self.layer_sizes = [num_inputs, *hidden_sizes, num_outputs]
        self.shapes: List[Tuple[int, int]] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.shapes.append((fan_in, fan_out))
        self.num_parameters = sum(
            fan_in * fan_out + fan_out for fan_in, fan_out in self.shapes
        )
        self.macs_per_forward = sum(fi * fo for fi, fo in self.shapes)

    def unflatten(self, theta: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
        layers = []
        offset = 0
        for fan_in, fan_out in self.shapes:
            w = theta[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            b = theta[offset : offset + fan_out]
            offset += fan_out
            layers.append((w, b))
        return layers

    def forward(self, theta: np.ndarray, obs: np.ndarray) -> np.ndarray:
        h = np.asarray(obs, dtype=np.float64).ravel()
        layers = self.unflatten(theta)
        for i, (w, b) in enumerate(layers):
            h = h @ w + b
            if i < len(layers) - 1:
                h = np.tanh(h)
        return h


def centered_ranks(returns: np.ndarray) -> np.ndarray:
    """Rank transformation of Salimans et al.: robust to return scale."""
    ranks = np.empty(len(returns), dtype=np.float64)
    ranks[np.argsort(returns)] = np.arange(len(returns))
    if len(returns) == 1:
        return np.zeros(1)
    return ranks / (len(returns) - 1) - 0.5


class EvolutionStrategies:
    """Antithetic OpenAI-ES over one of the bundled environments."""

    def __init__(self, env: Environment, config: Optional[ESConfig] = None,
                 seed: int = 0) -> None:
        self.env = env
        self.config = config or ESConfig()
        self.policy = ESPolicy(
            env.num_observations, env.num_actions, self.config.hidden_sizes
        )
        self.rng = np.random.default_rng(seed)
        self.theta = 0.1 * self.rng.standard_normal(self.policy.num_parameters)
        self.stats = ESStats()
        self.history: List[float] = []

    # ------------------------------------------------------------------

    def _rollout(self, theta: np.ndarray, episode_seed: int) -> float:
        total = 0.0
        for episode in range(self.config.episodes_per_eval):
            self.env.seed(episode_seed + episode)
            obs = self.env.reset()
            limit = self.config.max_steps or self.env.max_episode_steps
            for _ in range(limit):
                logits = self.policy.forward(self.theta_view(theta), obs)
                self.stats.inference_macs += self.policy.macs_per_forward
                action = self._to_action(logits)
                obs, reward, done, _info = self.env.step(action)
                total += reward
                self.stats.env_steps += 1
                if done:
                    break
            self.stats.episodes += 1
        return total / self.config.episodes_per_eval

    @staticmethod
    def theta_view(theta: np.ndarray) -> np.ndarray:
        return theta

    def _to_action(self, logits: np.ndarray):
        from ..envs.spaces import Box, Discrete

        space = self.env.action_space
        if isinstance(space, Discrete):
            return int(np.argmax(logits[: space.n]))
        if isinstance(space, Box):
            return np.clip(
                logits[: space.flat_dim],
                space.low.ravel(),
                space.high.ravel(),
            )
        raise TypeError(f"unsupported action space {space!r}")

    # ------------------------------------------------------------------

    def run_generation(self, generation_seed: int = 0) -> float:
        """One ES update; returns the unperturbed policy's return."""
        cfg = self.config
        noise = self.rng.standard_normal((cfg.population, self.policy.num_parameters))
        returns = np.zeros(2 * cfg.population)
        for i in range(cfg.population):
            # antithetic pair shares an episode seed for variance reduction
            seed = generation_seed * 100_003 + i
            returns[2 * i] = self._rollout(self.theta + cfg.sigma * noise[i], seed)
            returns[2 * i + 1] = self._rollout(self.theta - cfg.sigma * noise[i], seed)
        ranked = centered_ranks(returns)
        advantage = ranked[0::2] - ranked[1::2]
        gradient = advantage @ noise / (cfg.population * cfg.sigma)
        self.theta = self.theta + cfg.learning_rate * gradient
        self.stats.parameter_updates += self.policy.num_parameters
        self.stats.generations += 1
        score = self._rollout(self.theta, generation_seed * 100_003 + 999)
        self.history.append(score)
        return score

    def run(self, generations: int, target: Optional[float] = None) -> float:
        best = float("-inf")
        for generation in range(generations):
            score = self.run_generation(generation_seed=generation)
            best = max(best, score)
            if target is not None and score >= target:
                break
        return best
