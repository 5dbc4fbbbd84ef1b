"""Experience replay memory for the DQN baseline (Table II).

Tracks its own byte footprint exactly, since Table II's comparison point
is "50 MB for replay memory of 100 entries" for DQN vs "<1 MB to fit
entire generation" for the EA.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool

    @property
    def nbytes(self) -> int:
        # two state tensors + action/reward/done scalars
        return int(self.state.nbytes + self.next_state.nbytes + 8 + 8 + 1)


class ReplayMemory:
    """Fixed-capacity ring buffer of transitions."""

    def __init__(self, capacity: int, seed: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: List[Transition] = []
        self._cursor = 0
        self.rng = random.Random(seed)

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> None:
        transition = Transition(
            np.asarray(state, dtype=np.float32),
            int(action),
            float(reward),
            np.asarray(next_state, dtype=np.float32),
            bool(done),
        )
        if len(self._buffer) < self.capacity:
            self._buffer.append(transition)
        else:
            self._buffer[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int) -> List[Transition]:
        if batch_size > len(self._buffer):
            raise ValueError(
                f"cannot sample {batch_size} from {len(self._buffer)} transitions"
            )
        return self.rng.sample(self._buffer, batch_size)

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)
