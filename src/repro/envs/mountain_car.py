"""MountainCar-v0: drive an underpowered car out of a valley.

Exact port of gym's ``mountain_car.py`` (Moore 1990 dynamics): position in
[-1.2, 0.6], velocity clipped to ±0.07, goal at position 0.5.  Table I:
two floating point observations; one integer action (< 3) for direction.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

import numpy as np

from .base import Environment, clamp
from .spaces import Box, Discrete


class MountainCarEnv(Environment):
    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    GOAL_POSITION = 0.5
    FORCE = 0.001
    GRAVITY = 0.0025
    REWARD_PER_STEP = -1.0

    TUNABLE_PARAMS = {
        "force": FORCE,
        "gravity": GRAVITY,
        "goal_position": GOAL_POSITION,
        "reward_per_step": REWARD_PER_STEP,
    }

    observation_space = Box(
        low=[MIN_POSITION, -MAX_SPEED], high=[MAX_POSITION, MAX_SPEED]
    )
    action_space = Discrete(3)
    max_episode_steps = 200
    #: Gym's MountainCar-v0 "solved" bar is an average return >= -110.
    solve_threshold = -110.0

    def _apply_params(self) -> None:
        p = self.params
        self.FORCE = p["force"]
        self.GRAVITY = p["gravity"]
        self.GOAL_POSITION = p["goal_position"]
        self.REWARD_PER_STEP = p["reward_per_step"]

    def _reset(self) -> np.ndarray:
        self.state = np.array(
            [self.rng.uniform(-0.6, -0.4), 0.0], dtype=np.float64
        )
        return self.state.copy()

    def _step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        position, velocity = self.state.tolist()
        velocity += (action - 1) * self.FORCE + math.cos(3 * position) * (-self.GRAVITY)
        velocity = clamp(velocity, -self.MAX_SPEED, self.MAX_SPEED)
        position += velocity
        position = clamp(position, self.MIN_POSITION, self.MAX_POSITION)
        if position <= self.MIN_POSITION and velocity < 0:
            velocity = 0.0
        self.state = np.array([position, velocity], dtype=np.float64)
        done = position >= self.GOAL_POSITION
        reward = self.REWARD_PER_STEP
        return self.state.copy(), reward, done, {}
