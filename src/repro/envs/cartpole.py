"""CartPole-v0: balance an inverted pendulum on a moving platform.

Exact port of the OpenAI gym classic-control dynamics (Barto, Sutton &
Anderson 1983 as implemented in gym's ``cartpole.py``): Euler integration
at 0.02 s, force ±10 N, termination at |x| > 2.4 m or |theta| > 12 deg.
Table I: four floating point observations, one binary action.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

import numpy as np

from .base import Environment
from .spaces import Box, Discrete


class CartPoleEnv(Environment):
    GRAVITY = 9.8
    MASS_CART = 1.0
    MASS_POLE = 0.1
    TOTAL_MASS = MASS_CART + MASS_POLE
    LENGTH = 0.5  # half the pole's length
    POLE_MASS_LENGTH = MASS_POLE * LENGTH
    FORCE_MAG = 10.0
    TAU = 0.02  # seconds between state updates
    REWARD_PER_STEP = 1.0

    X_THRESHOLD = 2.4
    THETA_THRESHOLD = 12 * 2 * math.pi / 360

    TUNABLE_PARAMS = {
        "gravity": GRAVITY,
        "masscart": MASS_CART,
        "masspole": MASS_POLE,
        "length": LENGTH,
        "force_mag": FORCE_MAG,
        "tau": TAU,
        "x_threshold": X_THRESHOLD,
        "reward_per_step": REWARD_PER_STEP,
    }

    observation_space = Box(
        low=[-4.8, -np.inf, -0.418, -np.inf],
        high=[4.8, np.inf, 0.418, np.inf],
    )
    action_space = Discrete(2)
    max_episode_steps = 200
    #: Paper (Table I): balance "for 100 consecutive time steps" wins.
    solve_threshold = 100.0

    def _apply_params(self) -> None:
        p = self.params
        self.GRAVITY = p["gravity"]
        self.MASS_CART = p["masscart"]
        self.MASS_POLE = p["masspole"]
        self.TOTAL_MASS = self.MASS_CART + self.MASS_POLE
        self.LENGTH = p["length"]
        self.POLE_MASS_LENGTH = self.MASS_POLE * self.LENGTH
        self.FORCE_MAG = p["force_mag"]
        self.TAU = p["tau"]
        self.X_THRESHOLD = p["x_threshold"]
        self.REWARD_PER_STEP = p["reward_per_step"]

    def _reset(self) -> np.ndarray:
        self.state = np.array(
            [self.rng.uniform(-0.05, 0.05) for _ in range(4)], dtype=np.float64
        )
        return self.state.copy()

    def _step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        # On Python floats; squares are products, as numpy's array ``** 2``
        # is: libm's ``pow(v, 2.0)`` can miss ``v * v`` in the last bit.
        x, x_dot, theta, theta_dot = self.state.tolist()
        force = self.FORCE_MAG if action == 1 else -self.FORCE_MAG
        cos_theta = math.cos(theta)
        sin_theta = math.sin(theta)
        temp = (
            force + self.POLE_MASS_LENGTH * (theta_dot * theta_dot) * sin_theta
        ) / self.TOTAL_MASS
        theta_acc = (self.GRAVITY * sin_theta - cos_theta * temp) / (
            self.LENGTH
            * (4.0 / 3.0 - self.MASS_POLE * (cos_theta * cos_theta) / self.TOTAL_MASS)
        )
        x_acc = temp - self.POLE_MASS_LENGTH * theta_acc * cos_theta / self.TOTAL_MASS

        x += self.TAU * x_dot
        x_dot += self.TAU * x_acc
        theta += self.TAU * theta_dot
        theta_dot += self.TAU * theta_acc
        self.state = np.array([x, x_dot, theta, theta_dot], dtype=np.float64)

        done = (
            x < -self.X_THRESHOLD
            or x > self.X_THRESHOLD
            or theta < -self.THETA_THRESHOLD
            or theta > self.THETA_THRESHOLD
        )
        reward = self.REWARD_PER_STEP
        return self.state.copy(), reward, done, {}
