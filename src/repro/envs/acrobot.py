"""Acrobot-v1: swing up a two-link pendulum by torquing the middle joint.

Port of gym's ``acrobot.py`` (Sutton 1996 "book" dynamics) with RK4
integration.  Table I lists six floating point observations (cos/sin of
both joint angles plus the two angular velocities) and a one-dimensional
action (torque direction).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

import numpy as np

from .base import Environment, clamp
from .spaces import Box, Discrete


def _wrap(x: float, low: float, high: float) -> float:
    diff = high - low
    while x > high:
        x -= diff
    while x < low:
        x += diff
    return x


class AcrobotEnv(Environment):
    DT = 0.2
    LINK_LENGTH_1 = 1.0
    LINK_LENGTH_2 = 1.0
    LINK_MASS_1 = 1.0
    LINK_MASS_2 = 1.0
    LINK_COM_POS_1 = 0.5
    LINK_COM_POS_2 = 0.5
    LINK_MOI = 1.0
    MAX_VEL_1 = 4 * math.pi
    MAX_VEL_2 = 9 * math.pi
    AVAIL_TORQUE = (-1.0, 0.0, 1.0)

    observation_space = Box(
        low=[-1.0, -1.0, -1.0, -1.0, -MAX_VEL_1, -MAX_VEL_2],
        high=[1.0, 1.0, 1.0, 1.0, MAX_VEL_1, MAX_VEL_2],
    )
    action_space = Discrete(3)
    max_episode_steps = 500
    #: Gym's reward threshold for Acrobot-v1.
    solve_threshold = -100.0

    def _reset(self) -> np.ndarray:
        self.state = np.array(
            [self.rng.uniform(-0.1, 0.1) for _ in range(4)], dtype=np.float64
        )
        return self._observation(self.state.tolist())

    @staticmethod
    def _observation(state: List[float]) -> np.ndarray:
        theta1, theta2, dtheta1, dtheta2 = state
        return np.array(
            [
                math.cos(theta1),
                math.sin(theta1),
                math.cos(theta2),
                math.sin(theta2),
                dtheta1,
                dtheta2,
            ],
            dtype=np.float64,
        )

    def _dsdt(self, state: List[float], a: float) -> Tuple[float, ...]:
        """The state's rates of change; torque ``a`` is held over a step."""
        m1, m2 = self.LINK_MASS_1, self.LINK_MASS_2
        l1 = self.LINK_LENGTH_1
        lc1, lc2 = self.LINK_COM_POS_1, self.LINK_COM_POS_2
        i1 = i2 = self.LINK_MOI
        g = 9.8
        theta1, theta2, dtheta1, dtheta2 = state
        cos_theta2 = math.cos(theta2)
        sin_theta2 = math.sin(theta2)
        d1 = (
            m1 * lc1 ** 2
            + m2 * (l1 ** 2 + lc2 ** 2 + 2 * l1 * lc2 * cos_theta2)
            + i1
            + i2
        )
        d2 = m2 * (lc2 ** 2 + l1 * lc2 * cos_theta2) + i2
        phi2 = m2 * lc2 * g * math.cos(theta1 + theta2 - math.pi / 2.0)
        phi1 = (
            -m2 * l1 * lc2 * dtheta2 ** 2 * sin_theta2
            - 2 * m2 * l1 * lc2 * dtheta2 * dtheta1 * sin_theta2
            + (m1 * lc1 + m2 * l1) * g * math.cos(theta1 - math.pi / 2)
            + phi2
        )
        # "Book" variant of the dynamics (gym default).
        ddtheta2 = (
            a + d2 / d1 * phi1 - m2 * l1 * lc2 * dtheta1 ** 2 * sin_theta2 - phi2
        ) / (m2 * lc2 ** 2 + i2 - d2 ** 2 / d1)
        ddtheta1 = -(d2 * ddtheta2 + phi1) / d1
        return dtheta1, dtheta2, ddtheta1, ddtheta2

    def _rk4(self, y0: List[float], a: float, dt: float) -> List[float]:
        """RK4 on floats, each element in the order gym's arrays used."""
        k1 = self._dsdt(y0, a)
        k2 = self._dsdt([y + dt / 2 * k for y, k in zip(y0, k1)], a)
        k3 = self._dsdt([y + dt / 2 * k for y, k in zip(y0, k2)], a)
        k4 = self._dsdt([y + dt * k for y, k in zip(y0, k3)], a)
        return [
            y + dt / 6.0 * (p + 2 * q + 2 * r + s)
            for y, p, q, r, s in zip(y0, k1, k2, k3, k4)
        ]

    def _step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        # On Python floats.  ``** 2`` stays libm's pow, as gym wrote it:
        # no port replays Acrobot, so nothing needs the product's bits.
        torque = self.AVAIL_TORQUE[action]
        new_state = self._rk4(self.state.tolist(), torque, self.DT)
        theta1 = _wrap(new_state[0], -math.pi, math.pi)
        theta2 = _wrap(new_state[1], -math.pi, math.pi)
        dtheta1 = clamp(new_state[2], -self.MAX_VEL_1, self.MAX_VEL_1)
        dtheta2 = clamp(new_state[3], -self.MAX_VEL_2, self.MAX_VEL_2)
        state = [theta1, theta2, dtheta1, dtheta2]
        self.state = np.array(state, dtype=np.float64)
        done = -math.cos(theta1) - math.cos(theta2 + theta1) > 1.0
        reward = 0.0 if done else -1.0
        return self._observation(state), reward, done, {}
