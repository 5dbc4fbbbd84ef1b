"""numpy-scalar reference for the classic-control physics.

MountainCar's ``_step`` and Acrobot's ``_dsdt``/``_rk4``/``_step`` as
``repro.envs`` ran them before they computed on Python floats: the state
is unpacked into numpy scalars, MountainCar clamps with ``np.clip``, and
Acrobot integrates RK4 on five-element arrays (the torque appended with
``np.append``).  The classes subclass the shipped environments, so the
constants, spaces and tunable parameters are theirs.
``tests/test_env_differential.py`` steps each shipped environment beside
its reference and compares observations and states by bytes; nothing
under ``src/`` imports this module.

CartPole has no reference here: its oracle is the
``repro.envs.batched.VectorizedCartPole`` lanes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

import numpy as np

from repro.envs.acrobot import AcrobotEnv
from repro.envs.mountain_car import MountainCarEnv


def _wrap(x: float, low: float, high: float) -> float:
    diff = high - low
    while x > high:
        x -= diff
    while x < low:
        x += diff
    return x


def _bound(x: float, low: float, high: float) -> float:
    return min(max(x, low), high)


class ReferenceMountainCar(MountainCarEnv):
    def _step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        position, velocity = self.state
        velocity += (action - 1) * self.FORCE + math.cos(3 * position) * (-self.GRAVITY)
        velocity = float(np.clip(velocity, -self.MAX_SPEED, self.MAX_SPEED))
        position += velocity
        position = float(np.clip(position, self.MIN_POSITION, self.MAX_POSITION))
        if position <= self.MIN_POSITION and velocity < 0:
            velocity = 0.0
        self.state = np.array([position, velocity], dtype=np.float64)
        done = bool(position >= self.GOAL_POSITION)
        reward = self.REWARD_PER_STEP
        return self.state.copy(), reward, done, {}


class ReferenceAcrobot(AcrobotEnv):
    def _reset(self) -> np.ndarray:
        self.state = np.array(
            [self.rng.uniform(-0.1, 0.1) for _ in range(4)], dtype=np.float64
        )
        return self._observation()

    def _observation(self) -> np.ndarray:
        theta1, theta2, dtheta1, dtheta2 = self.state
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

    def _dsdt(self, augmented: np.ndarray) -> np.ndarray:
        m1, m2 = self.LINK_MASS_1, self.LINK_MASS_2
        l1 = self.LINK_LENGTH_1
        lc1, lc2 = self.LINK_COM_POS_1, self.LINK_COM_POS_2
        i1 = i2 = self.LINK_MOI
        g = 9.8
        a = augmented[-1]
        theta1, theta2, dtheta1, dtheta2 = augmented[:-1]
        d1 = (
            m1 * lc1 ** 2
            + m2 * (l1 ** 2 + lc2 ** 2 + 2 * l1 * lc2 * math.cos(theta2))
            + i1
            + i2
        )
        d2 = m2 * (lc2 ** 2 + l1 * lc2 * math.cos(theta2)) + i2
        phi2 = m2 * lc2 * g * math.cos(theta1 + theta2 - math.pi / 2.0)
        phi1 = (
            -m2 * l1 * lc2 * dtheta2 ** 2 * math.sin(theta2)
            - 2 * m2 * l1 * lc2 * dtheta2 * dtheta1 * math.sin(theta2)
            + (m1 * lc1 + m2 * l1) * g * math.cos(theta1 - math.pi / 2)
            + phi2
        )
        # "Book" variant of the dynamics (gym default).
        ddtheta2 = (
            a + d2 / d1 * phi1 - m2 * l1 * lc2 * dtheta1 ** 2 * math.sin(theta2) - phi2
        ) / (m2 * lc2 ** 2 + i2 - d2 ** 2 / d1)
        ddtheta1 = -(d2 * ddtheta2 + phi1) / d1
        return np.array([dtheta1, dtheta2, ddtheta1, ddtheta2, 0.0], dtype=np.float64)

    def _rk4(self, y0: np.ndarray, dt: float) -> np.ndarray:
        k1 = self._dsdt(y0)
        k2 = self._dsdt(y0 + dt / 2 * k1)
        k3 = self._dsdt(y0 + dt / 2 * k2)
        k4 = self._dsdt(y0 + dt * k3)
        return y0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    def _step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        torque = self.AVAIL_TORQUE[action]
        augmented = np.append(self.state, torque)
        new_state = self._rk4(augmented, self.DT)[:4]
        theta1 = _wrap(new_state[0], -math.pi, math.pi)
        theta2 = _wrap(new_state[1], -math.pi, math.pi)
        dtheta1 = _bound(new_state[2], -self.MAX_VEL_1, self.MAX_VEL_1)
        dtheta2 = _bound(new_state[3], -self.MAX_VEL_2, self.MAX_VEL_2)
        self.state = np.array([theta1, theta2, dtheta1, dtheta2], dtype=np.float64)
        done = bool(
            -math.cos(theta1) - math.cos(theta2 + theta1) > 1.0
        )
        reward = 0.0 if done else -1.0
        return self._observation(), reward, done, {}
