"""Batched environments: many episode lanes stepped per call.

The paper's SoC runs "n Environment Instances" against the inference
engine (Fig. 6); the software mirror of that block is a *batched*
environment that advances every in-flight episode in lockstep, so the
vectorized inference path (:mod:`repro.neat.compiled`) can feed one
packed observation matrix per step instead of one Python call per lane.

Two implementations ship:

* :class:`LockstepEnvs` — the generic fallback: wraps one scalar
  :class:`repro.envs.Environment` per lane and steps each in Python.
  Works for every registered environment; bit-identical to the scalar
  path by construction.
* Vectorized ports (:class:`VectorizedCartPole`,
  :class:`VectorizedMountainCar`) — the whole physics update is numpy
  over the lane axis.  The scalar ``_step`` computes on Python floats,
  and the port replays it operation for operation (numpy elementwise
  float64 ops are IEEE-754 identical to Python float ops), so
  trajectories match the scalar environments exactly.  Both sides
  spell a square as a product: libm's ``pow(v, 2.0)``, which a float's
  ``** 2`` calls, can miss ``v * v`` in the last bit on some hosts.
  ``np.cos``/``np.sin`` pick their kernels by SIMD level; their
  agreement with ``math.cos``/``math.sin`` is tested at reduced SIMD
  too (``tests/test_batched_envs.py``, ``tests/test_env_differential.py``).

A lane is one episode: it is seeded once via :meth:`BatchedEnv.start`
and never restarts.  Finished lanes are dropped with :meth:`prune` so
late steps only pay for live episodes.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple, Type

import numpy as np

from .base import Environment
from .cartpole import CartPoleEnv
from .mountain_car import MountainCarEnv
from .registry import make
from .spaces import Discrete, MultiBinary

#: step() result: (observations, rewards, dones) for the live lanes.
BatchedStep = Tuple[np.ndarray, np.ndarray, np.ndarray]


class BatchedTemplateError(TypeError):
    """A scalar template a vectorized port cannot replay bit-exactly.

    Raised when a wrapped or subclassed environment is offered as the
    template for a numpy physics port: the port replays the *class*
    dynamics, so anything that intercepts ``step``/``reset`` (perturbation
    wrappers, custom subclasses) must run on the lockstep fallback
    instead.  :func:`make_batched` catches this and falls back.
    """


class BatchedEnv:
    """Interface: n episode lanes advanced in lockstep.

    ``start(seeds)`` opens one lane per seed and returns the stacked
    initial observations; ``step(actions)`` advances every live lane;
    ``prune(keep)`` drops finished lanes (boolean mask over the current
    live lanes, in order).  Spaces and the step limit mirror the scalar
    environment so action translation code is shared.
    """

    #: the scalar environment class this batches (set by subclasses)
    env_id: str

    observation_space = None
    action_space = None
    max_episode_steps: int = 1000

    def start(self, seeds: Sequence[int]) -> np.ndarray:
        raise NotImplementedError

    def step(self, actions: np.ndarray) -> BatchedStep:
        raise NotImplementedError

    def prune(self, keep: np.ndarray) -> None:
        raise NotImplementedError


class LockstepEnvs(BatchedEnv):
    """Generic fallback: one scalar environment per lane, stepped in Python.

    No numpy win on the physics, but the inference side still batches, and
    every registered environment works unmodified.  Environments are kept
    across generations (``start`` re-seeds them) to avoid rebuild cost.
    """

    def __init__(
        self,
        env_id: str,
        factory: Callable[[], Environment] = None,
    ) -> None:
        self.env_id = env_id
        self._make = factory if factory is not None else (lambda: make(env_id))
        template = self._make()
        self.observation_space = template.observation_space
        self.action_space = template.action_space
        self.max_episode_steps = template.max_episode_steps
        self._envs: List[Environment] = [template]
        self._live: List[Environment] = []

    def start(self, seeds: Sequence[int]) -> np.ndarray:
        while len(self._envs) < len(seeds):
            self._envs.append(self._make())
        self._live = self._envs[: len(seeds)]
        obs = np.empty((len(seeds), self.observation_space.flat_dim))
        for i, (env, seed) in enumerate(zip(self._live, seeds)):
            env.seed(seed)
            obs[i] = env.reset().ravel()
        return obs

    def step(self, actions) -> BatchedStep:
        n = len(self._live)
        obs = np.empty((n, self.observation_space.flat_dim))
        rewards = np.empty(n)
        dones = np.empty(n, dtype=bool)
        space = self.action_space
        for i, env in enumerate(self._live):
            action = actions[i]
            if isinstance(space, Discrete):
                action = int(action)
            elif isinstance(space, MultiBinary):
                action = [int(a) for a in action]
            o, r, d, _info = env.step(action)
            obs[i] = o.ravel()
            rewards[i] = r
            dones[i] = d
        return obs, rewards, dones

    def prune(self, keep: np.ndarray) -> None:
        self._live = [env for env, k in zip(self._live, keep) if k]


class _StateMatrixEnv(BatchedEnv):
    """Base for numpy-state ports: per-lane state rows, lockstep physics."""

    #: scalar class mirrored (spaces / step limit / state sampler source)
    scalar_cls: Type[Environment] = Environment
    #: ``rng.random()`` draws the scalar ``reset`` makes per episode
    initial_draws: int = 0

    def __init__(self, env_id: str, template: Environment = None) -> None:
        self.env_id = env_id
        if template is None:
            template = self.scalar_cls()
        elif type(template) is not self.scalar_cls:
            # A wrapper or subclass intercepts step()/reset(); the numpy
            # physics below would silently drop that behaviour.  Refuse,
            # so make_batched() routes to the lockstep fallback.
            raise BatchedTemplateError(
                f"{type(self).__name__} replays {self.scalar_cls.__name__} "
                f"dynamics exactly; cannot batch {type(template).__name__}"
            )
        #: physics constants are read off the template *instance*, so a
        #: parameterised (but unwrapped) scalar env vectorizes correctly.
        self._template = template
        self.observation_space = template.observation_space
        self.action_space = template.action_space
        self.max_episode_steps = template.max_episode_steps
        self.state = np.empty((0, self.observation_space.flat_dim))
        self._elapsed = 0

    def start(self, seeds: Sequence[int]) -> np.ndarray:
        # One generator re-seeded per lane gives each lane the draws a
        # fresh ``make_rng(seed)`` would.
        rng = random.Random()
        draw = rng.random
        draws: List[float] = []
        for seed in seeds:
            rng.seed(seed)
            draws += [draw() for _ in range(self.initial_draws)]
        self.state = self._initial_states(
            np.array(draws, dtype=np.float64).reshape(len(seeds), self.initial_draws)
        )
        self._elapsed = 0
        return self.state.copy()

    def step(self, actions) -> BatchedStep:
        state, rewards, dones = self._step_batch(self.state, np.asarray(actions))
        self.state = state
        self._elapsed += 1
        if self._elapsed >= self.max_episode_steps:
            # gym TimeLimit semantics: every lane still alive is truncated.
            dones = np.ones_like(dones)
        # _step_batch builds a fresh state matrix every call, so the
        # returned observations never alias a buffer that later mutates.
        return state, rewards, dones

    def prune(self, keep: np.ndarray) -> None:
        self.state = np.compress(keep, self.state, axis=0)

    # -- subclass hooks ---------------------------------------------------

    def _initial_states(self, draws: np.ndarray) -> np.ndarray:
        """Initial state rows from each lane's ``(lanes, initial_draws)``
        draws; ``rng.uniform(a, b)`` is ``a + (b - a) * draw``."""
        raise NotImplementedError

    def _step_batch(
        self, state: np.ndarray, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


class VectorizedCartPole(_StateMatrixEnv):
    """CartPole physics over the lane axis; exact replay of the scalar port."""

    scalar_cls = CartPoleEnv
    initial_draws = 4

    def _initial_states(self, draws):
        return -0.05 + (0.05 - -0.05) * draws

    def _step_batch(self, state, actions):
        c = self._template
        theta, theta_dot = state[:, 2], state[:, 3]
        force = np.where(actions == 1, c.FORCE_MAG, -c.FORCE_MAG)
        cos_theta = np.cos(theta)
        sin_theta = np.sin(theta)
        temp = (
            force + c.POLE_MASS_LENGTH * (theta_dot * theta_dot) * sin_theta
        ) / c.TOTAL_MASS
        theta_acc = (c.GRAVITY * sin_theta - cos_theta * temp) / (
            c.LENGTH
            * (4.0 / 3.0 - c.MASS_POLE * (cos_theta * cos_theta) / c.TOTAL_MASS)
        )
        x_acc = temp - c.POLE_MASS_LENGTH * theta_acc * cos_theta / c.TOTAL_MASS
        # x += TAU * x_dot, x_dot += TAU * x_acc, ...: one update of the
        # whole state by its rates of change.
        rates = np.empty_like(state)
        rates[:, 0::2] = state[:, 1::2]
        rates[:, 1] = x_acc
        rates[:, 3] = theta_acc
        next_state = state + c.TAU * rates
        # |x| > t is exactly x < -t or x > t, NaN included.
        done = (np.abs(next_state[:, 0]) > c.X_THRESHOLD) | (
            np.abs(next_state[:, 2]) > c.THETA_THRESHOLD
        )
        return next_state, np.full(len(state), c.REWARD_PER_STEP), done


class VectorizedMountainCar(_StateMatrixEnv):
    """MountainCar physics over the lane axis; exact replay of the scalar port."""

    scalar_cls = MountainCarEnv
    initial_draws = 1

    def _initial_states(self, draws):
        position = -0.6 + (-0.4 - -0.6) * draws[:, 0]
        return np.stack([position, np.zeros_like(position)], axis=1)

    def _step_batch(self, state, actions):
        c = self._template
        position, velocity = state[:, 0], state[:, 1]
        # Parenthesised exactly like the scalar `velocity += a + b`:
        # float addition is not associative, and bitwise replay is the
        # contract.
        velocity = velocity + (
            (actions - 1) * c.FORCE + np.cos(3 * position) * (-c.GRAVITY)
        )
        velocity = np.clip(velocity, -c.MAX_SPEED, c.MAX_SPEED)
        position = position + velocity
        position = np.clip(position, c.MIN_POSITION, c.MAX_POSITION)
        velocity = np.where((position <= c.MIN_POSITION) & (velocity < 0), 0.0, velocity)
        next_state = np.stack([position, velocity], axis=1)
        done = position >= c.GOAL_POSITION
        return next_state, np.full(len(position), c.REWARD_PER_STEP), done


#: Environment ids with a numpy physics port; everything else falls back
#: to :class:`LockstepEnvs`.
_VECTORIZED_PORTS: Dict[str, Type[_StateMatrixEnv]] = {
    "CartPole-v0": VectorizedCartPole,
    "MountainCar-v0": VectorizedMountainCar,
}


def make_batched(
    env_id: str, factory: Callable[[], Environment] = None
) -> BatchedEnv:
    """A batched environment for ``env_id``: numpy port if one exists,
    else the generic per-lane lockstep fallback.

    ``factory`` (optional) builds the scalar environments — the hook for
    parameterised/wrapped scenario envs.  A vectorized port accepts the
    factory's env as its template only when it is *exactly* the scalar
    class the numpy physics replays (parameter overrides ride along via
    instance attributes); a wrapped or subclassed env raises
    :class:`BatchedTemplateError` and drops to :class:`LockstepEnvs`,
    which steps the factory's envs directly and is therefore
    bit-identical to the scalar path by construction.
    """
    vectorized = _VECTORIZED_PORTS.get(env_id)
    if vectorized is not None:
        if factory is None:
            return vectorized(env_id)
        try:
            return vectorized(env_id, template=factory())
        except BatchedTemplateError:
            pass
    return LockstepEnvs(env_id, factory=factory)
