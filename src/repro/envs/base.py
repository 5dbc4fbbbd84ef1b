"""Environment interface.

A from-scratch stand-in for the OpenAI gym API the paper uses (Table I):
``reset() -> observation`` and ``step(action) -> (observation, reward,
done, info)``.  Environments are the "n Environment Instances" block of
the GeneSys SoC diagram (Fig. 6) — the thing ADAM exchanges state/action
pairs with in steps 2-4 of the walkthrough.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .seeding import make_rng
from .spaces import Space

StepResult = Tuple[np.ndarray, float, bool, Dict[str, Any]]


def clamp(x: float, low: float, high: float) -> float:
    """``np.clip`` on one float for nonzero bounds; a NaN passes through."""
    return min(max(x, low), high)


def check_tunable(env_name: str, names: Iterable[str], tunable: Iterable[str],
                  error: type = ValueError) -> None:
    """Raise ``error`` if a name in ``names`` is not one of an environment's
    ``tunable`` parameters."""
    unknown = sorted(set(names) - set(tunable))
    if unknown:
        raise error(
            f"{env_name} has no tunable parameter(s) {unknown}; "
            f"tunable: {sorted(tunable)}"
        )


class Environment:
    """Base environment; subclasses implement ``_reset`` and ``_step``."""

    #: subclasses set these class-level space descriptors
    observation_space: Space
    action_space: Space
    #: hard episode cap, mirroring gym's TimeLimit wrapper
    max_episode_steps: int = 1000
    #: name -> default for every constructor-tunable physics/reward
    #: parameter; empty for environments with fixed dynamics.  Tunable
    #: environments override this plus :meth:`_apply_params`, which
    #: mirrors ``self.params`` onto the instance attributes the step
    #: function reads (shadowing the class constants).
    TUNABLE_PARAMS: Mapping[str, float] = {}

    def __init__(self, seed: Optional[int] = None, **params: float) -> None:
        self.rng: random.Random = make_rng(seed)
        self._elapsed_steps = 0
        self._done = True
        self.params: Dict[str, float] = dict(self.TUNABLE_PARAMS)
        if params:
            self.configure(**params)
        elif self.params:
            self._apply_params()

    # -- public API --------------------------------------------------------

    @classmethod
    def tunable_params(cls) -> Dict[str, float]:
        """The tunable parameter names and their defaults."""
        return dict(cls.TUNABLE_PARAMS)

    def configure(self, **params: float) -> None:
        """Override tunable physics/reward parameters on this instance."""
        check_tunable(self.name, params, self.TUNABLE_PARAMS)
        for key, value in params.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"{self.name} parameter {key!r} must be a number, "
                    f"got {value!r}"
                )
            self.params[key] = float(value)
        self._apply_params()

    def seed(self, seed: Optional[int]) -> None:
        self.rng = make_rng(seed)

    def reset(self) -> np.ndarray:
        self._elapsed_steps = 0
        self._done = False
        obs = self._reset()
        return np.asarray(obs, dtype=np.float64)

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        if not self.action_space.contains(action):
            raise ValueError(f"action {action!r} not in {self.action_space!r}")
        obs, reward, done, info = self._step(action)
        self._elapsed_steps += 1
        if self._elapsed_steps >= self.max_episode_steps:
            done = True
            info.setdefault("TimeLimit.truncated", True)
        self._done = done
        return np.asarray(obs, dtype=np.float64), float(reward), bool(done), info

    # -- subclass hooks ------------------------------------------------------

    def _apply_params(self) -> None:
        """Mirror ``self.params`` onto the attributes ``_step`` reads."""

    def _reset(self) -> np.ndarray:
        raise NotImplementedError

    def _step(self, action) -> StepResult:
        raise NotImplementedError

    # -- metadata -------------------------------------------------------------

    @property
    def name(self) -> str:
        return type(self).__name__

    @property
    def num_observations(self) -> int:
        return self.observation_space.flat_dim

    @property
    def num_actions(self) -> int:
        return self.action_space.flat_dim

    def __repr__(self) -> str:
        return (
            f"{self.name}(obs={self.observation_space!r}, act={self.action_space!r})"
        )
