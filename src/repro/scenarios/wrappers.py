"""Adversarial perturbation wrappers over any registered environment.

Each wrapper owns a ``random.Random`` stream *separate* from the inner
environment's: seeding a wrapper with episode seed ``s`` derives the
wrapper stream as ``derive_seed(s, salt)`` (splitmix64, the same
primitive every other seed in the system flows through) while forwarding
the raw ``s`` inward.  Consequences:

* the inner env's trajectory noise is decoupled from the perturbation
  noise (toggling a wrapper never perturbs the base env's reset state);
* determinism is per-episode: the same ``episode_seed`` replays the same
  perturbations, so serial / worker-pool / lockstep-batched evaluation
  stay bit-identical (the lockstep fallback drives these same objects).

Wrappers compose; each perturbation in a scenario gets a distinct salt
from its kind and position in the stack, so stacking two wrappers of the
same kind still yields independent streams.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..envs.base import Environment, StepResult, check_tunable
from ..envs.seeding import derive_seed, make_rng

#: per-kind base salts for the wrapper rng streams (arbitrary, frozen:
#: changing one changes every perturbed trajectory).
KIND_SALTS = {
    "observation_noise": 101,
    "action_dropout": 202,
    "parameter_jitter": 303,
}


def wrapper_salt(kind: str, position: int) -> int:
    """The rng-stream salt for the ``position``-th perturbation."""
    return KIND_SALTS[kind] + 7919 * position


class PerturbationWrapper(Environment):
    """Base: delegate the env protocol to ``inner``, own a derived rng.

    The inner environment keeps enforcing action validation and the
    TimeLimit, so the wrapper overrides ``reset``/``step``/``seed``
    wholesale instead of the ``_reset``/``_step`` hooks.
    """

    kind = "perturbation"

    def __init__(self, inner: Environment, salt: int) -> None:
        self.inner = inner
        self._salt = salt
        self.rng = make_rng(None)
        self.observation_space = inner.observation_space
        self.action_space = inner.action_space
        self.max_episode_steps = inner.max_episode_steps

    def seed(self, seed: Optional[int]) -> None:
        self.rng = make_rng(derive_seed(seed, self._salt))
        self.inner.seed(seed)

    def reset(self) -> np.ndarray:
        return self._wrap_reset()

    def step(self, action) -> StepResult:
        return self._wrap_step(action)

    def configure(self, **params: float) -> None:
        self.inner.configure(**params)

    def tunable_params(self):
        return self.inner.tunable_params()

    # -- subclass hooks ----------------------------------------------------

    def _wrap_reset(self) -> np.ndarray:
        return self.inner.reset()

    def _wrap_step(self, action) -> StepResult:
        return self.inner.step(action)

    # -- metadata ----------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{type(self).__name__}({self.inner.name})"

    @property
    def params(self):
        return self.inner.params

    @params.setter
    def params(self, value):  # Environment.__init__ is bypassed
        raise AttributeError("set params on the inner environment")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


class ObservationNoiseWrapper(PerturbationWrapper):
    """Additive Gaussian sensor noise on every observation component."""

    kind = "observation_noise"

    def __init__(self, inner: Environment, salt: int, std: float = 0.05) -> None:
        super().__init__(inner, salt)
        self.std = std

    def _noisy(self, obs: np.ndarray) -> np.ndarray:
        if self.std == 0.0:
            return obs
        noise = np.array(
            [self.rng.gauss(0.0, self.std) for _ in range(obs.size)]
        ).reshape(obs.shape)
        return obs + noise

    def _wrap_reset(self) -> np.ndarray:
        return self._noisy(self.inner.reset())

    def _wrap_step(self, action) -> StepResult:
        obs, reward, done, info = self.inner.step(action)
        return self._noisy(obs), reward, done, info


class ActionDropoutWrapper(PerturbationWrapper):
    """Actuator faults: with probability ``prob`` the chosen action is
    replaced by a uniformly random one before the env executes it."""

    kind = "action_dropout"

    def __init__(self, inner: Environment, salt: int, prob: float = 0.1) -> None:
        super().__init__(inner, salt)
        self.prob = prob

    def _wrap_step(self, action) -> StepResult:
        if self.prob > 0.0 and self.rng.random() < self.prob:
            action = self.inner.action_space.sample(self.rng)
        return self.inner.step(action)


class ParameterJitterWrapper(PerturbationWrapper):
    """Non-stationary physics: at every reset each targeted tunable is
    scaled by ``1 + U(-scale, +scale)`` around its configured value."""

    kind = "parameter_jitter"

    def __init__(
        self,
        inner: Environment,
        salt: int,
        scale: float = 0.05,
        params: Tuple[str, ...] = (),
    ) -> None:
        super().__init__(inner, salt)
        self.scale = scale
        base = inner.params
        names = params or tuple(sorted(base))
        check_tunable(inner.name, names, base)
        #: the pre-jitter values; jitter is always relative to these.
        self._base = {name: base[name] for name in names}

    def _wrap_reset(self) -> np.ndarray:
        if self.scale > 0.0:
            jittered = {
                name: value * (1.0 + self.rng.uniform(-self.scale, self.scale))
                for name, value in sorted(self._base.items())
            }
            self.inner.configure(**jittered)
        return self.inner.reset()


#: kind -> wrapper class, aligned with spec.PERTURBATION_KINDS.
WRAPPER_CLASSES = {
    "observation_noise": ObservationNoiseWrapper,
    "action_dropout": ActionDropoutWrapper,
    "parameter_jitter": ParameterJitterWrapper,
}


def apply_perturbation(inner: Environment, spec, position: int) -> Environment:
    """Wrap ``inner`` with the perturbation described by ``spec``."""
    import dataclasses

    cls = WRAPPER_CLASSES[spec.kind]
    salt = wrapper_salt(spec.kind, position)
    return cls(inner, salt, **dataclasses.asdict(spec.params))
