"""Environment registry: ``make("CartPole-v0")`` etc.

Ids follow the OpenAI gym names the paper uses (Table I), and lookup is
exact: ``make("cartpole-v0")`` raises, listing the known ids, so an id
in a spec names one environment in every process.  :func:`register`
adds an environment class (code, which a spec cannot carry by value);
tests use it, with :func:`unregister`, to substitute throwaway envs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from .acrobot import AcrobotEnv
from .atari_ram import AirRaidRamEnv, AlienRamEnv, AmidarRamEnv, AsterixRamEnv
from .base import Environment
from .bipedal import BipedalWalkerEnv
from .cartpole import CartPoleEnv
from .lunar_lander import LunarLanderEnv
from .mountain_car import MountainCarEnv


class UnknownEnvironmentError(KeyError):
    pass


_REGISTRY: Dict[str, Type[Environment]] = {}


def register(env_id: str, cls: Type[Environment]) -> None:
    _REGISTRY[env_id] = cls


def unregister(env_id: str) -> None:
    """Remove a registered environment (mainly for test hygiene)."""
    if env_id not in _REGISTRY:
        raise UnknownEnvironmentError(f"unknown environment {env_id!r}")
    del _REGISTRY[env_id]


def make(env_id: str, seed: Optional[int] = None) -> Environment:
    """Instantiate the environment registered under exactly ``env_id``."""
    cls = _REGISTRY.get(env_id)
    if cls is None:
        raise UnknownEnvironmentError(
            f"unknown environment {env_id!r}; known: {available()}"
        )
    return cls(seed=seed)


def available() -> List[str]:
    """Every registered id: canonical paper ids first, then extras."""
    canonical = sorted(env_id for env_id in CANONICAL_IDS if env_id in _REGISTRY)
    return canonical + sorted(set(_REGISTRY).difference(CANONICAL_IDS))


#: Canonical ids as the paper spells them (Table I / figure axis labels).
CANONICAL_IDS = [
    "CartPole-v0",
    "MountainCar-v0",
    "Acrobot-v1",
    "LunarLander-v2",
    "BipedalWalker-v2",
    "AirRaid-ram-v0",
    "Alien-ram-v0",
    "Asterix-ram-v0",
    "Amidar-ram-v0",
]

#: The six environments used in the Fig. 9/10 evaluation sweeps.
EVALUATION_SUITE = [
    "CartPole-v0",
    "MountainCar-v0",
    "LunarLander-v2",
    "AirRaid-ram-v0",
    "Amidar-ram-v0",
    "Alien-ram-v0",
]

#: The smaller "classic" class vs the Atari class (Fig. 5 discussion).
CLASSIC_SUITE = ["CartPole-v0", "MountainCar-v0", "LunarLander-v2"]
ATARI_SUITE = ["AirRaid-ram-v0", "Alien-ram-v0", "Asterix-ram-v0", "Amidar-ram-v0"]

for _env_id, _cls in [
    ("CartPole-v0", CartPoleEnv),
    ("MountainCar-v0", MountainCarEnv),
    ("Acrobot-v1", AcrobotEnv),
    ("LunarLander-v2", LunarLanderEnv),
    ("BipedalWalker-v2", BipedalWalkerEnv),
    ("AirRaid-ram-v0", AirRaidRamEnv),
    ("Alien-ram-v0", AlienRamEnv),
    ("Asterix-ram-v0", AsterixRamEnv),
    ("Amidar-ram-v0", AmidarRamEnv),
]:
    register(_env_id, _cls)
