"""Environment registry: ``make("CartPole-v0")`` etc.

Ids follow the OpenAI gym names the paper uses in its figures
(e.g. "CartPole_v0", "Alien-ram-v0"); lookup is punctuation- and
case-insensitive so the exact label spelling from any paper figure works.
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
#: normalised key -> the display spelling it was registered under.
_DISPLAY: Dict[str, str] = {}


def _normalise(env_id: str) -> str:
    return "".join(ch for ch in env_id.lower() if ch.isalnum())


def register(env_id: str, cls: Type[Environment]) -> None:
    key = _normalise(env_id)
    _REGISTRY[key] = cls
    _DISPLAY[key] = env_id


def unregister(env_id: str) -> None:
    """Remove a registered environment (mainly for test hygiene)."""
    key = _normalise(env_id)
    if key not in _REGISTRY:
        raise UnknownEnvironmentError(f"unknown environment {env_id!r}")
    del _REGISTRY[key]
    _DISPLAY.pop(key, None)


def make(env_id: str, seed: Optional[int] = None) -> Environment:
    """Instantiate a registered environment by (fuzzy) id."""
    key = _normalise(env_id)
    if key not in _REGISTRY:
        raise UnknownEnvironmentError(
            f"unknown environment {env_id!r}; known: {available()}"
        )
    return _REGISTRY[key](seed=seed)


def available() -> List[str]:
    """Every registered id: canonical paper spellings first, then extras."""
    canonical_keys = {_normalise(env_id): env_id for env_id in CANONICAL_IDS}
    listed = sorted(
        env_id for key, env_id in canonical_keys.items() if key in _REGISTRY
    )
    listed += sorted(
        display
        for key, display in _DISPLAY.items()
        if key not in canonical_keys
    )
    return listed


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
