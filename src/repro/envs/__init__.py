"""Environment substrate: gym-equivalent workloads from Table I."""

from .acrobot import AcrobotEnv
from .atari_ram import (
    AirRaidRamEnv,
    AlienRamEnv,
    AmidarRamEnv,
    AsterixRamEnv,
    AtariRAMEnv,
    RAM_SIZE,
)
from .base import Environment
from .batched import (
    BatchedEnv,
    BatchedTemplateError,
    LockstepEnvs,
    VectorizedCartPole,
    VectorizedMountainCar,
    make_batched,
    register_batched,
)
from .bipedal import BipedalWalkerEnv
from .cartpole import CartPoleEnv
from .evaluate import (
    EpisodeResult,
    EvaluationTotals,
    FitnessEvaluator,
    action_from_outputs,
    actions_from_outputs_batch,
    run_episode,
    run_episodes_batched,
)
from .lunar_lander import LunarLanderEnv
from .mountain_car import MountainCarEnv
from .registry import (
    ATARI_SUITE,
    CANONICAL_IDS,
    CLASSIC_SUITE,
    EVALUATION_SUITE,
    UnknownEnvironmentError,
    available,
    make,
    register,
    unregister,
)
from .seeding import derive_seed, make_rng
from .spaces import Box, Discrete, MultiBinary, Space

__all__ = [
    "ATARI_SUITE",
    "AcrobotEnv",
    "AirRaidRamEnv",
    "AlienRamEnv",
    "AmidarRamEnv",
    "AsterixRamEnv",
    "AtariRAMEnv",
    "BatchedEnv",
    "BatchedTemplateError",
    "BipedalWalkerEnv",
    "Box",
    "CANONICAL_IDS",
    "CLASSIC_SUITE",
    "CartPoleEnv",
    "Discrete",
    "Environment",
    "EpisodeResult",
    "EvaluationTotals",
    "EVALUATION_SUITE",
    "FitnessEvaluator",
    "LockstepEnvs",
    "LunarLanderEnv",
    "MountainCarEnv",
    "MultiBinary",
    "RAM_SIZE",
    "Space",
    "UnknownEnvironmentError",
    "VectorizedCartPole",
    "VectorizedMountainCar",
    "action_from_outputs",
    "actions_from_outputs_batch",
    "available",
    "derive_seed",
    "make",
    "make_batched",
    "make_rng",
    "register",
    "register_batched",
    "run_episode",
    "run_episodes_batched",
    "unregister",
]
