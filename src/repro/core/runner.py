"""NEAT configuration sized to an environment."""

from __future__ import annotations

from typing import Optional

from ..envs.registry import make
from ..neat.config import NEATConfig


def config_for_env(
    env_id: str,
    pop_size: int = 150,
    fitness_threshold: Optional[float] = None,
) -> NEATConfig:
    """NEAT config sized to an environment (Section III-B's recipe)."""
    env = make(env_id)
    threshold = fitness_threshold
    if threshold is None:
        threshold = getattr(env, "solve_threshold", None)
    return NEATConfig.for_env(
        env.num_observations,
        max(2, env.num_actions),
        pop_size=pop_size,
        fitness_threshold=threshold,
    )
