"""Fig. 5 — per-generation compute ops (a) and memory footprint (b).

Distributions are pooled across generations and runs, exactly as the
paper plots them ("across all generations till convergence and 100
separate runs"; scaled down here).
"""

import pytest

from repro.analysis.characterization import characterise_env
from repro.analysis.reporting import render_distribution_table
from repro.hw.sram import SRAMConfig

ENVS = [
    "CartPole-v0",
    "MountainCar-v0",
    "LunarLander-v2",
    "AirRaid-ram-v0",
    "Alien-ram-v0",
    "Amidar-ram-v0",
]

_CACHE = {}


def characterisation(env_id):
    if env_id not in _CACHE:
        _CACHE[env_id] = characterise_env(
            env_id, runs=2, generations=6, pop_size=20, max_steps=50, base_seed=0,
        )
    return _CACHE[env_id]


def test_fig5a_ops_distribution(benchmark, emit):
    distributions = {
        env_id: characterisation(env_id).ops_distribution() for env_id in ENVS
    }
    emit(render_distribution_table(
        "Fig 5(a): crossover+mutation ops per generation", distributions
    ))
    # Two workload classes separated by >= 1 order of magnitude:
    classic_median = sorted(distributions["CartPole-v0"])[
        len(distributions["CartPole-v0"]) // 2
    ]
    atari_median = sorted(distributions["Alien-ram-v0"])[
        len(distributions["Alien-ram-v0"]) // 2
    ]
    assert atari_median > 10 * classic_median

    benchmark(characterisation("CartPole-v0").ops_distribution)


def test_fig5b_memory_footprint(benchmark, emit):
    distributions = {
        env_id: characterisation(env_id).footprint_distribution()
        for env_id in ENVS
    }
    emit(render_distribution_table(
        "Fig 5(b): memory footprint per generation (bytes)", distributions
    ))
    # Paper: "the overall memory footprint per generation was less than
    # 1MB" for every workload — and therefore fits the 1.5 MB SRAM.
    sram = SRAMConfig()
    for env_id, dist in distributions.items():
        assert max(dist) < 1 << 20, env_id
        assert max(dist) < sram.capacity_bytes, env_id

    benchmark(characterisation("CartPole-v0").footprint_distribution)
