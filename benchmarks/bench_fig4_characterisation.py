"""Fig. 4 — evolution behaviour vs generation.

(a) normalised fitness, (b) total gene count, (c) fittest-parent reuse.
One multi-run NEAT characterisation feeds all three panels; the bench
measures the cost of one full NEAT generation (evaluate + reproduce).
"""

import pytest

from conftest import bench_spec
from repro.analysis.characterization import characterise_env
from repro.analysis.reporting import render_series, render_table
from repro.api import build_evaluator
from repro.core.runner import config_for_env
from repro.neat.population import Population

#: Fig. 4(a) plots these four workloads.
FIG4A_ENVS = ["CartPole-v0", "LunarLander-v2", "MountainCar-v0", "Asterix-ram-v0"]

_CHAR_CACHE = {}


def characterisation(env_id):
    if env_id not in _CHAR_CACHE:
        _CHAR_CACHE[env_id] = characterise_env(
            env_id, runs=2, generations=8, pop_size=20, max_steps=60, base_seed=0,
        )
    return _CHAR_CACHE[env_id]


def test_fig4a_normalised_fitness(benchmark, emit):
    series = {}
    for env_id in FIG4A_ENVS:
        char = characterisation(env_id)
        series[env_id] = char.mean_normalised_fitness()
    length = max(len(s) for s in series.values())
    padded = {
        k: v + [v[-1]] * (length - len(v)) for k, v in series.items()
    }
    emit(render_series(
        "Fig 4(a): normalised best fitness vs generation (mean over runs)",
        list(range(length)), padded, x_label="gen",
    ))
    # every individual run's normalised curve peaks at exactly 1.0
    for env_id in FIG4A_ENVS:
        for curve in characterisation(env_id).normalised_fitness_curves():
            assert max(curve) == pytest.approx(1.0)

    spec = bench_spec("CartPole-v0")
    config = config_for_env(spec.env_id, pop_size=spec.pop_size)
    population = Population(config, seed=spec.seed)
    evaluator = build_evaluator(
        spec.env_id, max_steps=spec.max_steps, seed=spec.seed,
        workers=spec.workers,
    )
    benchmark(lambda: population.run_generation(evaluator))


def test_fig4b_gene_growth(benchmark, emit):
    rows = []
    for env_id in ["CartPole-v0", "LunarLander-v2", "MountainCar-v0",
                   "AirRaid-ram-v0", "Alien-ram-v0", "Asterix-ram-v0"]:
        char = characterisation(env_id)
        series = char.gene_count_series()
        rows.append([env_id, int(series[0]), int(series[-1]),
                     f"{series[-1] / series[0]:.2f}x"])
    emit(render_table(
        ["Environment", "genes @gen0", "genes @end", "growth"],
        rows,
        title="Fig 4(b): total gene count growth (population-wide)",
    ))
    # the paper's two classes: classic ~10^2-10^4 genes, Atari ~10^5
    # (scaled: Atari >> classic at any population size)
    classic = characterisation("CartPole-v0").gene_count_series()[-1]
    atari = characterisation("Alien-ram-v0").gene_count_series()[-1]
    assert atari > 10 * classic

    char = characterisation("CartPole-v0")
    benchmark(char.gene_count_series)


def test_fig4c_fittest_parent_reuse(benchmark, emit):
    rows = []
    for env_id in FIG4A_ENVS:
        char = characterisation(env_id)
        dist = char.reuse_distribution()
        if not dist:
            continue
        rows.append([env_id, min(dist), max(dist),
                     f"{sum(dist) / len(dist):.1f}"])
    emit(render_table(
        ["Environment", "min", "max", "mean"],
        rows,
        title="Fig 4(c): fittest-parent reuse per generation",
    ))
    # GLR exists: the fittest parent breeds multiple children every
    # generation (paper: ~20 mean, up to 80 at population 150; scales with
    # population — at pop 20 expect >= 2).
    for _env, _mn, mx, _mean in rows:
        assert mx >= 2

    char = characterisation("CartPole-v0")
    benchmark(char.reuse_distribution)
