"""The one generation summary, as every substrate reports it.

``repro.neat.statistics.summarise_generation`` runs right after a
generation's reproduction, so a row describes one generation: the
population it evaluated, that population's genes, and the reproduction
it performed.  These tests check each substrate against the plan the
generation made, counted here without the library's own rule.
"""

from collections import Counter

import pytest

from repro.api import Experiment, ExperimentSpec
from repro.api.backends import AnalyticalBackend
from repro.api.parallel import build_evaluator
from repro.core.config import GeneSysConfig
from repro.core.runner import config_for_env
from repro.core.soc import GeneSysSoC
from repro.hw.eve import EvEConfig
from repro.neat import MutationCounts, Population

ENV = "CartPole-v0"


def fittest_parent_reuse(plan, evaluated):
    """Fig. 4(c): how many children the fittest genome that parented any
    child took part in (the lower key on a tie); 0 without a plan."""
    usage = Counter()
    for event in plan.events if plan is not None else ():
        usage.update({event.parent1_key, event.parent2_key})
    if not usage:
        return 0
    fittest = max(usage, key=lambda key: (evaluated[key].fitness, -key))
    return usage[fittest]


def software_generations(seed, pop_size, generations, max_steps=None):
    """(summary, plan made, evaluated genomes) per software generation."""
    population = Population(config_for_env(ENV, pop_size), seed=seed)
    evaluate = build_evaluator(ENV, max_steps=max_steps, seed=seed)
    for _ in range(generations):
        evaluated = population.population
        stats = population.run_generation(evaluate)
        yield stats, population.last_plan, evaluated


def analytical_generations(seed, pop_size, generations, max_steps=None):
    """The same, from the workloads an analytical run prices."""
    backend = AnalyticalBackend("GENESYS")
    workloads, plans, evaluated = [], [], []
    price = backend._on_workload

    def on_workload(row, workload):
        workloads.append(workload)
        price(row, workload)

    backend._on_workload = on_workload
    backend.run(
        ExperimentSpec(
            ENV, backend="analytical:GENESYS", max_generations=generations,
            pop_size=pop_size, seed=seed, max_steps=max_steps,
            fitness_threshold=1e9,
        ),
        on_evaluation=lambda _gen, genomes: evaluated.append(
            {genome.key: genome for genome in genomes}
        ),
        on_state=lambda population: plans.append(population.last_plan),
    )
    return zip(workloads, plans, evaluated)


def soc_generations(seed, pop_size, generations, max_steps=None,
                    env_id=ENV, neat=None):
    """The same, from the chip model's reports."""
    config = GeneSysConfig(
        neat=neat or config_for_env(env_id, pop_size),
        eve=EvEConfig(num_pes=8), seed=seed,
    )
    soc = GeneSysSoC(config, env_id, max_steps=max_steps)
    soc.initialise_population()
    for _ in range(generations):
        evaluated = soc.population
        report = soc.run_generation()
        yield report.stats, soc._last_selection.plan, evaluated


def test_reuse_on_cartpole_seed_0_population_50():
    """Each generation's fittest parent was reused this often; rows that
    scored the previous generation's plan reported [0, 9, 11, 9, 11, 4]."""
    rows = list(software_generations(0, 50, 6))
    assert [stats.fittest_parent_reuse for stats, _, _ in rows] == \
        [9, 13, 8, 11, 4, 7]
    for stats, plan, evaluated in rows:
        assert stats.fittest_parent_reuse == fittest_parent_reuse(plan, evaluated)


@pytest.mark.parametrize(
    "generations",
    [software_generations, analytical_generations, soc_generations],
    ids=["software", "analytical", "soc"],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reuse_is_the_fittest_parents_in_this_generations_plan(generations, seed):
    rows = list(generations(seed, 20, 4, max_steps=60))
    assert len(rows) == 4
    for summary, plan, evaluated in rows:
        assert summary.fittest_parent_reuse == \
            fittest_parent_reuse(plan, evaluated)
        # ops are this generation's reproduction
        assert summary.ops == (
            plan.total_counts if plan is not None else MutationCounts()
        )


def test_soc_extinction_generation_reports_no_reuse():
    """With no elites and a one-generation stagnation limit the species
    die out; the CPU re-seeds and EvE runs no wave, so nothing is reused."""
    neat = config_for_env("MountainCar-v0", pop_size=10)
    neat.species.max_stagnation = 1
    neat.species.species_elitism = 0
    rows = list(soc_generations(
        0, 10, 4, max_steps=20, env_id="MountainCar-v0", neat=neat
    ))
    extinct = [stats for stats, plan, _ in rows if plan is None]
    assert extinct, "no extinction generation"
    assert all(stats.fittest_parent_reuse == 0 for stats in extinct)
    assert all(stats.ops.total == 0 for stats in extinct)


def test_footprint_is_this_generations_genes():
    for backend in ("software", "analytical:GENESYS", "soc"):
        result = Experiment(ExperimentSpec(
            ENV, backend=backend, max_generations=3, pop_size=30, seed=0,
            max_steps=60, fitness_threshold=1e9,
        )).run()
        assert len(result.metrics) == 3
        for row in result.metrics:
            assert row.footprint_bytes == row.num_genes * 8, backend
