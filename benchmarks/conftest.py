"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper.  Workload
traces are recorded once per session at a laptop-friendly scale (the
paper uses population 150 and 100 runs; we default to population 20-30
and a handful of generations — the shapes the paper reports are already
stable there, and EXPERIMENTS.md records the scale used).

The ``emit`` fixture prints through pytest's capture so the regenerated
rows/series appear in the benchmark log.
"""

import pytest

from repro.api import ExperimentSpec
from repro.core.runner import config_for_env
from repro.core.trace import TraceRecorder, WorkloadTrace
from repro.envs.evaluate import FitnessEvaluator
from repro.envs.registry import EVALUATION_SUITE
from repro.neat.population import Population

BENCH_POP = 20
BENCH_GENERATIONS = 3
BENCH_MAX_STEPS = 60


@pytest.fixture
def emit(capsys):
    """Print results through pytest's output capture."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}")

    return _emit


@pytest.fixture(scope="session")
def runs_root(tmp_path_factory):
    """Session-scoped root for benches that record run artifacts
    (:mod:`repro.runs`) — one place, cleaned up by pytest."""
    return tmp_path_factory.mktemp("bench-runs")


def record_run(spec, run_dir, **kwargs):
    """Run a spec with durable artifacts (benchmark-scale wrapper over
    :func:`repro.runs.run_in_dir`)."""
    from repro.runs import run_in_dir

    return run_in_dir(spec, run_dir, **kwargs)


_TRACE_CACHE = {}


def bench_spec(env_id: str, pop_size: int = BENCH_POP,
               generations: int = BENCH_GENERATIONS,
               max_steps: int = BENCH_MAX_STEPS, seed: int = 0) -> ExperimentSpec:
    """The laptop-scale spec every bench derives its runs from."""
    return ExperimentSpec(
        env_id,
        max_generations=generations,
        pop_size=pop_size,
        max_steps=max_steps,
        seed=seed,
    )


def get_trace(env_id: str, pop_size: int = BENCH_POP,
              generations: int = BENCH_GENERATIONS,
              max_steps: int = BENCH_MAX_STEPS, seed: int = 0) -> WorkloadTrace:
    key = (env_id, pop_size, generations, max_steps, seed)
    if key not in _TRACE_CACHE:
        spec = bench_spec(env_id, pop_size, generations, max_steps, seed)
        _TRACE_CACHE[key] = TraceRecorder(spec).record(
            spec.max_generations
        )
    return _TRACE_CACHE[key]


@pytest.fixture(scope="session")
def evaluation_traces():
    """Recorded workload traces for the paper's six evaluation envs."""
    return {env_id: get_trace(env_id) for env_id in EVALUATION_SUITE}


_REPLAY_CACHE = {}


def get_replay_workload(env_id="Alien-ram-v0", pop_size=16,
                        warm_generations=1, seed=0, max_steps=40):
    """An evaluated population + reproduction plan ready for EvE replay.

    Cached per session like :func:`get_trace`, so the Fig. 11 ablations
    (and any other EvE replay bench) share one recording.
    """
    key = (env_id, pop_size, warm_generations, seed, max_steps)
    if key not in _REPLAY_CACHE:
        config = config_for_env(env_id, pop_size=pop_size)
        population = Population(config, seed=seed)
        evaluator = FitnessEvaluator(env_id, max_steps=max_steps, seed=seed)
        for _ in range(warm_generations):
            population.run_generation(evaluator)
        genomes = list(population.population.values())
        evaluator(genomes, config)
        population.species_set.adjust_fitnesses(population.generation)
        plan = population.reproduction.plan_generation(
            population.species_set, population.generation, population.rng
        )
        _REPLAY_CACHE[key] = (config, population.population, plan)
    return _REPLAY_CACHE[key]


def fresh_buffer(config, population):
    """A new GenomeBuffer loaded with an evaluated population — replays
    mutate buffer state, so every replay starts from a fresh one."""
    from repro.hw.gene_encoding import encode_genome
    from repro.hw.sram import GenomeBuffer

    buffer = GenomeBuffer()
    for gkey, genome in population.items():
        buffer.write_genome(gkey, encode_genome(genome, config.genome))
        buffer.set_fitness(gkey, genome.fitness)
    return buffer
