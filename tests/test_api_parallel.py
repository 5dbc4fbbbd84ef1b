"""Serial-vs-parallel fitness evaluation determinism.

The acceptance bar for the parallel path: ``workers=N`` must reproduce
``workers=1`` bit-for-bit, because episode seeds are derived per genome
in the parent with the same formula the serial evaluator uses.
"""

import pytest

from repro.api import (
    Experiment,
    ExperimentSpec,
    ParallelFitnessEvaluator,
    build_evaluator,
)
from repro.core.runner import config_for_env
from repro.envs.evaluate import FitnessEvaluator
from repro.neat.population import Population


def _fitness_map(evaluator, seed=3, pop_size=12):
    config = config_for_env("CartPole-v0", pop_size=pop_size)
    population = Population(config, seed=seed)
    genomes = list(population.population.values())
    evaluator(genomes, config)
    return {g.key: g.fitness for g in genomes}, evaluator.totals


class TestBuildEvaluator:
    def test_serial_for_one_worker(self):
        assert isinstance(build_evaluator("CartPole-v0", workers=1),
                          FitnessEvaluator)

    def test_parallel_for_many_workers(self):
        evaluator = build_evaluator("CartPole-v0", workers=2)
        assert isinstance(evaluator, ParallelFitnessEvaluator)
        evaluator.close()

    def test_parallel_rejects_single_worker(self):
        with pytest.raises(ValueError):
            ParallelFitnessEvaluator("CartPole-v0", workers=1)

    def test_batched_for_numpy_vectorizer(self):
        evaluator = build_evaluator("CartPole-v0", workers=1, vectorizer="numpy")
        assert type(evaluator) is FitnessEvaluator
        assert evaluator.vectorizer == "numpy"

    def test_parallel_carries_vectorizer(self):
        evaluator = build_evaluator(
            "CartPole-v0", workers=2, vectorizer="numpy"
        )
        assert isinstance(evaluator, ParallelFitnessEvaluator)
        assert evaluator.vectorizer == "numpy"
        evaluator.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_vectorizer_rejected(self, workers):
        with pytest.raises(ValueError, match="vectorizer"):
            build_evaluator("CartPole-v0", workers=workers, vectorizer="cuda")


class TestDeterminism:
    def test_parallel_matches_serial_fitness_map(self):
        serial_fits, serial_totals = _fitness_map(
            FitnessEvaluator("CartPole-v0", episodes=2, max_steps=60, seed=11)
        )
        with ParallelFitnessEvaluator(
            "CartPole-v0", episodes=2, max_steps=60, seed=11, workers=2
        ) as parallel:
            parallel_fits, parallel_totals = _fitness_map(parallel)
        assert parallel_fits == serial_fits
        assert parallel_totals.episodes == serial_totals.episodes
        assert parallel_totals.steps == serial_totals.steps
        assert parallel_totals.macs == serial_totals.macs

    def test_parallel_matches_serial_across_generations(self):
        """Whole-run parity on CartPole: per-generation best/mean series
        and the champion are identical for workers=1 and workers=2."""
        spec = ExperimentSpec(
            "CartPole-v0", max_generations=4, pop_size=16, max_steps=50,
            seed=5, fitness_threshold=1e9,
        )
        serial = Experiment(spec).run()
        parallel = Experiment(spec.replace(workers=2)).run()
        assert [m.best_fitness for m in serial.metrics] == \
            [m.best_fitness for m in parallel.metrics]
        assert [m.mean_fitness for m in serial.metrics] == \
            [m.mean_fitness for m in parallel.metrics]
        assert [m.env_steps for m in serial.metrics] == \
            [m.env_steps for m in parallel.metrics]
        assert serial.champion.fitness == parallel.champion.fitness
        assert serial.generations == parallel.generations

    def test_pooled_vectorized_matches_serial_fitness_map(self):
        """workers=2 + numpy: each worker batch-evaluates its slice;
        fitnesses and totals must still be bit-identical to serial."""
        serial_fits, serial_totals = _fitness_map(
            FitnessEvaluator("CartPole-v0", episodes=2, max_steps=60, seed=11)
        )
        with ParallelFitnessEvaluator(
            "CartPole-v0", episodes=2, max_steps=60, seed=11, workers=2,
            vectorizer="numpy",
        ) as pooled:
            pooled_fits, pooled_totals = _fitness_map(pooled)
        assert pooled_fits == serial_fits
        assert pooled_totals.episodes == serial_totals.episodes
        assert pooled_totals.steps == serial_totals.steps
        assert pooled_totals.macs == serial_totals.macs


class TestLifecycle:
    def test_close_is_idempotent(self):
        evaluator = ParallelFitnessEvaluator("CartPole-v0", workers=2)
        _fitness_map(evaluator)
        evaluator.close()
        evaluator.close()

    def test_pool_reused_across_generations(self):
        with ParallelFitnessEvaluator(
            "CartPole-v0", max_steps=30, seed=0, workers=2
        ) as evaluator:
            _fitness_map(evaluator)
            pool = evaluator._pool
            _fitness_map(evaluator)
            assert evaluator._pool is pool

    def test_del_then_close_is_clean(self):
        """__del__ must reap workers (terminate + join), and close() must
        stay a safe no-op afterwards — no zombies, no double-release."""
        evaluator = ParallelFitnessEvaluator("CartPole-v0", workers=2)
        _fitness_map(evaluator)
        pool = evaluator._pool
        assert pool is not None
        evaluator.__del__()
        assert evaluator._pool is None
        # every worker is reaped, not left as a zombie
        for proc in pool._pool:
            assert proc.exitcode is not None
        evaluator.close()
        evaluator.close()

    def test_close_then_del_is_clean(self):
        evaluator = ParallelFitnessEvaluator("CartPole-v0", workers=2)
        _fitness_map(evaluator)
        evaluator.close()
        evaluator.__del__()  # nothing left to tear down
