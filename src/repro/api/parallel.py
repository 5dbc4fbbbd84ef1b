"""Parallel fitness evaluation: the hot path of every benchmark.

Population evaluation is embarrassingly parallel — each genome's rollouts
are independent once the episode seeds are fixed.  The paper's per-genome
derived seeds (see :class:`repro.envs.evaluate.FitnessEvaluator`) make
this exact: seeds are computed in the parent with the *same* formula the
serial evaluator uses, so ``workers=N`` produces bit-identical fitnesses
to ``workers=1`` and results stay reproducible across machine sizes.

Workers are plain ``multiprocessing`` pool processes.  The pool
initializer hands each one the evaluator's
:class:`repro.envs.evaluate.Executor`, which builds its environments on
first use and re-uses them across generations, so workers run exactly
the code the in-process evaluator runs.

``vectorizer="scalar"`` maps one task per genome, letting ``Pool.map``'s
chunking balance episodes of very different lengths across workers.
``vectorizer="numpy"`` maps one contiguous slice per worker: each worker
compiles its slice into stacked plans
(:mod:`repro.neat.compiled`) and rolls the slice's episodes out in
lockstep, so large populations batch *within* processes while sharding
*across* them.  All four paths (serial/pooled × scalar/numpy) agree.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional

from .. import obs
from ..envs.evaluate import (
    Executor,
    FitnessEvaluator,
    Outcome,
    Task,
    episode_tasks,
    reduce_outcomes,
)
from ..neat.config import NEATConfig
from ..neat.genome import Genome

# Per-worker state, populated by the pool initializer: the parent's
# executor plus the genome config (shipped once, not once per task).
_WORKER_EXECUTOR: Optional[Executor] = None
_WORKER_GENOME_CONFIG = None


def _init_worker(executor: Executor, genome_config) -> None:
    global _WORKER_EXECUTOR, _WORKER_GENOME_CONFIG
    _WORKER_EXECUTOR = executor
    _WORKER_GENOME_CONFIG = genome_config


def _evaluate_genome(task: Task) -> Outcome:
    """Roll one genome out over its pre-derived episode seeds; the
    parent reduces the outcomes."""
    return _WORKER_EXECUTOR.scalar([task], _WORKER_GENOME_CONFIG)[0]


def _evaluate_chunk(chunk: List[Task]) -> List[Outcome]:
    """Run a contiguous population slice on compiled lanes in one worker."""
    # Forked workers inherit the parent's installed tracer (the path,
    # not a shared handle), so chunk spans land in the same telemetry
    # file tagged with the worker's pid.
    with obs.span("parallel.chunk", genomes=len(chunk)):
        outcomes, _plans = _WORKER_EXECUTOR.lanes(chunk, _WORKER_GENOME_CONFIG)
    return outcomes


class ParallelFitnessEvaluator(FitnessEvaluator):
    """:class:`FitnessEvaluator` whose executor runs in a process pool.

    Same constructor surface plus ``workers``; same callable protocol
    (``evaluator(genomes, config)``); same ``totals`` accounting.  Call
    :meth:`close` (or use as a context manager) to release the pool —
    the experiment runner does this automatically.
    """

    def __init__(self, env_id: str, workers: int = 2, **options) -> None:
        if workers < 2:
            raise ValueError("ParallelFitnessEvaluator needs workers >= 2; "
                             "use FitnessEvaluator for serial evaluation")
        super().__init__(env_id, **options)
        self.workers = workers
        self._pool = None
        self._pool_genome_config = None

    def _ensure_pool(self, genome_config):
        # The genome config is baked into the workers at pool creation;
        # if a caller re-uses this evaluator with a different config
        # (rare), rebuild the pool rather than evaluate against stale
        # structural parameters.
        if self._pool is not None and genome_config != self._pool_genome_config:
            self.close()
        if self._pool is None:
            self._pool = multiprocessing.get_context().Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.executor, genome_config),
            )
            self._pool_genome_config = genome_config
        return self._pool

    def _chunks(self, tasks: List[Task]) -> List[List[Task]]:
        """Contiguous slices, one per worker, so outcomes concatenate
        back in input order."""
        bounds = [
            (len(tasks) * w) // self.workers for w in range(self.workers + 1)
        ]
        return [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]

    def __call__(self, genomes: List[Genome], config: NEATConfig) -> None:
        pool = self._ensure_pool(config.genome)
        tasks = episode_tasks(genomes, self.seed, self._generation, self.episodes)
        with obs.span(
            "parallel.map",
            workers=self.workers,
            genomes=len(tasks),
            vectorizer=self.vectorizer,
        ):
            if self.vectorizer == "numpy":
                outcomes = [
                    outcome
                    for chunk_result in pool.map(
                        _evaluate_chunk, self._chunks(tasks)
                    )
                    for outcome in chunk_result
                ]
            else:
                outcomes = pool.map(_evaluate_genome, tasks)
        reduce_outcomes(genomes, outcomes, self.totals)
        self._generation += 1

    def close(self) -> None:
        """Release the pool; idempotent (safe to call repeatedly, and
        after ``__del__`` already tore the pool down)."""
        pool, self._pool = self._pool, None
        self._pool_genome_config = None
        if pool is not None:
            pool.close()
            pool.join()

    def __enter__(self) -> "ParallelFitnessEvaluator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            # terminate() alone leaves zombie processes (and leaked
            # semaphores) until the parent exits; join() reaps them.
            pool, self._pool = getattr(self, "_pool", None), None
            if pool is not None:
                pool.terminate()
                pool.join()
        except Exception:
            pass


def build_evaluator(
    env_id: str,
    episodes: int = 1,
    max_steps: Optional[int] = None,
    seed: Optional[int] = 0,
    workers: int = 1,
    vectorizer: str = "scalar",
    start_generation: int = 0,
    scenario=None,
) -> FitnessEvaluator:
    """The evaluator for a (workers, vectorizer) combination.

    ``workers=1`` runs the executor in-process; ``workers>1`` runs it in
    a pool.  ``vectorizer`` picks the scalar walk or the compiled numpy
    lanes either way, and all four combinations produce identical
    fitnesses for a fixed seed.

    ``start_generation`` pre-advances the evaluator's generation counter
    so a run resumed from a checkpoint replays the exact episode-seed
    stream the uninterrupted run would have seen (every evaluator
    derives seeds through :func:`repro.envs.seeding.episode_seed`).
    """
    options = dict(
        episodes=episodes,
        max_steps=max_steps,
        seed=seed,
        start_generation=start_generation,
        scenario=scenario,
        vectorizer=vectorizer,
    )
    if workers <= 1:
        return FitnessEvaluator(env_id, **options)
    return ParallelFitnessEvaluator(env_id, workers=workers, **options)
