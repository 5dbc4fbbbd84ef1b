"""The benchmark's workloads and one measured evolution run.

Every workload evolves CartPole-v0 from a seed given on the command line.
One *run* is a whole experiment started from scratch: set-up (spec and
backend resolution, initial population, evaluator, env batch and pool
construction, run directory, warm-up generations) followed by a fixed
number of timed generations.  A measurement repeats runs for a fixed
wall time; every run covers the same generation sequence whatever the
machine's speed, and each run yields one set-up sample.

Generation boundaries are read in the loop's ``should_stop`` hook, which
both backends poll after everything a generation does (evaluation,
reproduction, metrics, checkpoint), so a timed generation is the wall
time from one boundary to the next.

On a shared host the CPU's speed itself changes, by up to about 1.9x,
in phases lasting from seconds to minutes (other tenants load the same
cores' caches and memory).  So a calibrated run also times a fixed slice
of interpreter and small-array work at every boundary, and divides each
generation's wall time by the host's slowdown around it: the mean of
the slices at its two ends over ``CAL_REF_S``.  Times are then seconds
at the reference speed, and a change to the program moves them while a
change in the host's load does not.  A pooled workload's slices run on
every CPU in turn, since its workers use all of them.  The scaling
halves the spread of a generation's repeats on such a host; the fastest
of the repeats (``measure``) removes most of the rest.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Experiment, ExperimentSpec
from repro.runs import run_in_dir

perf = time.perf_counter

#: The calibration slice's time on an unloaded 2-vCPU Xeon host (2.0 GHz
#: nominal, Python 3.11): the reference speed times are scaled to.
CAL_REF_S = 0.35e-3
_CAL_MATRIX = np.arange(256, dtype=float).reshape(16, 16) / 256.0


def _calibration_slice() -> float:
    """Seconds one fixed slice of interpreter and small-array work takes."""
    t0 = perf()
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    v = _CAL_MATRIX[0]
    for _ in range(40):
        v = np.tanh(_CAL_MATRIX @ v)
    return perf() - t0


def _cpu_slowdown() -> float:
    # The best of three slices, so one interrupt is not a slow phase.
    return min(_calibration_slice() for _ in range(3)) / CAL_REF_S


def slowdown(every_cpu: bool = False) -> float:
    """The host's current slowdown against the reference speed, on the
    CPU this process runs on or, with ``every_cpu``, averaged over all
    CPUs it may use: each CPU's speed changes on its own, and pool
    workers run on all of them."""
    if not every_cpu:
        return _cpu_slowdown()
    cpus = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speeds.append(_cpu_slowdown())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(speeds) / len(speeds)


#: Far above CartPole-v0's 200-step episode cap.  Without a pinned
#: threshold ``config_for_env`` falls back to the env's solve threshold
#: (195), champions reach 200 within two generations and every run would
#: stop before its timed window.
UNREACHABLE_FITNESS = 1e9

ENV_ID = "CartPole-v0"

_SOFTWARE_LOOP = (
    "api.loop",
    "neat.population.run_generation",
    "neat.species.speciate",
    "neat.genome.distance",
    "neat.reproduction.reproduce",
)
_COMPILED_ROLLOUT = (
    "neat.compiled.compile_network",
    "neat.compiled.stack",
    "neat.compiled.policy_step",
    "envs.evaluate.rollout",
    "envs.batched.start",
    "envs.batched.step",
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec_fields: Dict[str, Any]
    warmup: int
    timed: int
    #: experiment seeds (evolution trajectories) one benchmark seed runs
    trajectories: int
    #: run through ``repro.runs.run_in_dir`` with a checkpoint per generation
    durable: bool
    #: layers the traced run must see called at least once
    layers: Tuple[str, ...]

    @property
    def pop_size(self) -> int:
        return self.spec_fields["pop_size"]

    @property
    def generations(self) -> int:
        return self.warmup + self.timed

    @property
    def pooled(self) -> bool:
        return self.spec_fields.get("workers", 1) > 1

    @property
    def simulated(self) -> bool:
        return self.spec_fields.get("backend") == "soc"

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            env_id=ENV_ID,
            seed=seed,
            max_generations=self.generations,
            fitness_threshold=UNREACHABLE_FITNESS,
            **self.spec_fields,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cartpole-numpy-p1000",
            spec_fields=dict(pop_size=1000, vectorizer="numpy"),
            warmup=2,
            timed=4,
            trajectories=4,
            durable=False,
            layers=_SOFTWARE_LOOP + _COMPILED_ROLLOUT,
        ),
        Workload(
            name="cartpole-soc-p150",
            spec_fields=dict(pop_size=150, backend="soc"),
            warmup=2,
            timed=4,
            trajectories=4,
            durable=False,
            layers=(
                "api.loop",
                "core.soc.run_generation",
                "core.soc.evaluate_population",
                "core.soc.evolve_population",
                "hw.gene_encoding.decode_genome",
                "hw.adam.build_inference_plan",
                "hw.adam.envelope_charge",
                "hw.selector.select",
                "hw.eve.reproduce_generation",
                "hw.pe.process_pair",
                "neat.species.speciate",
                "neat.genome.distance",
            ) + _COMPILED_ROLLOUT,
        ),
        Workload(
            name="cartpole-pool2-p150-ckpt",
            spec_fields=dict(pop_size=150, vectorizer="scalar", workers=2),
            warmup=2,
            timed=4,
            trajectories=8,
            durable=True,
            layers=_SOFTWARE_LOOP + (
                "api.parallel.map",
                "api.parallel.wait",
                "api.parallel.pool_start",
                "api.parallel.task",
                "neat.network.activate",
                "envs.evaluate.run_episode",
                "envs.step",
                "neat.serialize.to_state",
                "runs.checkpoint",
                "runs.append_metrics",
            ),
        ),
    )
}


@dataclass
class RunRecord:
    """What one evolution run produced."""

    setup_s: float = 0.0
    #: seconds of each timed generation (speed-scaled when calibrated)
    gen_s: List[float] = field(default_factory=list)
    #: functional digest, one row per generation (warm-up included)
    digest: List[list] = field(default_factory=list)
    #: perf_counter bounds of the timed window
    window: Tuple[float, float] = (0.0, 0.0)
    error: Optional[str] = None


def digest_row(metrics, report=None) -> list:
    """One generation's functional outcome; soc rows add the exact
    simulated counters, so a simulator change that alters them fails."""
    row = [
        metrics.generation,
        metrics.best_fitness,
        round(metrics.mean_fitness, 6),
        metrics.num_genes,
        metrics.num_species,
        metrics.env_steps,
    ]
    if report is not None:
        row += [
            report.inference_cycles,
            report.evolution_cycles,
            report.evolution.pe_stats.busy_cycles,
            report.energy.sram_reads + report.energy.sram_writes,
            report.evolution.noc_stats.genes_delivered,
            round(report.energy.total_energy_j * 1e6, 6),
        ]
    return row


#: Digest row layout, for readers of the stored digests.
DIGEST_FIELDS = (
    "generation", "best_fitness", "mean_fitness", "num_genes", "num_species",
    "env_steps",
)
SIM_DIGEST_FIELDS = (
    "adam_cycles", "eve_cycles", "pe_busy_cycles", "sram_accesses",
    "noc_genes_delivered", "energy_uj",
)


def plausible(row: list, pop_size: int) -> bool:
    """CartPole-v0 invariants every generation must satisfy: rewards are
    one per step (so the population's summed fitness equals its env
    steps) and an episode lasts at most 200 steps."""
    _gen, best, mean, genes, species, steps = row[:6]
    return (
        0 < mean <= best <= 200
        and genes >= pop_size
        and species >= 1
        and abs(mean * pop_size - steps) <= 1e-4 * pop_size
    )


def run_once(workload: Workload, seed: int, run_dir: Path,
             tracer=None, calibrated: bool = False) -> RunRecord:
    """One evolution run from scratch; exceptions are recorded, not raised.

    ``calibrated`` scales set-up and generation times to the reference
    host speed (see the module docstring)."""
    gc.collect()
    if tracer is not None:
        tracer.begin_run()
    record = RunRecord()
    # (entered, left, host slowdown) of every boundary hook
    marks: List[Tuple[float, float, float]] = []
    rows: list = []

    def on_generation(metrics) -> None:
        rows.append(metrics)

    def should_stop(done: int) -> bool:
        entered = perf()
        slow = slowdown(workload.pooled) if calibrated else 1.0
        marks.append((entered, perf(), slow))
        if tracer is not None:
            if done == workload.warmup:
                tracer.set_phase("timed")
            elif done == workload.generations:
                tracer.set_phase("teardown")
        return False

    start_slow = slowdown(workload.pooled) if calibrated else 1.0
    start = perf()
    try:
        spec = workload.spec(seed)
        if workload.durable:
            result = run_in_dir(
                spec, run_dir, checkpoint_every=1,
                on_generation=on_generation, should_stop=should_stop,
            )
        else:
            result = Experiment(spec).run(
                on_generation=on_generation, should_stop=should_stop
            )
    except Exception as exc:  # a failed generation is a measured outcome
        record.error = f"{type(exc).__name__}: {exc}"
        result = None
    reports = result.reports if result is not None and result.reports else None
    record.digest = [
        digest_row(m, reports[i] if reports else None)
        for i, m in enumerate(rows)
    ]
    if len(marks) >= workload.warmup:
        entered, _left, slow = marks[workload.warmup - 1]
        hooks = sum(b - a for a, b, _ in marks[:workload.warmup - 1])
        record.setup_s = (entered - start - hooks) * 2 / (start_slow + slow)
        timed = marks[workload.warmup - 1:]
        # A generation runs from leaving one hook to entering the next.
        record.gen_s = [
            (b[0] - a[1]) * 2 / (a[2] + b[2]) for a, b in zip(timed, timed[1:])
        ]
        record.window = (timed[0][1], timed[-1][0])
    return record
