"""Measurements: rounds of runs for one workload and seed, checked and reduced.

A benchmark seed stands for several experiment seeds (trajectories); a
round runs each once, and rounds repeat until ``--seconds`` of wall time
have passed.  End-to-end runs are calibrated: each generation's time is
scaled to the reference host speed (see ``workloads``).  Every round
repeats identical work, so the remaining noise is filtered per
generation: each timed generation's time is the fastest of its repeats
(what noise is left is almost all added delay, as ``timeit`` also
assumes).  The first run of a measurement only warms up (imports,
allocator, CPU clock); its output is checked but not timed.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import tracer as tracer_mod
import workloads

#: On these experiment seeds the soc backend's EvE emits a cyclic child
#: genome within 18 generations, and ``build_inference_plan`` raises.
#: That is a defect of the EvE gene merge, not of the benchmark; the
#: workloads avoid it so that no operation fails on any benchmark seed.
_CYCLIC_ON_SOC = (26, 95, 124)
#: The experiment seeds benchmark seeds map onto (shared by all workloads).
SEED_POOL = tuple(s for s in range(256) if s not in _CYCLIC_ON_SOC)
#: Fewest rounds (one run per trajectory) per measurement, so every timed
#: generation has repeats to take the fastest of.
MIN_ROUNDS = 2
#: Stop starting new runs after this much wall time, whatever
#: ``--seconds`` asked for, so one invocation stays well under 180 s.
WALL_CAP_S = 120.0


class Measurement:
    """The output check and operation counts over a measurement's runs."""

    def __init__(self, workload, expected) -> None:
        self.workload = workload
        self.references = dict(expected.get(workload.name, {}))
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, record, seed: int) -> bool:
        """Count the run's generations; a generation that raised, breaks a
        CartPole invariant or differs from the reference digest fails.
        The reference is the stored digest for this seed, else the first
        run's (every run of a seed must reproduce it exactly).  Returns
        whether measuring may go on."""
        reference = self.references.get(str(seed))
        if reference is None and record.error is None:
            reference = self.references[str(seed)] = record.digest
        total = self.workload.generations
        self.attempted += total
        bad = 0
        for i in range(total):
            row = record.digest[i] if i < len(record.digest) else None
            if (
                row is None
                or reference is None
                or row != reference[i]
                or not workloads.plausible(row, self.workload.pop_size)
            ):
                bad += 1
        self.failed += bad
        if record.error is not None:
            self.errors.append(f"seed {seed}: {record.error}")
        elif bad:
            self.errors.append(f"seed {seed}: {bad} generation digest(s) differ")
        return record.error is None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def run_seeds(workload, seed: int) -> List[int]:
    """The experiment seeds one benchmark seed stands for.

    Evolution trajectories differ in cost from seed to seed (episode
    lengths, genome growth, species counts), so every measurement
    averages several trajectories instead of betting on one.
    """
    k = workload.trajectories
    return [SEED_POOL[(seed * k + i) % len(SEED_POOL)] for i in range(k)]


def best_per_generation(rounds) -> List[float]:
    """Each timed generation's fastest host time over the rounds (every
    round runs the same trajectories, so generation *k* of trajectory *j*
    is the same work in each)."""
    flat = [[g for record in records for g in record.gen_s] for records in rounds]
    return [min(times) for times in zip(*flat)]


def _run(workload, seed: int, scratch: Path, tracer=None,
         calibrated: bool = False):
    run_dir = scratch / f"run-{seed}"
    try:
        return workloads.run_once(
            workload, seed, run_dir, tracer=tracer, calibrated=calibrated
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _round(workload, seeds, scratch: Path, m: Measurement, t=None,
           calibrated: bool = False):
    """One run per trajectory seed; None once a run raises.  Returns the
    records and, with a tracer, the pool workers' busy seconds."""
    records, busy = [], 0.0
    for seed in seeds:
        if t is not None:
            t.install()
            try:
                record = _run(workload, seed, scratch, tracer=t)
            finally:
                t.uninstall()
            busy += t.merge_workers(*record.window)
        else:
            record = _run(workload, seed, scratch, calibrated=calibrated)
        if not m.check(record, seed):
            return None, busy
        records.append(record)
    return records, busy


def _timed_s(rounds) -> float:
    return sum(sum(r.gen_s) for records in rounds for r in records)


def _done(start: float, seconds: float, rounds: int) -> bool:
    """Measuring ends once ``seconds`` of wall time have passed since the
    warm-up run and at least ``MIN_ROUNDS`` rounds are in."""
    elapsed = time.perf_counter() - start
    return (elapsed >= seconds and rounds >= MIN_ROUNDS) or elapsed > WALL_CAP_S


def measure_end_to_end(workload, seed: int, seconds: float, scratch: Path,
                       expected) -> Tuple[Measurement, Dict[str, float]]:
    m = Measurement(workload, expected)
    seeds = run_seeds(workload, seed)
    rounds = []
    if m.check(_run(workload, seeds[0], scratch), seeds[0]):
        start = time.perf_counter()
        while True:
            records, _ = _round(workload, seeds, scratch, m, calibrated=True)
            if records is None:
                break
            rounds.append(records)
            if _done(start, seconds, len(rounds)):
                break
    if not rounds:
        return m, {}
    best = best_per_generation(rounds)
    return m, {
        "genomes_per_s": workload.pop_size * len(best) / sum(best),
        "gen_s_p50": statistics.median(best),
        "setup_s": statistics.median(
            r.setup_s for records in rounds for r in records
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_per_layer(workload, seed: int, seconds: float, scratch: Path,
                      expected) -> Tuple[Measurement, Dict[str, float]]:
    """Alternate untraced and traced rounds (so both see the same machine
    state) and derive per-generation layer figures from the traced ones."""
    m = Measurement(workload, expected)
    seeds = run_seeds(workload, seed)
    t = tracer_mod.Tracer(scratch)
    plain, traced = [], []
    busy = 0.0
    if m.check(_run(workload, seeds[0], scratch), seeds[0]):
        start = time.perf_counter()
        while True:
            use_tracer = len(traced) < len(plain)
            records, round_busy = _round(
                workload, seeds, scratch, m, t if use_tracer else None
            )
            if records is None:
                break
            busy += round_busy
            (traced if use_tracer else plain).append(records)
            if traced and _done(start, seconds, len(plain) + len(traced)):
                break
    if not traced:
        return m, {}

    missing = [
        name for name in workload.layers
        if not any(n == name and c for (_p, n), c in t.calls.items())
    ]
    if missing:
        m.failed += 1
        m.errors.append(f"layers recorded no calls: {', '.join(missing)}")

    runs = [r for records in traced for r in records]
    n = sum(len(r.gen_s) for r in runs)
    rows = [row for r in runs for row in r.digest[workload.warmup:]]
    window_s = _timed_s(traced)
    # Time spent below the loop: every span except api.loop itself
    # (benchmark hooks included), so what is left is the loop's own code.
    below_loop = sum(
        s for (phase, name), s in t.self_s.items()
        if phase == "timed" and name not in (None, "api.loop")
    )
    wait = t.timed_self("api.parallel.wait")
    workers = workload.spec_fields.get("workers", 1)
    values = {
        "unattributed_s": (window_s - below_loop) / n,
        "trace.overhead_frac": (
            statistics.median(best_per_generation(traced))
            / statistics.median(best_per_generation(plain)) - 1.0
        ),
        "envs.env_steps": sum(row[5] for row in rows) / n,
        "neat.compiled.recompile_frac": (
            t.timed_counter("neat.compiled.recompiles")
            / max(1, t.timed_calls("neat.compiled.compile_network"))
        ),
        "runs.checkpoint.bytes": t.timed_counter("runs.checkpoint.bytes") / n,
        "api.parallel.map.wait_s": wait / n,
        "api.parallel.worker_busy_s": busy / n,
        "api.parallel.idle_frac": (
            1.0 - busy / (workers * wait) if wait > 0 else 0.0
        ),
        "api.parallel.pool_start_s": (
            t.setup_self("api.parallel.pool_start") / len(runs)
        ),
    }
    # Parent-side ("timed") and pool-worker ("worker") layers never share
    # a name, so both land in one table.
    for (phase, name), spent in t.self_s.items():
        if phase in ("timed", "worker") and name is not None:
            values[f"{name}.self_s"] = spent / n
    for (phase, name), calls in t.calls.items():
        if phase in ("timed", "worker"):
            values[f"{name}.calls"] = calls / n
    if workload.simulated:
        adam, eve, pe, sram, noc, energy = (
            sum(row[i] for row in rows) / n for i in range(6, 12)
        )
        values.update({
            "hw.adam.sim_cycles": adam,
            "hw.eve.sim_cycles": eve,
            "hw.pe.busy_cycles": pe,
            "hw.sram.accesses": sram,
            "hw.noc.genes_delivered": noc,
            "sim_cycles_per_gen": adam + eve,
            "sim_energy_uj_per_gen": energy,
        })
    return m, values
