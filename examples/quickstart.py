#!/usr/bin/env python
"""Quickstart: evolve a CartPole controller, in software and on GeneSys.

Runs the same NEAT problem through the unified experiment API twice —
one :class:`repro.api.ExperimentSpec`, two backends:

1. ``software`` — the paper's CPU baseline path, and
2. ``soc`` — hardware-in-the-loop: reproduction executed by the EvE PE
   model on packed 64-bit genes, inference by the ADAM systolic model —

prints what the hardware did (cycles, energy, SRAM traffic), and then
demonstrates the paper's continuous-learning premise with
:mod:`repro.runs`: the software run is recorded to a run directory,
"power-cycled", and resumed bit-identically from its last checkpoint.

Usage:  python examples/quickstart.py
CLI equivalents:
    python -m repro run CartPole-v0 --generations 25 --population 60
    python -m repro run CartPole-v0 --backend soc --generations 25
    python -m repro run CartPole-v0 --run-dir runs/quickstart
    python -m repro run --resume runs/quickstart --generations 35
"""

import tempfile
from pathlib import Path

from repro.analysis.reporting import fmt_joules, fmt_seconds, render_table
from repro.api import Experiment, ExperimentSpec
from repro.runs import resume_run, run_in_dir


def main() -> None:
    print("=== GeneSys quickstart: CartPole-v0 ===\n")

    spec = ExperimentSpec(
        "CartPole-v0", max_generations=25, pop_size=60, episodes=2, seed=0
    )

    print("[1/3] software NEAT (neat-python-style baseline) ...")
    sw = Experiment(spec).run()
    print(
        f"  converged={sw.converged} after {sw.generations} generations; "
        f"best fitness {sw.best_fitness:.1f}; "
        f"champion size {sw.champion.size()} (enabled conns, nodes)\n"
    )

    print("[2/3] hardware-in-the-loop (EvE + ADAM models) ...")
    hw = Experiment(spec.replace(backend="soc")).run()
    print(
        f"  converged={hw.converged} after {hw.generations} generations; "
        f"best fitness {hw.best_fitness:.1f}\n"
    )

    rows = []
    for report in hw.reports:
        rows.append([
            report.generation,
            f"{report.stats.best_fitness:.1f}",
            report.stats.num_genes,
            fmt_seconds(report.inference_seconds),
            fmt_seconds(report.evolution_seconds),
            fmt_joules(report.energy.total_energy_j),
            report.stats.fittest_parent_reuse,
        ])
    print(render_table(
        ["gen", "best fit", "genes", "ADAM time", "EvE time", "energy", "reuse"],
        rows,
        title="GeneSys per-generation hardware accounting (200 MHz SoC model)",
    ))
    print(
        f"\nTotal on-chip energy for the whole evolution: "
        f"{fmt_joules(hw.total_energy_j)}"
    )

    print("\n[3/3] continuous learning: record, power-cycle, resume ...")
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "quickstart"

        # Record the run durably; kill it partway through to simulate a
        # power cycle (any crash/ctrl-C leaves the same artifacts).
        class PowerCycle(Exception):
            pass

        def pull_the_plug(metrics):
            if metrics.generation == 1:
                raise PowerCycle

        try:
            run_in_dir(spec, run_dir, checkpoint_every=1,
                       on_generation=pull_the_plug)
        except PowerCycle:
            print("  interrupted at generation 1 "
                  f"(artifacts + checkpoints in {run_dir.name}/)")

        # Resume: continues from the last checkpoint, bit-identical to a
        # run that was never interrupted (see docs/runs.md).
        resumed = resume_run(run_dir)
        print(
            f"  resumed and finished: {resumed.generations} generations, "
            f"best fitness {resumed.best_fitness:.1f}, "
            f"champion saved to {run_dir.name}/champion.json"
        )
        assert resumed.best_fitness == sw.best_fitness, \
            "resume must reproduce the uninterrupted run exactly"
        print("  verified: identical to the uninterrupted run in part 1")


if __name__ == "__main__":
    main()
