#!/usr/bin/env python
"""Continuous learning at the edge: LunarLander on the GeneSys SoC model.

The paper's pitch is an autonomous agent that keeps learning in the field
under a ~1 W power budget.  This example runs the full closed loop —
ADAM inference against the lander physics, reward-to-fitness on the CPU,
EvE reproduction — and reports the energy-per-generation the SoC model
charges, compared against what the platform models say an embedded CPU
and GPU (Jetson-class) would burn for the same workload.

Usage:  python examples/lunar_lander_hwloop.py [generations]
Spec-driven equivalent:
    python -m repro run LunarLander-v2 --backend soc --generations 12
    (add --run-dir runs/lander to record a resumable run; see docs/runs.md)
"""

import sys

from repro.analysis.reporting import (
    fmt_joules,
    fmt_seconds,
    orders_of_magnitude,
    render_table,
)
from repro.api import Experiment, ExperimentSpec
from repro.core import TraceRecorder
from repro.platforms import make_platform


def main() -> None:
    generations = int(sys.argv[1]) if len(sys.argv) > 1 else 8

    print(f"evolving LunarLander-v2 on the GeneSys SoC model "
          f"({generations} generations, population 40) ...\n")
    spec = ExperimentSpec(
        "LunarLander-v2",
        backend="soc",
        max_generations=generations,
        pop_size=40,
        episodes=1,
        seed=0,
        max_steps=200,
        fitness_threshold=1e9,  # run the full budget
    )
    result = Experiment(spec).run()

    rows = []
    for report in result.reports:
        rows.append([
            report.generation,
            f"{report.stats.best_fitness:.1f}",
            f"{report.stats.mean_fitness:.1f}",
            report.stats.num_species,
            fmt_seconds(report.inference_seconds + report.evolution_seconds),
            fmt_joules(report.energy.total_energy_j),
        ])
    print(render_table(
        ["gen", "best", "mean", "species", "chip time", "chip energy"],
        rows,
        title="Closed-loop learning on the SoC model",
    ))

    best = result.champion
    print(f"\nbest lander fitness {best.fitness:.1f} with "
          f"{best.size()[0]} enabled connections / {best.size()[1]} nodes")

    # Compare against the embedded platforms for the same workload; the
    # analytical backends are driven by the same spec shape.
    trace = TraceRecorder(
        spec.replace(backend="software", fitness_threshold=None)
    ).record(min(3, generations))
    workload = trace.mean_workload()
    genesys_energy = sum(r.energy.total_energy_j for r in result.reports) \
        / len(result.reports)
    rows = [["GENESYS (SoC model)", fmt_joules(genesys_energy), "-"]]
    for platform in map(make_platform, ("CPU_c", "GPU_c")):
        energy = (
            platform.inference_cost(workload).energy_j
            + platform.evolution_cost(workload).energy_j
        )
        rows.append([
            f"{platform.name} ({platform.platform_desc})",
            fmt_joules(energy),
            f"{orders_of_magnitude(energy, genesys_energy):.1f} orders",
        ])
    print()
    print(render_table(
        ["platform", "energy / generation", "vs GENESYS"],
        rows,
        title="Energy per generation: edge platforms vs GeneSys",
    ))


if __name__ == "__main__":
    main()
