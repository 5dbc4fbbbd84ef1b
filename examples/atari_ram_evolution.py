#!/usr/bin/env python
"""Evolve Atari-RAM players and characterise the workload class.

The paper's motivating edge workload: agents that learn autonomously from
a 128-byte console RAM observation.  This example evolves Alien-ram and
Asterix-ram agents with NEAT, then prints the characterisation the paper
builds its architecture from — gene counts (Fig. 4b), op counts
(Fig. 5a), footprint (Fig. 5b) and parent reuse (Fig. 4c) — showing why
Atari-class genomes are one-to-two orders heavier than classic control.

Usage:  python examples/atari_ram_evolution.py [generations]
Spec-driven equivalent:
    python -m repro characterise Alien-ram-v0 --generations 5
    python -m repro run Asterix-ram-v0 --generations 5 --run-dir runs/asterix
"""

import sys

from repro.analysis.reporting import fmt_bytes, render_table
from repro.api import ExperimentSpec
from repro.core import TraceRecorder
from repro.envs import make


def main() -> None:
    generations = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    env_ids = ["CartPole-v0", "Alien-ram-v0", "Asterix-ram-v0"]

    rows = []
    for env_id in env_ids:
        env = make(env_id)
        print(f"evolving {env_id} "
              f"({env.num_observations} obs -> {env.num_actions} actions) ...")
        spec = ExperimentSpec(env_id, pop_size=30, seed=0, max_steps=100)
        trace = TraceRecorder(spec).record(generations)
        w = trace.mean_workload()
        best = max(wl.generation for wl in trace.workloads)
        rows.append([
            env_id,
            w.population,
            w.total_nodes,
            w.total_connections,
            w.evolution_ops,
            fmt_bytes(w.footprint_bytes),
            w.fittest_parent_reuse,
        ])

    print()
    print(render_table(
        ["Environment", "pop", "node genes", "conn genes",
         "ops/gen", "footprint", "fittest reuse"],
        rows,
        title=f"Workload characterisation (mean over {generations} generations)",
    ))
    print(
        "\nNote the two workload classes of Fig. 5: the RAM games carry "
        "~2 orders of magnitude more genes and reproduction ops than "
        "classic control, yet still fit far inside the 1.5 MB genome buffer."
    )


if __name__ == "__main__":
    main()
