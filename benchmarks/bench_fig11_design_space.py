"""Fig. 11 — gene composition, NoC ablation, and the EvE PE sweep.

(a) node vs connection gene composition per workload,
(b) SRAM reads/cycle: point-to-point bus vs multicast tree,
(c) SRAM energy and runtime per generation as a function of EvE PEs
    (with the ADAM inference runtime for comparison).

(b) and (c) replay a *real* recorded reproduction plan through the
cycle-level EvE model, exactly the paper's trace-driven methodology —
declared as :class:`repro.dse.SweepSpec` axes and driven through
:class:`repro.dse.SweepRunner` with the shared EvE replay evaluator.
The recorded workload itself comes from the session-cached
:func:`conftest.get_replay_workload`.
"""

import pytest

from conftest import get_replay_workload, get_trace
from repro.analysis.reporting import render_table
from repro.api import ExperimentSpec
from repro.dse import SweepRunner, SweepSpec, eve_replay_evaluator
from repro.envs.registry import ATARI_SUITE, CLASSIC_SUITE
from repro.hw.adam import InferenceStats, StackedAdamEnvelope, build_inference_plan

PE_SWEEP = [2, 4, 8, 16, 32, 64]

#: Base spec mirroring the recorded replay workload's provenance.
REPLAY_BASE = ExperimentSpec("Alien-ram-v0", pop_size=16, seed=0, max_steps=40)


def replay_sweep(axes, workload=None):
    """Run one hardware-axis sweep over the recorded reproduction plan."""
    config, population, plan = workload or get_replay_workload()
    runner = SweepRunner(
        SweepSpec(base=REPLAY_BASE, axes=axes),
        evaluate=eve_replay_evaluator(config, population, plan),
    )
    return runner.run()


def test_fig11a_gene_composition(benchmark, emit):
    rows = []
    for env_id in CLASSIC_SUITE + ATARI_SUITE:
        trace = get_trace(env_id)
        w = trace.workloads[-1]
        rows.append([
            env_id, w.total_nodes, w.total_connections,
            f"{w.total_connections / max(1, w.total_nodes):.1f}",
        ])
    emit(render_table(
        ["Environment", "node genes", "connection genes", "conns/node"],
        rows,
        title="Fig 11(a): gene-type composition per workload",
    ))
    # Connection genes dominate in every workload (denser weight matrices
    # during inference -> higher ADAM utilisation, per the paper).
    for _env, nodes, conns, _ratio in rows:
        assert conns > nodes

    benchmark(lambda: get_trace("CartPole-v0").workloads[-1].total_connections)


def test_fig11b_noc_ablation(benchmark, emit):
    result = replay_sweep(
        {"platform.eve_pes": PE_SWEEP, "platform.noc": ["p2p", "multicast"]}
    )
    reads = {
        (row["platform.eve_pes"], row["platform.noc"]): row["reads_per_cycle"]
        for row in result.rows
    }
    rows = []
    ratios = []
    for num_pes in PE_SWEEP:
        ratio = reads[(num_pes, "p2p")] / max(1e-9, reads[(num_pes, "multicast")])
        ratios.append((num_pes, ratio))
        rows.append([
            num_pes,
            f"{reads[(num_pes, 'p2p')]:.2f}",
            f"{reads[(num_pes, 'multicast')]:.2f}",
            f"{ratio:.1f}x",
        ])
    emit(render_table(
        ["EvE PEs", "P2P reads/cycle", "Multicast reads/cycle", "savings"],
        rows,
        title="Fig 11(b): SRAM reads per cycle, point-to-point vs multicast",
    ))
    # P2P reads/cycle grow with PE count; multicast savings grow with PE
    # count (paper: >100x at 256 PEs with population 150; scaled here).
    assert ratios[-1][1] > ratios[0][1]
    assert ratios[-1][1] > 3.0

    workload2 = get_replay_workload("CartPole-v0", pop_size=12)

    def replay():
        return replay_sweep(
            {"platform.eve_pes": [8], "platform.noc": ["multicast"]}, workload=workload2
        )

    benchmark(replay)


def test_fig11c_pe_sweep(benchmark, emit):
    config, population, plan = get_replay_workload()

    # ADAM inference runtime for the same generation (constant line):
    # every genome's plan charged for 40 forward passes.
    steps_per_genome = 40
    plans = [build_inference_plan(g, config.genome) for g in population.values()]
    adam = InferenceStats()
    StackedAdamEnvelope(plans).charge(adam, [steps_per_genome] * len(plans))
    adam_cycles = adam.total_cycles

    result = replay_sweep({"platform.eve_pes": PE_SWEEP, "platform.noc": ["multicast"]})
    rows = []
    series = []
    for row in result.rows:
        series.append((row["platform.eve_pes"], row["cycles"], row["sram_energy_uj"]))
        rows.append([
            row["platform.eve_pes"], row["cycles"], adam_cycles,
            f"{row['sram_energy_uj']:.2f}",
        ])
    emit(render_table(
        ["EvE PEs", "EvE cycles/gen", "ADAM cycles/gen", "SRAM RD+WR energy (uJ)"],
        rows,
        title="Fig 11(c): evolution runtime and SRAM energy vs EvE PE count",
    ))

    cycles = [c for _n, c, _e in series]
    energies = [e for _n, _c, e in series]
    # Evolution runtime falls monotonically with PE count (compute-bound,
    # "exponential fall off" on the log-x sweep).
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))
    assert cycles[0] > 3 * cycles[-1]
    # SRAM energy improves with PE count thanks to multicast GLR.
    assert energies[-1] < energies[0]

    def sweep_point():
        return replay_sweep({"platform.eve_pes": [16], "platform.noc": ["multicast"]})

    benchmark(sweep_point)
