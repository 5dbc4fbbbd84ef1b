"""Fig. 9 — per-generation runtime and energy across platforms.

(a) inference runtime, (b) inference energy, (c) evolution runtime,
(d) evolution energy — for the six evaluation workloads on the Table III
platform matrix.  Absolute numbers are model-based; the reproduction
targets are the paper's orderings and orders-of-magnitude gaps.
"""

import math

import pytest

from repro.analysis.reporting import fmt_joules, fmt_seconds, render_table
from repro.envs.registry import EVALUATION_SUITE
from repro.platforms import all_platforms, make_platform, table3


def _phase_table(traces, phase):
    platforms = all_platforms()
    headers = ["Environment"] + [p.name for p in platforms]
    runtime_rows, energy_rows = [], []
    for env_id in EVALUATION_SUITE:
        workload = traces[env_id].mean_workload()
        runtime_row, energy_row = [env_id], [env_id]
        for platform in platforms:
            cost = getattr(platform, f"{phase}_cost")(workload)
            runtime_row.append(fmt_seconds(cost.runtime_s))
            energy_row.append(fmt_joules(cost.energy_j))
        runtime_rows.append(runtime_row)
        energy_rows.append(energy_row)
    return headers, runtime_rows, energy_rows


def test_table3_configurations(benchmark, emit):
    rows = [[r["Legend"], r["Inference"], r["Evolution"], r["Platform"]]
            for r in table3()]
    emit(render_table(["Legend", "Inference", "Evolution", "Platform"], rows,
                      title="Table III: target system configurations"))
    benchmark(table3)


def test_fig9ab_inference(benchmark, emit, evaluation_traces):
    headers, runtime_rows, energy_rows = _phase_table(evaluation_traces, "inference")
    emit(render_table(headers, runtime_rows,
                      title="Fig 9(a): inference runtime per generation"))
    emit(render_table(headers, energy_rows,
                      title="Fig 9(b): inference energy per generation"))

    g = make_platform("GENESYS")
    gpus = list(map(make_platform, ("GPU_a", "GPU_b", "GPU_c", "GPU_d")))
    for env_id in EVALUATION_SUITE:
        w = evaluation_traces[env_id].mean_workload()
        ours = g.inference_cost(w)
        best_gpu = min(
            (p.inference_cost(w) for p in gpus),
            key=lambda c: c.runtime_s,
        )
        # Paper: "Genesys outperforms the best GPU implementation by 100x
        # in inference" — assert >= 1 order at bench scale.
        assert best_gpu.runtime_s / ours.runtime_s >= 10, env_id

    w = evaluation_traces["CartPole-v0"].mean_workload()
    benchmark(lambda: [p.inference_cost(w) for p in all_platforms()])


def test_fig9cd_evolution(benchmark, emit, evaluation_traces):
    headers, runtime_rows, energy_rows = _phase_table(evaluation_traces, "evolution")
    emit(render_table(headers, runtime_rows,
                      title="Fig 9(c): evolution runtime per generation"))
    emit(render_table(headers, energy_rows,
                      title="Fig 9(d): evolution energy per generation"))

    g, gpu_c = make_platform("GENESYS"), make_platform("GPU_c")
    for env_id in EVALUATION_SUITE:
        w = evaluation_traces[env_id].mean_workload()
        if w.evolution_ops == 0:
            continue
        ours = g.evolution_cost(w).energy_j
        vs_gpu_c = gpu_c.evolution_cost(w).energy_j
        orders = math.log10(vs_gpu_c / ours)
        # Paper: EvE is 4-5 orders more energy-efficient than GPU_c; the
        # gap shrinks with the scaled-down workloads, so assert >= 2.5.
        assert orders >= 2.5, f"{env_id}: {orders:.1f}"

    w = evaluation_traces["Alien-ram-v0"].mean_workload()
    benchmark(lambda: [p.evolution_cost(w) for p in all_platforms()])
