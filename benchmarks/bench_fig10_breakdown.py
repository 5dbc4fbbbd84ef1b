"""Fig. 10 — where inference time goes, and memory footprints.

(a) GPU_a transfer/kernel split, (b) GPU_b split, (c) GENESYS split,
(d) on-chip memory requirement for GPU_a vs GPU_b vs GENESYS.
"""

import pytest

from repro.analysis.reporting import fmt_bytes, fmt_seconds, render_table
from repro.envs.registry import EVALUATION_SUITE
from repro.platforms import make_platform

GPU_A, GPU_B, GENESYS = map(make_platform, ("GPU_a", "GPU_b", "GENESYS"))


def test_fig10abc_time_distribution(benchmark, emit, evaluation_traces):
    platforms = [("GPU_a", GPU_A), ("GPU_b", GPU_B), ("GENESYS", GENESYS)]
    for label, platform in platforms:
        rows = []
        for env_id in EVALUATION_SUITE:
            w = evaluation_traces[env_id].mean_workload()
            cost = platform.inference_cost(w)
            rows.append([
                env_id,
                fmt_seconds(cost.transfer_s),
                fmt_seconds(cost.compute_s),
                f"{cost.transfer_fraction:.0%}",
            ])
        emit(render_table(
            ["Environment", "transfer", "kernel/compute", "transfer %"],
            rows,
            title=f"Fig 10: {label} inference time split",
        ))

    # Shape targets: GPU_a ~70% transfer, GPU_b well below GPU_a,
    # GENESYS ~15% (all data on chip).
    fracs = {}
    for label, platform in platforms:
        w = evaluation_traces["Alien-ram-v0"].mean_workload()
        fracs[label] = platform.inference_cost(w).transfer_fraction
    assert 0.5 <= fracs["GPU_a"] <= 0.85
    assert fracs["GPU_b"] < fracs["GPU_a"]
    assert fracs["GENESYS"] == pytest.approx(0.15, abs=0.02)

    w = evaluation_traces["Alien-ram-v0"].mean_workload()
    benchmark(lambda: GPU_B.inference_cost(w))


def test_fig10d_memory_footprint(benchmark, emit, evaluation_traces):
    # The paper plots MountainCar and Amidar-RAM.
    rows = []
    checks = {}
    for env_id in ["MountainCar-v0", "Amidar-ram-v0"]:
        w = evaluation_traces[env_id].mean_workload()
        foot = {p.name: p.memory_footprint_bytes(w)
                for p in (GPU_A, GPU_B, GENESYS)}
        rows.append([
            env_id,
            fmt_bytes(foot["GPU_a"]),
            fmt_bytes(foot["GPU_b"]),
            fmt_bytes(foot["GENESYS"]),
        ])
        checks[env_id] = foot
    emit(render_table(
        ["Environment", "GPU_a", "GPU_b", "GENESYS"],
        rows,
        title="Fig 10(d): memory requirement per platform",
    ))
    # Orderings from the paper: GENESYS holds the whole population (more
    # than GPU_a's single compacted genome), GPU_b's uncompacted tensors
    # dwarf both on the Atari-class workload.
    amidar = checks["Amidar-ram-v0"]
    assert amidar["GPU_a"] < amidar["GENESYS"] < amidar["GPU_b"]

    w = evaluation_traces["Amidar-ram-v0"].mean_workload()
    benchmark(lambda: [p.memory_footprint_bytes(w)
                       for p in (GPU_A, GPU_B, GENESYS)])
