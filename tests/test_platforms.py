"""Unit tests for the platform models (Table III, Figs. 9-10)."""

import pytest

from repro.core.trace import GenerationWorkload
from repro.neat.genome import MutationCounts
from repro.platforms import (
    all_platforms,
    footprint_comparison,
    make_platform,
    table3,
)


@pytest.fixture
def atari_workload():
    """An Atari-class generation (paper's heavy class: ~10^5 genes/ops)."""
    return GenerationWorkload(
        generation=10,
        population=150,
        total_nodes=22_000,
        total_connections=93_000,
        ops=MutationCounts(crossovers=90_000, perturbations=40_000,
                           node_additions=2_000, conn_additions=3_000),
        env_steps=15_000,
        inference_macs=12_000_000,
        mean_network_depth=1.2,
        fittest_parent_reuse=20,
    )


@pytest.fixture
def classic_workload():
    """A classic-control generation (~10^3 ops class)."""
    return GenerationWorkload(
        generation=10,
        population=150,
        total_nodes=400,
        total_connections=1_800,
        ops=MutationCounts(crossovers=1_500, perturbations=800),
        env_steps=10_000,
        inference_macs=150_000,
        mean_network_depth=1.2,
        fittest_parent_reuse=40,
    )


class TestRegistry:
    def test_table3_has_nine_rows(self):
        rows = table3()
        assert len(rows) == 9
        assert {r["Legend"] for r in rows} == {
            "CPU_a", "CPU_b", "CPU_c", "CPU_d",
            "GPU_a", "GPU_b", "GPU_c", "GPU_d", "GENESYS",
        }

    def test_table3_strategies_match_paper(self):
        rows = {r["Legend"]: r for r in table3()}
        assert rows["CPU_a"]["Inference"] == "Serial"
        assert rows["CPU_b"]["Inference"] == "PLP"
        assert rows["GPU_a"]["Inference"] == "BSP"
        assert rows["GPU_b"]["Inference"] == "BSP + PLP"
        assert rows["GENESYS"]["Evolution"] == "PLP + GLP"

    def test_make_platform(self):
        assert make_platform("GENESYS").name == "GENESYS"
        with pytest.raises(KeyError):
            make_platform("TPU")


class TestCPUModels:
    def test_plp_speedup_is_3_5x(self, atari_workload):
        # Paper: "Parallel inference on CPU is 3.5 times faster".
        serial = make_platform("CPU_a").inference_cost(atari_workload).runtime_s
        parallel = make_platform("CPU_b").inference_cost(atari_workload).runtime_s
        assert serial / parallel == pytest.approx(3.5)

    def test_evolution_identical_for_a_and_b(self, atari_workload):
        assert (
            make_platform("CPU_a").evolution_cost(atari_workload).runtime_s
            == make_platform("CPU_b").evolution_cost(atari_workload).runtime_s
        )

    def test_embedded_slower_but_lower_power(self, atari_workload):
        desktop = make_platform("CPU_a").inference_cost(atari_workload)
        embedded = make_platform("CPU_c").inference_cost(atari_workload)
        assert embedded.runtime_s > desktop.runtime_s
        assert embedded.energy_j < desktop.energy_j  # 5 W vs 45 W

    def test_no_transfer_time(self, atari_workload):
        cost = make_platform("CPU_a").inference_cost(atari_workload)
        assert cost.transfer_fraction == 0.0


class TestGPUModels:
    def test_gpu_a_transfer_dominated(self, atari_workload):
        # Fig. 10(a): ~70% of GPU_a inference time is memory transfer.
        frac = make_platform("GPU_a").inference_cost(atari_workload).transfer_fraction
        assert 0.55 <= frac <= 0.85

    def test_gpu_b_transfer_share_below_gpu_a(self, atari_workload):
        # Fig. 10(a/b): batching the population drops the transfer share
        # from ~70% (GPU_a) to ~20% (GPU_b); scale-dependent, so assert the
        # ordering and a loose band.
        frac_a = make_platform("GPU_a").inference_cost(atari_workload).transfer_fraction
        frac_b = make_platform("GPU_b").inference_cost(atari_workload).transfer_fraction
        assert frac_b < 0.5 * frac_a

    def test_gpu_b_faster_than_gpu_a(self, atari_workload):
        assert (
            make_platform("GPU_b").inference_cost(atari_workload).runtime_s
            < make_platform("GPU_a").inference_cost(atari_workload).runtime_s
        )

    def test_gpu_b_footprint_much_larger_than_gpu_a(self, atari_workload):
        # Fig. 10(d): sparse uncompacted tensors vs one genome's matrices.
        a = make_platform("GPU_a").memory_footprint_bytes(atari_workload)
        b = make_platform("GPU_b").memory_footprint_bytes(atari_workload)
        assert b > 100 * a

    def test_embedded_gpu_slower(self, atari_workload):
        assert (
            make_platform("GPU_c").inference_cost(atari_workload).runtime_s
            > make_platform("GPU_a").inference_cost(atari_workload).runtime_s
        )

    def test_evolution_transfer_cost_positive(self, atari_workload):
        cost = make_platform("GPU_a").evolution_cost(atari_workload)
        assert cost.transfer_s > 0
        assert cost.compute_s > 0


class TestGenesysModel:
    def test_inference_100x_faster_than_best_gpu(self, atari_workload):
        # Paper: "Genesys outperforms the best GPU implementation by 100x
        # in inference" — accept one order either side.
        gpu_best = min(
            p.inference_cost(atari_workload).runtime_s
            for p in map(make_platform, ("GPU_a", "GPU_b", "GPU_c", "GPU_d"))
        )
        ours = make_platform("GENESYS").inference_cost(atari_workload).runtime_s
        assert 10 <= gpu_best / ours <= 10_000

    def test_evolution_4_to_5_orders_vs_gpu_c(self, atari_workload):
        # Paper: "EVE turns out to be 4 to 5 orders of magnitude more
        # [energy] efficient than GPU_c".
        import math

        ratio = (
            make_platform("GPU_c").evolution_cost(atari_workload).energy_j
            / make_platform("GENESYS").evolution_cost(atari_workload).energy_j
        )
        assert 3.5 <= math.log10(ratio) <= 6.0

    def test_onchip_transfer_fraction_15pct(self, atari_workload):
        # Fig. 10(c): GENESYS spends ~15% of time on on-chip staging.
        frac = make_platform("GENESYS").inference_cost(atari_workload).transfer_fraction
        assert frac == pytest.approx(0.15, abs=0.02)

    def test_footprint_between_gpu_a_and_gpu_b(self, atari_workload):
        # Fig. 10(d): GPU_a << GENESYS << GPU_b.
        foot = footprint_comparison(
            atari_workload, list(map(make_platform, ("GPU_a", "GPU_b", "GENESYS")))
        )
        assert foot["GPU_a"] < foot["GENESYS"] < foot["GPU_b"]
        assert foot["GPU_a"] < 0.1 * foot["GENESYS"]
        assert foot["GPU_b"] > 10 * foot["GENESYS"]

    def test_footprint_under_1mb(self, atari_workload):
        # Section III-D1: <1 MB per generation for all paper workloads.
        assert make_platform("GENESYS").memory_footprint_bytes(atari_workload) < 1 << 20

    def test_more_pes_faster_evolution(self, atari_workload):
        def genesys_with(pes):
            return make_platform(
                {"kind": "genesys", "params": {"num_eve_pes": pes}}
            )

        slow = genesys_with(2).evolution_cost(atari_workload)
        fast = genesys_with(256).evolution_cost(atari_workload)
        assert fast.runtime_s < slow.runtime_s


class TestHeadlineClaim:
    def test_2_to_5_orders_energy_efficiency(self, atari_workload, classic_workload):
        """Abstract: '2-5 orders of magnitude higher energy-efficiency over
        state-of-the-art embedded and desktop CPU and GPU systems.'"""
        import math

        g = make_platform("GENESYS")
        for workload in (atari_workload, classic_workload):
            g_total = (
                g.inference_cost(workload).energy_j
                + g.evolution_cost(workload).energy_j
            )
            all_orders = []
            for platform in map(make_platform, (
                "CPU_a", "CPU_b", "CPU_c", "CPU_d",
                "GPU_a", "GPU_b", "GPU_c", "GPU_d",
            )):
                p_total = (
                    platform.inference_cost(workload).energy_j
                    + platform.evolution_cost(workload).energy_j
                )
                all_orders.append(math.log10(p_total / g_total))
            # even the most efficient conventional platform is >= 2 orders
            # behind; the least efficient stays within ~7 (log-scale span
            # of the paper's Fig. 9 energy axes)
            assert min(all_orders) >= 2.0
            assert max(all_orders) <= 7.0
