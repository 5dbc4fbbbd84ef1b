"""Unit tests for the characterisation / reuse / footprint analyses."""

import pytest

from repro.analysis.characterization import characterise_env, record_workload
from repro.analysis.footprint import footprint_report, genes_to_bytes
from repro.hw.sram import SRAMConfig
from repro.neat.reproduction import ReproductionEvent, ReproductionPlan


@pytest.fixture(scope="module")
def cartpole_char():
    return characterise_env(
        "CartPole-v0", runs=2, generations=6, pop_size=20, base_seed=0,
        max_steps=80,
    )


class TestCharacterisation:
    def test_runs_recorded(self, cartpole_char):
        assert len(cartpole_char.runs) == 2
        for run in cartpole_char.runs:
            assert run.generations >= 1
            assert len(run.num_genes) == run.generations

    def test_normalised_fitness_in_unit_range(self, cartpole_char):
        for curve in cartpole_char.normalised_fitness_curves():
            assert all(0.0 <= v <= 1.0 for v in curve)

    def test_mean_fitness_curve_length(self, cartpole_char):
        mean_curve = cartpole_char.mean_normalised_fitness()
        assert len(mean_curve) == max(r.generations for r in cartpole_char.runs)

    def test_gene_series_positive(self, cartpole_char):
        series = cartpole_char.gene_count_series()
        assert all(v > 0 for v in series)

    def test_ops_distribution_nonempty(self, cartpole_char):
        assert cartpole_char.ops_distribution()

    def test_footprint_under_sram(self, cartpole_char):
        # Section III-D1: generations fit in the 1.5 MB genome buffer.
        assert max(cartpole_char.footprint_distribution()) < 1.5 * 1024 * 1024

    def test_composition_sums_to_genes(self, cartpole_char):
        comp = cartpole_char.composition()
        assert comp["nodes"] > 0 and comp["connections"] > 0

    def test_convergence_tracked(self, cartpole_char):
        assert len(cartpole_char.convergence_generations()) == 2

    def test_whole_budget_past_solve_threshold(self):
        # Acrobot's solve threshold (-100) is met from generation 0 when
        # episodes are capped at 20 steps; the runs still cover the budget.
        char = characterise_env(
            "Acrobot-v1", runs=2, generations=3, pop_size=10, max_steps=20,
        )
        assert [r.generations for r in char.runs] == [3, 3]
        assert char.convergence_generations() == [0, 0]


class TestRecordWorkload:
    def test_workloads(self):
        trace = record_workload(
            "MountainCar-v0", generations=2, pop_size=15, max_steps=50, seed=1
        )
        assert trace.generations == 2
        assert trace.workloads[0].population == 15


class TestReuse:
    """Fig. 4(c)'s one rule, :meth:`ReproductionPlan.fittest_parent_reuse`."""

    def make_plan(self):
        plan = ReproductionPlan(generation=3)
        plan.events = [
            ReproductionEvent(10, 1, 2, 1),
            ReproductionEvent(11, 1, 3, 1),
            ReproductionEvent(12, 1, 1, 1),
            ReproductionEvent(13, 4, 5, 1),
        ]
        return plan

    def test_reuse_stats(self):
        plan = self.make_plan()
        assert plan.parent_usage() == {1: 3, 2: 1, 3: 1, 4: 1, 5: 1}
        fitnesses = {1: 9.0, 2: 1.0, 3: 1.0, 4: 5.0, 5: 2.0}
        assert plan.fittest_parent_reuse(fitnesses) == 3
        # a tie goes to the lower key; unknown fitness ranks lowest
        assert plan.fittest_parent_reuse({4: 5.0, 5: 5.0}) == 1
        assert plan.fittest_parent_reuse({}) == 3

    def test_empty_plan(self):
        assert ReproductionPlan(generation=0).fittest_parent_reuse({}) == 0


class TestFootprint:
    def test_genes_to_bytes(self):
        assert genes_to_bytes(1000) == 8000

    def test_report_fits_on_chip(self):
        trace = record_workload(
            "CartPole-v0", generations=2, pop_size=10, max_steps=40, seed=0
        )
        report = footprint_report("CartPole-v0", trace.workloads)
        assert report.fits_on_chip
        assert 0.0 < report.occupancy < 1.0
        assert report.max_bytes >= report.mean_bytes

    def test_report_overflow_detection(self):
        trace = record_workload(
            "CartPole-v0", generations=1, pop_size=10, max_steps=40, seed=0
        )
        tiny = SRAMConfig(num_banks=1, bank_depth=8)
        report = footprint_report("CartPole-v0", trace.workloads, sram=tiny)
        assert not report.fits_on_chip
