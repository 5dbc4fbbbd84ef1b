"""Successive-halving scheduler: properties, goldens, the budget bound.

Three layers of guarantee:

* **Hypothesis properties** — rung budgets are monotone and end at the
  sweep's full budget; every input point lands in exactly one terminal
  state; no point on a rung's Pareto frontier is ever pruned; the whole
  schedule is deterministic.
* **Golden** — survivors of a halving-pruned sweep report metrics
  byte-identical to the same points in the unpruned
  ``tests/golden/hw_sweep_soc_4point.json`` sweep (the final rung runs
  at the full budget through the same cache keys).
* **The acceptance bound** — on a 64-point sweep, halving schedules
  <= 50% of the full run's generation budget while preserving the full
  sweep's Pareto frontier.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec
from repro.dse import (
    HalvingError,
    ObjectiveError,
    SuccessiveHalvingScheduler,
    SweepRunner,
    SweepSpec,
    halving_budgets,
    pareto_front,
    run_halving,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def budgeted_evaluator(fitness, energy):
    """Deterministic metrics: rank-stable across budgets (fitness grows
    with the generation budget without reordering points)."""

    def evaluate(point):
        seed = point.spec.seed
        return {
            "fitness": fitness[seed] * point.spec.max_generations,
            "energy_j": energy[seed],
        }

    return evaluate


def make_sweep(n, max_generations=8):
    base = ExperimentSpec(
        "CartPole-v0", max_generations=max_generations, pop_size=8,
        max_steps=20,
    )
    return SweepSpec(base=base, axes={"seed": list(range(n))})


def make_scheduler(sweep, fitness, energy, **kwargs):
    kwargs.setdefault("objectives", {"fitness": "max", "energy_j": "min"})
    objectives = kwargs.pop("objectives")
    return SuccessiveHalvingScheduler(
        sweep,
        objectives,
        evaluate=budgeted_evaluator(fitness, energy),
        evaluator_version="halving-stub-v1",
        **kwargs,
    )


# -- rung budget math --------------------------------------------------------


class TestBudgets:
    def test_geometric_descent(self):
        assert halving_budgets(8, reduction=2) == [1, 2, 4, 8]
        assert halving_budgets(9, reduction=3) == [1, 3, 9]
        assert halving_budgets(100, reduction=3) == [1, 3, 11, 33, 100]

    def test_single_generation_is_one_rung(self):
        assert halving_budgets(1) == [1]

    def test_min_generations_floors_the_first_rung(self):
        assert halving_budgets(16, reduction=2, min_generations=4) == \
            [4, 8, 16]

    def test_rejects_bad_parameters(self):
        with pytest.raises(HalvingError):
            halving_budgets(0)
        with pytest.raises(HalvingError):
            halving_budgets(8, reduction=1)
        with pytest.raises(HalvingError):
            halving_budgets(8, min_generations=0)

    @given(
        final=st.integers(min_value=1, max_value=10_000),
        reduction=st.integers(min_value=2, max_value=10),
        min_generations=st.integers(min_value=1, max_value=64),
    )
    def test_property_monotone_and_anchored(
        self, final, reduction, min_generations
    ):
        budgets = halving_budgets(final, reduction, min_generations)
        assert budgets[-1] == final
        assert all(b2 > b1 for b1, b2 in zip(budgets, budgets[1:]))
        assert all(
            b >= min(min_generations, final) for b in budgets
        )


# -- scheduler validation ----------------------------------------------------


class TestValidation:
    def test_rejects_max_generations_axis(self):
        base = ExperimentSpec("CartPole-v0", max_generations=4, pop_size=8)
        sweep = SweepSpec(base=base, axes={"max_generations": [2, 4]})
        with pytest.raises(HalvingError, match="max_generations"):
            SuccessiveHalvingScheduler(sweep, {"fitness": "max"})

    def test_rejects_empty_objectives(self):
        with pytest.raises(HalvingError, match="objective"):
            SuccessiveHalvingScheduler(make_sweep(4), {})

    def test_rejects_bad_direction(self):
        with pytest.raises(ObjectiveError, match="direction"):
            SuccessiveHalvingScheduler(make_sweep(4), {"fitness": "up"})

    def test_rejects_custom_budgets_not_ending_at_full(self):
        with pytest.raises(HalvingError, match="last rung"):
            SuccessiveHalvingScheduler(
                make_sweep(4, max_generations=8), {"fitness": "max"},
                budgets=[1, 2, 4],
            )

    def test_rejects_non_increasing_budgets(self):
        with pytest.raises(HalvingError, match="increasing"):
            SuccessiveHalvingScheduler(
                make_sweep(4, max_generations=8), {"fitness": "max"},
                budgets=[2, 2, 8],
            )


# -- hypothesis properties over whole runs ----------------------------------


metric_lists = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.floats(
                min_value=-100, max_value=100,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=n, max_size=n,
        ),
        st.lists(
            st.floats(
                min_value=0, max_value=100,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=n, max_size=n,
        ),
    )
)


class TestRunProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=metric_lists, reduction=st.integers(2, 4))
    def test_every_point_has_exactly_one_terminal_state(
        self, data, reduction
    ):
        n, fitness, energy = data
        result = make_scheduler(
            make_sweep(n), fitness, energy, reduction=reduction
        ).run()
        assert set(result.states) == set(range(n))
        for state in result.states.values():
            assert state == "survivor" or state.startswith("pruned:rung")
        survivors = {i for i, s in result.states.items() if s == "survivor"}
        assert survivors == {row["point"] for row in result.rows}
        assert survivors, "halving must keep at least one point"

    @settings(max_examples=25, deadline=None)
    @given(data=metric_lists, reduction=st.integers(2, 4))
    def test_no_rung_frontier_point_is_ever_pruned(self, data, reduction):
        n, fitness, energy = data
        result = make_scheduler(
            make_sweep(n), fitness, energy, reduction=reduction
        ).run()
        objectives = result.objectives
        for rung, rows in enumerate(result.rung_rows):
            frontier = {
                row["point"] for row in pareto_front(rows, objectives)
            }
            pruned_here = {
                index
                for index, state in result.states.items()
                if state == f"pruned:rung{rung}"
            }
            assert not frontier & pruned_here, (
                f"rung {rung} pruned frontier points "
                f"{sorted(frontier & pruned_here)}"
            )

    @settings(max_examples=10, deadline=None)
    @given(data=metric_lists)
    def test_schedule_is_deterministic(self, data):
        n, fitness, energy = data
        first = make_scheduler(make_sweep(n), fitness, energy).run()
        second = make_scheduler(make_sweep(n), fitness, energy).run()
        assert first.states == second.states
        assert first.rows == second.rows
        assert first.scheduled_generations == second.scheduled_generations

    @settings(max_examples=25, deadline=None)
    @given(data=metric_lists, reduction=st.integers(2, 4))
    def test_scheduled_budget_never_exceeds_full(self, data, reduction):
        """Worst case (everything promoted by ties) the rung ladder costs
        sum(budgets) * n; with the geometric default that stays within
        ~2x of full, and the accounting must match the rung tables."""
        n, fitness, energy = data
        result = make_scheduler(
            make_sweep(n), fitness, energy, reduction=reduction
        ).run()
        accounted = sum(
            r["budget"] * r["points"] for r in result.rungs
        )
        assert result.scheduled_generations == accounted
        assert result.full_generations == 8 * n


# -- pruning behaviour on controlled metrics --------------------------------


class TestPruning:
    def test_dominated_points_stop_at_the_first_rung(self, tmp_path):
        n = 8
        fitness = [float(i) for i in range(n)]  # point 7 strictly best
        energy = [1.0] * n  # no trade-off: single-point frontier
        result = make_scheduler(
            make_sweep(n), fitness, energy, reduction=2,
            objectives={"fitness": "max"},
        ).run()
        # ceil(8/2)=4 promoted from rung 0, so 4 stop at rung 0
        assert sum(
            1 for s in result.states.values() if s == "pruned:rung0"
        ) == 4
        assert result.states[n - 1] == "survivor"

    def test_frontier_point_with_poor_primary_survives(self):
        """Pareto-aware promotion: the lowest-fitness point is kept when
        it anchors the energy frontier."""
        n = 9
        # Point 0: worst fitness but uniquely cheapest -> non-dominated.
        # A fitness-only top-1/3 cut would drop it at the first rung.
        fitness = [0.0, 5.0, 4.0, 3.0, 2.0, 1.0, 8.0, 7.0, 6.0]
        energy = [0.5] + [10.0] * (n - 1)
        result = make_scheduler(
            make_sweep(n), fitness, energy, reduction=3,
        ).run()
        assert result.states[0] == "survivor", (
            "the energy-frontier anchor was pruned despite being "
            "non-dominated"
        )

    def test_rung_results_are_cached_and_reusable(self, tmp_path):
        n = 6
        fitness = [float(i) for i in range(n)]
        energy = [1.0] * n
        first = make_scheduler(
            make_sweep(n), fitness, energy, cache_dir=tmp_path,
        ).run()
        calls = []

        def counting(point):
            calls.append(point.index)
            return budgeted_evaluator(fitness, energy)(point)

        second = SuccessiveHalvingScheduler(
            make_sweep(n), {"fitness": "max", "energy_j": "min"},
            cache_dir=tmp_path, evaluate=counting,
            evaluator_version="halving-stub-v1",
        ).run()
        assert calls == []  # every rung served from cache
        assert second.states == first.states
        assert all(row["cached"] for row in second.rows)
        for fresh, replay in zip(first.rows, second.rows):
            assert replay["point"] == fresh["point"]
            assert replay["key"] == fresh["key"]
            assert replay["fitness"] == fresh["fitness"]
            assert replay["energy_j"] == fresh["energy_j"]


# -- golden: survivors match the unpruned sweep byte-for-byte ---------------


_METRIC_KEYS = ("fitness", "generations", "converged", "runtime_s",
                "energy_j", "env_steps", "inference_macs")


class TestGoldenSurvivors:
    @pytest.fixture(scope="class")
    def hw_sweep_golden(self):
        return json.loads(
            (GOLDEN_DIR / "hw_sweep_soc_4point.json").read_text()
        )

    def test_survivor_metrics_match_unpruned_golden(self, hw_sweep_golden):
        """The final rung runs at the sweep's full budget, so surviving
        points must reproduce the unpruned golden rows exactly — same
        metrics, same cache keys."""
        sweep = SweepSpec.from_dict(hw_sweep_golden["sweep"])
        result = run_halving(
            sweep, {"fitness": "max", "energy_j": "min"}, reduction=2,
        )
        golden_by_point = {
            index: (row, key)
            for index, (row, key) in enumerate(
                zip(hw_sweep_golden["rows"], hw_sweep_golden["spec_keys"])
            )
        }
        assert result.rows, "halving left no survivors"
        for row in result.rows:
            golden_row, golden_key = golden_by_point[row["point"]]
            assert row["key"] == golden_key, (
                f"survivor {row['point']} cache key diverged from the "
                "unpruned sweep"
            )
            for key in _METRIC_KEYS:
                assert row[key] == golden_row[key], (
                    f"survivor {row['point']} {key} diverged from the "
                    f"unpruned golden"
                )


# -- the acceptance bound ----------------------------------------------------


class TestBudgetBound:
    def test_64_points_within_half_budget_preserving_frontier(self):
        """The ISSUE acceptance criterion: <= 50% of the full generation
        budget on a 64-point sweep, full-sweep Pareto frontier intact."""
        n = 64
        fitness = [float((i * 37) % n) for i in range(n)]  # shuffled ranks
        energy = [float((i * 11) % n + 1) for i in range(n)]
        sweep = make_sweep(n, max_generations=16)
        objectives = {"fitness": "max", "energy_j": "min"}
        result = make_scheduler(
            sweep, fitness, energy, reduction=4, objectives=objectives,
        ).run()

        assert result.full_generations == 16 * n
        assert result.budget_fraction <= 0.5, (
            f"halving scheduled {result.budget_fraction:.0%} of the "
            "full budget"
        )

        full = SweepRunner(
            sweep,
            evaluate=budgeted_evaluator(fitness, energy),
            evaluator_version="halving-stub-v1",
        ).run()
        full_front = {
            row["point"] for row in full.pareto_front(objectives)
        }
        halving_front = {
            row["point"] for row in result.pareto_front()
        }
        assert full_front == halving_front, (
            "halving lost (or invented) Pareto-frontier points: "
            f"full {sorted(full_front)} vs halved {sorted(halving_front)}"
        )
        # and the frontier survivors carry full-budget metrics
        full_rows = {row["point"]: row for row in full.rows}
        for row in result.rows:
            assert row["fitness"] == full_rows[row["point"]]["fitness"]
