"""Integration tests for the sweep engine: memoisation, parallelism,
result shaping."""

import json
from dataclasses import replace

import pytest

from repro.api import ExperimentSpec
from repro.dse import (
    SweepCache,
    SweepRunner,
    SweepSpec,
    SweepSpecError,
    run_sweep,
)
from repro.platforms import I7_PARAMS, PlatformSpec

BASE = ExperimentSpec("CartPole-v0", max_generations=1, pop_size=8, max_steps=20)


def counting_evaluator(log):
    """A cheap deterministic evaluator that records every invocation."""

    def evaluate(point):
        log.append(dict(point.axes))
        seed = point.axes.get("seed", point.spec.seed)
        return {"fitness": float(seed * 2), "runtime_s": 1.0 + seed}

    return evaluate


def stub_runner(sweep, log, **kwargs):
    kwargs.setdefault("evaluator_version", "stub-v1")
    return SweepRunner(sweep, evaluate=counting_evaluator(log), **kwargs)


class TestMemoisation:
    AXES = {"seed": [0, 1, 2]}

    def test_second_run_is_all_cache_hits(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes=self.AXES)
        log = []
        first = stub_runner(sweep, log, cache_dir=tmp_path).run()
        assert first.evaluated == 3 and first.cache_hits == 0
        assert len(log) == 3
        second = stub_runner(sweep, log, cache_dir=tmp_path).run()
        assert second.evaluated == 0 and second.cache_hits == 3
        assert len(log) == 3  # nothing re-ran
        assert [r["fitness"] for r in second.rows] == \
            [r["fitness"] for r in first.rows]

    def test_edited_sweep_only_evaluates_new_points(self, tmp_path):
        log = []
        stub_runner(
            SweepSpec(base=BASE, axes=self.AXES), log, cache_dir=tmp_path
        ).run()
        edited = SweepSpec(base=BASE, axes={"seed": [0, 1, 2, 3, 4]})
        result = stub_runner(edited, log, cache_dir=tmp_path).run()
        assert result.points == 5
        assert result.cache_hits == 3
        assert result.evaluated == 2
        assert [entry["seed"] for entry in log] == [0, 1, 2, 3, 4]

    def test_evaluator_version_partitions_the_cache(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes=self.AXES)
        log = []
        stub_runner(sweep, log, cache_dir=tmp_path).run()
        rerun = stub_runner(
            sweep, log, cache_dir=tmp_path, evaluator_version="stub-v2"
        ).run()
        assert rerun.evaluated == 3  # new identity, no stale hits

    def test_custom_evaluator_without_version_is_uncached(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes=self.AXES)
        log = []
        runner = SweepRunner(
            sweep, cache_dir=tmp_path, evaluate=counting_evaluator(log)
        )
        assert runner.cache is None
        first = runner.run()
        assert first.cache_dir is None
        assert first.evaluated == 3

    def test_completed_points_persist_when_a_later_point_fails(self, tmp_path):
        """An interrupted sweep must keep its finished evaluations."""
        calls = []

        def flaky(point):
            calls.append(point.axes["seed"])
            if point.axes["seed"] == 2:
                raise RuntimeError("boom")
            return {"fitness": 1.0}

        sweep = SweepSpec(base=BASE, axes={"seed": [0, 1, 2]})
        with pytest.raises(RuntimeError):
            SweepRunner(
                sweep, cache_dir=tmp_path, evaluate=flaky,
                evaluator_version="flaky-v1",
            ).run()
        assert calls == [0, 1, 2]
        retry = SweepRunner(
            sweep, cache_dir=tmp_path,
            evaluate=lambda p: {"fitness": 1.0},
            evaluator_version="flaky-v1",
        ).run()
        assert retry.cache_hits == 2  # seeds 0 and 1 survived the crash
        assert retry.evaluated == 1

    def test_misspelt_platform_evaluates_no_point(self, tmp_path):
        """Every point is checked before the first one runs, so a sweep
        with a bad point evaluates nothing and caches nothing."""
        sweep = SweepSpec(base=BASE, axes={
            "seed": [0, 1], "backend": ["software", "analytical:TPU_z"],
        })
        landed = []
        with pytest.raises(SweepSpecError, match="unknown analytical platform"):
            SweepRunner(sweep, cache_dir=tmp_path).run(
                progress=lambda *row: landed.append(row)
            )
        assert landed == []
        assert len(SweepCache(tmp_path)) == 0

    def test_no_cache_dir_disables_persistence(self):
        sweep = SweepSpec(base=BASE, axes=self.AXES)
        log = []
        result = stub_runner(sweep, log).run()
        assert result.cache_dir is None
        assert result.evaluated == 3

    def test_duplicate_effective_specs_collapse_to_one_run(self, tmp_path):
        """A hardware axis on a non-soc backend leaves the effective spec
        unchanged — the default executor must evaluate it once."""
        sweep = SweepSpec(
            base=BASE, axes={"platform.eve_pes": [16, 64, 256]}
        )
        result = run_sweep(sweep, cache_dir=tmp_path)
        assert result.points == 3
        assert result.evaluated == 1
        assert result.cache_hits == 2
        fitnesses = {row["fitness"] for row in result.rows}
        assert len(fitnesses) == 1

    def test_one_platform_name_two_contents_are_two_points(self, tmp_path):
        """A custom platform travels by value: two sweeps whose base specs
        embed a platform under one name but with different power share a
        cache dir, yet each evaluates its own point and its own energy."""
        results = [
            run_sweep(
                SweepSpec(
                    base=BASE.replace(
                        backend="analytical",
                        platform=PlatformSpec(
                            "cpu", "MyCPU", replace(I7_PARAMS, power_w=power_w)
                        ),
                    ),
                    axes={"seed": [0]},
                ),
                cache_dir=tmp_path,
            )
            for power_w in (45.0, 4500.0)
        ]
        assert [r.evaluated for r in results] == [1, 1]
        low, high = (r.rows[0]["energy_j"] for r in results)
        assert high == pytest.approx(100 * low)


class TestExecution:
    def test_default_executor_reports_metrics(self, tmp_path):
        result = run_sweep(
            SweepSpec(base=BASE, axes={"seed": [0, 1]}), cache_dir=tmp_path
        )
        for row in result.rows:
            assert isinstance(row["fitness"], float)
            assert row["generations"] == 1
            assert row["env_steps"] > 0
            assert row["key"]
        assert result.metric_names()[0] == "fitness"
        assert result.metric_names()[-1] == "cached"

    def test_jobs_pool_matches_serial(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes={"seed": [0, 1]})
        serial = run_sweep(sweep)
        pooled = run_sweep(sweep, jobs=2, cache_dir=tmp_path / "pool")
        assert [r["fitness"] for r in pooled.rows] == \
            [r["fitness"] for r in serial.rows]
        assert [r["env_steps"] for r in pooled.rows] == \
            [r["env_steps"] for r in serial.rows]
        assert pooled.evaluated == 2

    def test_progress_observer_sees_every_point(self):
        log, seen = [], []
        sweep = SweepSpec(base=BASE, axes={"seed": [0, 1, 2]})
        stub_runner(sweep, log).run(
            progress=lambda done, total, row: seen.append((done, total))
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_run_sweep_accepts_a_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepSpec(base=BASE, axes={"seed": [0]}).save(path)
        result = run_sweep(path)
        assert result.points == 1

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepRunner(SweepSpec(base=BASE, axes={"seed": [0]}), jobs=0)


class TestRunsDir:
    def test_every_evaluated_point_gets_a_run_dir(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes={"seed": [0, 1]})
        result = run_sweep(
            sweep, cache_dir=tmp_path / "cache",
            runs_dir=tmp_path / "points",
        )
        for row in result.rows:
            assert row["run_dir"] == str(tmp_path / "points" / row["key"])
            metrics = (tmp_path / "points" / row["key"] / "metrics.jsonl")
            assert metrics.exists()

    def test_cached_rerun_keeps_run_dir_column(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes={"seed": [0]})
        kwargs = dict(cache_dir=tmp_path / "cache",
                      runs_dir=tmp_path / "points")
        first = run_sweep(sweep, **kwargs)
        again = run_sweep(sweep, **kwargs)
        assert again.cache_hits == 1
        assert again.rows[0]["run_dir"] == first.rows[0]["run_dir"]

    def test_run_dir_excluded_from_metric_columns(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes={"seed": [0]})
        result = run_sweep(sweep, runs_dir=tmp_path / "points")
        assert "run_dir" not in result.metric_names()
        headers, _ = result.table()
        assert "run_dir" not in headers

    def test_run_dir_in_csv_export(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes={"seed": [0]})
        result = run_sweep(sweep, runs_dir=tmp_path / "points")
        result.to_csv(tmp_path / "out.csv")
        header = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert header.endswith("run_dir")

    def test_point_run_dirs_are_resumable_records(self, tmp_path):
        from repro.runs import load_run

        sweep = SweepSpec(base=BASE, axes={"seed": [0]})
        result = run_sweep(sweep, runs_dir=tmp_path / "points")
        report = load_run(result.rows[0]["run_dir"])
        assert report.complete
        assert report.spec.seed == 0

    def test_pool_jobs_compose_with_runs_dir(self, tmp_path):
        sweep = SweepSpec(base=BASE, axes={"seed": [0, 1]})
        result = run_sweep(
            sweep, jobs=2, cache_dir=tmp_path / "cache",
            runs_dir=tmp_path / "points",
        )
        assert all(
            (tmp_path / "points" / row["key"] / "result.json").exists()
            for row in result.rows
        )

    def test_runs_dir_rejected_with_custom_evaluator(self, tmp_path):
        with pytest.raises(ValueError, match="default experiment executor"):
            stub_runner(
                SweepSpec(base=BASE, axes={"seed": [0]}), [],
                runs_dir=tmp_path / "points",
            )


class TestReplayEvaluator:
    def test_eve_replay_sweep_is_deterministic_and_ordered(self):
        """The Fig. 11 methodology through the sweep engine: replaying a
        recorded reproduction plan across hardware axes."""
        from repro.core.runner import config_for_env
        from repro.dse import eve_replay_evaluator
        from repro.envs.evaluate import FitnessEvaluator
        from repro.neat.population import Population

        config = config_for_env("CartPole-v0", pop_size=12)
        population = Population(config, seed=0)
        evaluator = FitnessEvaluator("CartPole-v0", max_steps=30, seed=0)
        population.run_generation(evaluator)
        genomes = list(population.population.values())
        evaluator(genomes, config)
        population.species_set.adjust_fitnesses(population.generation)
        plan = population.reproduction.plan_generation(
            population.species_set, population.generation, population.rng
        )

        sweep = SweepSpec(
            base=BASE,
            axes={"platform.eve_pes": [2, 8], "platform.noc": ["p2p", "multicast"]},
        )

        def run():
            return SweepRunner(
                sweep,
                evaluate=eve_replay_evaluator(
                    config, population.population, plan
                ),
            ).run()

        first, second = run(), run()
        assert [r["cycles"] for r in first.rows] == \
            [r["cycles"] for r in second.rows]
        by = {(r["platform.eve_pes"], r["platform.noc"]): r for r in first.rows}
        # More PEs never slow reproduction down; multicast never reads
        # more SRAM than the point-to-point bus.
        assert by[(8, "multicast")]["cycles"] <= by[(2, "multicast")]["cycles"]
        assert by[(8, "multicast")]["sram_reads"] <= by[(8, "p2p")]["sram_reads"]
        assert all(r["sram_energy_uj"] > 0 for r in first.rows)


class TestResultShaping:
    def result(self):
        log = []
        sweep = SweepSpec(
            base=BASE, axes={"backend": ["software"], "seed": [0, 1, 2]}
        )
        return stub_runner(sweep, log).run()

    def test_table_headers_and_rows(self):
        result = self.result()
        headers, rows = result.table()
        assert headers[:2] == ["backend", "seed"]
        assert "fitness" in headers
        assert len(rows) == 3

    def test_table_custom_columns(self):
        headers, rows = self.result().table(["seed", "fitness"])
        assert headers == ["seed", "fitness"]
        assert rows[1] == [1, "2"]

    def test_group_by(self):
        groups = self.result().group_by("backend", "fitness")
        assert groups == [{
            "backend": "software", "count": 3,
            "mean": 2.0, "min": 0.0, "max": 4.0,
        }]

    def test_group_by_rejects_unknown_axis_and_metric(self):
        from repro.dse import ObjectiveError

        result = self.result()
        with pytest.raises(ObjectiveError, match="unknown axis"):
            result.group_by("bakend", "fitness")
        with pytest.raises(ObjectiveError, match="not a numeric column"):
            result.group_by("backend", "fitnes")

    def test_pareto_rejects_metric_absent_from_every_row(self):
        from repro.dse import ObjectiveError

        with pytest.raises(ObjectiveError, match="not a numeric column"):
            self.result().pareto_front({"fitnes": "max"})

    def test_pareto_front(self):
        front = self.result().pareto_front(
            {"fitness": "max", "runtime_s": "min"}
        )
        # fitness and runtime both rise with seed: the extremes survive,
        # the middle point survives too (a trade-off, not dominated).
        assert len(front) == 3

    def test_csv_export(self, tmp_path):
        path = tmp_path / "out.csv"
        self.result().to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("backend,seed,fitness")
        assert len(lines) == 4

    def test_json_export_round_trips(self, tmp_path):
        path = tmp_path / "out.json"
        result = self.result()
        result.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["points"] == 3
        assert payload["sweep"]["axes"]["seed"] == [0, 1, 2]
        assert len(payload["rows"]) == 3
