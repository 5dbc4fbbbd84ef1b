"""Unit tests for the run-artifact subsystem (repro.runs)."""

import errno
import json
import os

import pytest

from repro.api import ExperimentSpec
from repro.neat.serialize import DeserializationError, load_genome_with_config
from repro.runs import (
    RunDir,
    RunError,
    export_reports,
    fitness_table,
    hardware_table,
    load_run,
    resume_run,
    run_in_dir,
    summary_table,
)


def small_spec(**overrides):
    base = dict(
        env_id="CartPole-v0", max_generations=5, pop_size=12,
        max_steps=30, seed=0, fitness_threshold=1e9,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class Interrupt(RuntimeError):
    """Stands in for a kill/power-cycle mid-run."""


def interrupt_at(generation):
    def observer(metrics):
        if metrics.generation == generation:
            raise Interrupt
    return observer


class TestArtifacts:
    def test_layout_written(self, tmp_path):
        run_dir = tmp_path / "run"
        result = run_in_dir(small_spec(), run_dir, checkpoint_every=2)
        rd = RunDir(run_dir)
        assert rd.has_artifacts() and rd.is_complete
        assert rd.load_spec() == small_spec()
        assert len(rd.read_metrics()) == result.generations == 5
        assert rd.load_meta()["checkpoint_every"] == 2
        # Cadence checkpoints at 2 and 4, plus the final state at 5.
        assert [gen for gen, _ in rd.checkpoints()] == [2, 4, 5]
        champion, _ = load_genome_with_config(rd.champion_path)
        assert champion.fitness == result.best_fitness
        summary = rd.load_result()
        assert summary["generations"] == 5
        assert summary["spec"] == small_spec().to_dict()

    def test_failed_checkpoint_write_raises_and_leaves_no_temp(
        self, tmp_path, monkeypatch
    ):
        rd = RunDir(tmp_path / "run").create()

        def disk_full(_src, _dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError) as excinfo:
            rd.write_checkpoint({"generation": 5})
        assert excinfo.value.errno == errno.ENOSPC
        assert list(rd.checkpoints_path.iterdir()) == []

    def test_metrics_rows_match_result(self, tmp_path):
        result = run_in_dir(small_spec(), tmp_path / "run")
        rows = RunDir(tmp_path / "run").read_metrics()
        assert rows == [m.to_dict() for m in result.metrics]

    def test_champion_is_infer_compatible(self, tmp_path):
        from repro.neat.network import FeedForwardNetwork

        run_in_dir(small_spec(), tmp_path / "run")
        genome, config = load_genome_with_config(
            RunDir(tmp_path / "run").champion_path
        )
        network = FeedForwardNetwork.create(genome, config.genome)
        assert network.activate([0.0, 0.0, 0.0, 0.0])

    def test_fresh_run_refuses_existing_dir(self, tmp_path):
        run_in_dir(small_spec(), tmp_path / "run")
        with pytest.raises(RunError, match="already holds a run"):
            run_in_dir(small_spec(), tmp_path / "run")

    def test_fresh_run_requires_spec(self, tmp_path):
        with pytest.raises(RunError, match="spec is required"):
            run_in_dir(None, tmp_path / "run")

    def test_torn_final_metrics_line_is_tolerated(self, tmp_path):
        rd = RunDir(tmp_path / "run")
        run_in_dir(small_spec(), rd)
        with open(rd.metrics_path, "a") as handle:
            handle.write('{"generation": 99, "best_f')  # torn append
        assert len(rd.read_metrics()) == 5

    def test_corrupt_middle_metrics_line_raises(self, tmp_path):
        rd = RunDir(tmp_path / "run")
        run_in_dir(small_spec(), rd)
        lines = rd.metrics_path.read_text().splitlines()
        lines[1] = "not json"
        rd.metrics_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunError, match="corrupt metrics line 2"):
            rd.read_metrics()

    def test_not_a_run_dir(self, tmp_path):
        with pytest.raises(RunError, match="no spec.json"):
            load_run(tmp_path)


class TestResume:
    def test_interrupted_then_resumed_completes(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(Interrupt):
            run_in_dir(small_spec(), run_dir, checkpoint_every=2,
                       on_generation=interrupt_at(3))
        rd = RunDir(run_dir)
        assert not rd.is_complete
        result = resume_run(run_dir)
        assert rd.is_complete
        assert result.generations == 5
        assert [m.generation for m in result.metrics] == [0, 1, 2, 3, 4]

    def test_resume_truncates_past_checkpoint(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(Interrupt):
            # Killed at gen 3: metrics rows 0-3 on disk, checkpoint at 2.
            run_in_dir(small_spec(), run_dir, checkpoint_every=2,
                       on_generation=interrupt_at(3))
        assert len(RunDir(run_dir).read_metrics()) == 4
        replayed = []
        resume_run(run_dir, on_generation=lambda m: replayed.append(m.generation))
        # Generations 2-4 re-ran (rows 2-3 rewound, 4 was never reached).
        assert replayed == [2, 3, 4]

    def test_resume_complete_run_is_a_noop(self, tmp_path):
        run_dir = tmp_path / "run"
        first = run_in_dir(small_spec(), run_dir)
        replayed = []
        again = resume_run(run_dir, on_generation=replayed.append)
        assert replayed == []
        assert [m.to_dict() for m in again.metrics] == [
            m.to_dict() for m in first.metrics
        ]
        assert again.generations == first.generations

    def test_zero_fitness_run_at_zero_threshold_is_sealed(self, tmp_path):
        """Regression: a champion fitness of exactly 0.0 used to read as
        missing, so a run stopped by a 0.0 threshold reported
        converged=False and was never sealed."""
        from repro.envs import CartPoleEnv
        from repro.envs.registry import register, unregister

        class ZeroRewardCartPole(CartPoleEnv):
            def _step(self, action):
                state, _reward, done, info = super()._step(action)
                return state, 0.0, done, info

        register("ZeroRewardCartPole-v0", ZeroRewardCartPole)
        try:
            run_dir = tmp_path / "run"
            spec = small_spec(
                env_id="ZeroRewardCartPole-v0", fitness_threshold=0.0,
                pop_size=10, max_steps=20,
            )
            result = run_in_dir(spec, run_dir)
            assert result.champion.fitness == 0.0
            assert result.generations == 1
            assert result.converged
            assert RunDir(run_dir).is_complete
            assert RunDir(run_dir).load_result()["converged"] is True
            # A resumed run that already met its threshold evolves no
            # further.
            replayed = []
            again = resume_run(run_dir, on_generation=replayed.append)
            assert replayed == []
            assert again.generations == 1 and again.converged
        finally:
            unregister("ZeroRewardCartPole-v0")

    def test_resume_extends_generation_budget(self, tmp_path):
        run_dir = tmp_path / "run"
        run_in_dir(small_spec(), run_dir)
        extended = resume_run(run_dir, max_generations=7)
        assert extended.generations == 7
        assert len(RunDir(run_dir).read_metrics()) == 7
        assert RunDir(run_dir).load_spec().max_generations == 7

    def test_resume_rejects_different_spec(self, tmp_path):
        run_dir = tmp_path / "run"
        run_in_dir(small_spec(), run_dir)
        with pytest.raises(RunError, match="differs from the one stored"):
            run_in_dir(small_spec(seed=9), run_dir, resume=True)

    def test_resume_rejects_foreign_config_checkpoint(self, tmp_path):
        """A checkpoint recorded under another env/config must not load."""
        source = tmp_path / "source"
        run_in_dir(small_spec(), source, checkpoint_every=2)
        target = tmp_path / "target"
        foreign = small_spec(env_id="MountainCar-v0")
        with pytest.raises(Interrupt):
            run_in_dir(foreign, target, checkpoint_every=2,
                       on_generation=interrupt_at(3))
        # Graft a CartPole checkpoint into the MountainCar run.
        ckpt = RunDir(source).checkpoints()[0][1]
        RunDir(target).checkpoint_path(2).write_text(ckpt.read_text())
        with pytest.raises(DeserializationError, match="different NEAT config"):
            resume_run(target)

    def test_resume_before_first_checkpoint_restarts(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(Interrupt):
            # checkpoint_every=10: killed before any checkpoint exists.
            run_in_dir(small_spec(), run_dir, checkpoint_every=10,
                       on_generation=interrupt_at(1))
        assert RunDir(run_dir).latest_checkpoint() is None
        replayed = []
        resume_run(run_dir, on_generation=lambda m: replayed.append(m.generation))
        assert replayed == [0, 1, 2, 3, 4]

    def test_resume_keeps_recorded_cadence(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(Interrupt):
            run_in_dir(small_spec(), run_dir, checkpoint_every=2,
                       on_generation=interrupt_at(3))
        resume_run(run_dir)  # no cadence passed: run.json supplies 2
        assert [g for g, _ in RunDir(run_dir).checkpoints()] == [2, 4, 5]

    def test_soc_backend_rejects_resume(self, tmp_path):
        from repro.api import ResumeUnsupportedError

        run_dir = tmp_path / "run"
        spec = small_spec(backend="soc", max_generations=2)
        run_in_dir(spec, run_dir)  # records metrics, no checkpoints
        assert RunDir(run_dir).checkpoints() == []
        # Force a checkpointed resume attempt via a grafted state file.
        other = tmp_path / "sw"
        run_in_dir(small_spec(max_generations=2), other, checkpoint_every=1)
        ckpt = RunDir(other).checkpoints()[0][1]
        RunDir(run_dir).checkpoint_path(1).write_text(ckpt.read_text())
        with pytest.raises(ResumeUnsupportedError):
            resume_run(run_dir)


class TestReport:
    def make_report(self, tmp_path, **overrides):
        run_in_dir(small_spec(**overrides), tmp_path)
        return load_run(tmp_path)

    def test_fitness_table_covers_all_generations(self, tmp_path):
        report = self.make_report(tmp_path / "run")
        headers, rows = fitness_table(report)
        assert headers[0] == "gen"
        assert len(rows) == 5

    def test_hardware_table_totals_row(self, tmp_path):
        report = self.make_report(tmp_path / "run")
        headers, rows = hardware_table(report)
        assert rows[-1][0] == "total"
        total_steps = sum(m["env_steps"] for m in report.metrics)
        assert rows[-1][headers.index("env_steps")] == total_steps

    def test_analytical_run_reports_energy(self, tmp_path):
        report = self.make_report(
            tmp_path / "run", backend="analytical:GENESYS", max_generations=3
        )
        headers, _ = hardware_table(report)
        assert "energy_j" in headers and "runtime_s" in headers
        _, srows = summary_table([report])
        assert srows[0][-1] == "complete"

    def test_report_on_interrupted_run(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(Interrupt):
            run_in_dir(small_spec(), run_dir, checkpoint_every=2,
                       on_generation=interrupt_at(2))
        report = load_run(run_dir)
        assert not report.complete
        assert report.generations == 3  # rows 0-2 persisted
        _, rows = summary_table([report])
        assert rows[0][-1] == "in progress"

    def test_export_reports(self, tmp_path):
        report = self.make_report(tmp_path / "run")
        csv_path, json_path = export_reports(
            [report], tmp_path / "out"
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("run,generation,best_fitness")
        assert len(lines) == 1 + 5
        payload = json.loads(json_path.read_text())
        assert payload[0]["spec"] == report.spec.to_dict()
        assert len(payload[0]["metrics"]) == 5

    def test_export_nothing_raises(self, tmp_path):
        with pytest.raises(RunError, match="nothing to export"):
            export_reports([], tmp_path / "out")
