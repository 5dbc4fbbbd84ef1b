"""Runtime tests for repro.scenarios: wrapper determinism, batched
fallback safety, evaluation-path parity, curriculum runs and the
checkpoint/resume byte-identity guarantee."""

import json

import numpy as np
import pytest

from repro.api import Experiment, ExperimentSpec
from repro.envs import make, make_batched, register, unregister
from repro.envs.batched import (
    BatchedTemplateError,
    LockstepEnvs,
    VectorizedCartPole,
)
from repro.envs.cartpole import CartPoleEnv
from repro.runs import RunDir, resume_run, run_in_dir
from repro.scenarios import (
    ScenarioSpec,
    build_batched_env,
    build_env,
    continual_report,
    export_continual_csv,
    get_scenario,
    switch_report,
)

SMALL = dict(max_generations=3, pop_size=16, max_steps=40, seed=1,
             fitness_threshold=100000.0)


def _rollout(env, seed, steps=25):
    """Deterministic alternating-action trajectory."""
    env.seed(seed)
    trace = [env.reset().copy()]
    for t in range(steps):
        obs, reward, done, _ = env.step(t % 2)
        trace.append(np.append(obs, reward))
        if done:
            break
    return trace


# ---------------------------------------------------------------------------
# env layer: tunable params


class TestTunableParams:
    def test_configure_changes_physics(self):
        short = make("CartPole-v0", seed=0)
        short.configure(length=0.25)
        plain = make("CartPole-v0", seed=0)
        a = _rollout(short, seed=7)
        b = _rollout(plain, seed=7)
        assert not all(np.array_equal(x, y) for x, y in zip(a, b))
        # derived constants follow the override
        assert short.POLE_MASS_LENGTH == pytest.approx(0.1 * 0.25)

    def test_defaults_unchanged(self):
        # A default-constructed env must trace exactly like one configured
        # with its declared defaults (byte-identity of the seed behaviour).
        plain = make("CartPole-v0")
        configured = make("CartPole-v0")
        configured.configure(**configured.tunable_params())
        assert _rollout(plain, 3)[-1].tolist() == \
            _rollout(configured, 3)[-1].tolist()

    def test_unknown_param_rejected(self):
        env = make("CartPole-v0")
        with pytest.raises(ValueError, match="no tunable parameter"):
            env.configure(warp=9)

    def test_constructor_params(self):
        env = CartPoleEnv(gravity=3.7)
        assert env.GRAVITY == 3.7
        assert env.params["gravity"] == 3.7


# ---------------------------------------------------------------------------
# wrappers: deterministic, decoupled streams


class TestWrappers:
    def test_observation_noise_deterministic_per_seed(self):
        scenario = ScenarioSpec(
            env_id="CartPole-v0",
            perturbations=[{"kind": "observation_noise",
                            "params": {"std": 0.1}}],
        )
        env = build_env(scenario)
        a = _rollout(env, seed=5)
        b = _rollout(env, seed=5)
        c = _rollout(env, seed=6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])

    def test_noise_does_not_perturb_inner_stream(self):
        # The wrapper rng is derived with a salt; the raw seed goes
        # inward, so the base trajectory underneath is unchanged.
        noisy = build_env(ScenarioSpec(
            env_id="CartPole-v0",
            perturbations=[{"kind": "observation_noise",
                            "params": {"std": 0.0}}],
        ))
        plain = make("CartPole-v0")
        a = _rollout(noisy, seed=9)
        b = _rollout(plain, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_action_dropout_zero_prob_is_identity(self):
        env = build_env(ScenarioSpec(
            env_id="CartPole-v0",
            perturbations=[{"kind": "action_dropout", "params": {"prob": 0.0}}],
        ))
        plain = make("CartPole-v0")
        assert all(
            np.array_equal(x, y)
            for x, y in zip(_rollout(env, 4), _rollout(plain, 4))
        )

    def test_parameter_jitter_redraws_each_reset(self):
        env = build_env(ScenarioSpec(
            env_id="CartPole-v0",
            perturbations=[{"kind": "parameter_jitter",
                            "params": {"scale": 0.2, "params": ["length"]}}],
        ))
        env.seed(3)
        env.reset()
        first = env.inner.params["length"]
        env.reset()
        second = env.inner.params["length"]
        assert first != second  # fresh draw per episode
        env.seed(3)
        env.reset()
        assert env.inner.params["length"] == first  # same stream replays

    def test_jitter_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="no tunable parameter"):
            build_env(ScenarioSpec(
                env_id="CartPole-v0",
                perturbations=[{"kind": "parameter_jitter",
                                "params": {"params": ["warp"]}}],
            ))

    def test_stacked_same_kind_streams_differ(self):
        env = build_env(ScenarioSpec(
            env_id="CartPole-v0",
            perturbations=[
                {"kind": "observation_noise", "params": {"std": 0.1}},
                {"kind": "observation_noise", "params": {"std": 0.1}},
            ],
        ))
        env.seed(2)
        outer, inner = env, env.inner
        assert outer.rng.random() != inner.rng.random()


# ---------------------------------------------------------------------------
# batched: vectorized when safe, lockstep fallback otherwise


class TestBatchedFallback:
    def test_params_only_scenario_vectorizes(self):
        batched = build_batched_env(get_scenario("cartpole-short-pole"))
        assert isinstance(batched, VectorizedCartPole)
        assert batched._template.LENGTH == 0.25

    def test_perturbed_scenario_falls_back_to_lockstep(self):
        batched = build_batched_env(get_scenario("cartpole-windy"))
        assert isinstance(batched, LockstepEnvs)

    def test_wrapped_template_raises(self):
        windy = build_env(get_scenario("cartpole-windy"))
        with pytest.raises(BatchedTemplateError):
            VectorizedCartPole("CartPole-v0", template=windy)

    def test_subclassed_env_falls_back_not_fast_path(self):
        # Regression: a subclass overriding the physics must NOT silently
        # ride the unwrapped numpy port.
        class HalfGravityCartPole(CartPoleEnv):
            def _step(self, action):
                self.GRAVITY = 4.9
                return super()._step(action)

        register("HalfGravityCartPole-v0", HalfGravityCartPole)
        try:
            batched = make_batched(
                "CartPole-v0", factory=lambda: HalfGravityCartPole()
            )
            assert isinstance(batched, LockstepEnvs)
        finally:
            unregister("HalfGravityCartPole-v0")

    def test_lockstep_bit_identical_to_scalar_for_wrapped_env(self):
        scenario = get_scenario("cartpole-windy")
        batched = build_batched_env(scenario)
        seeds = [11, 12, 13]
        batch_obs = batched.start(seeds)
        scalar_obs = []
        scalars = [build_env(scenario) for _ in seeds]
        for env, seed in zip(scalars, seeds):
            env.seed(seed)
            scalar_obs.append(env.reset().ravel())
        assert np.array_equal(batch_obs, np.stack(scalar_obs))
        for t in range(20):
            actions = np.full(len(scalars), t % 2)
            b_obs, b_rew, b_done = batched.step(actions)
            s = [env.step(t % 2) for env in scalars]
            assert np.array_equal(b_obs, np.stack([o.ravel() for o, *_ in s]))
            assert np.array_equal(b_rew, np.array([r for _, r, _, _ in s]))
            assert np.array_equal(
                b_done, np.array([d for _, _, d, _ in s], dtype=bool)
            )
            keep = ~b_done
            batched.prune(keep)
            scalars = [env for env, k in zip(scalars, keep) if k]
            if not scalars:
                break


# ---------------------------------------------------------------------------
# evaluation-path parity


class TestEvaluationParity:
    def _trajectory(self, spec):
        result = Experiment(spec).run()
        return [(m.best_fitness, m.mean_fitness) for m in result.metrics]

    @pytest.mark.parametrize("name", ["cartpole-short-pole", "cartpole-windy"])
    def test_serial_workers_numpy_identical(self, name):
        base = ExperimentSpec(
            "CartPole-v0", scenario=get_scenario(name), **SMALL
        )
        serial = self._trajectory(base)
        assert serial == self._trajectory(base.replace(workers=2))
        assert serial == self._trajectory(base.replace(vectorizer="numpy"))

    def test_scenario_changes_the_outcome(self):
        plain = ExperimentSpec("CartPole-v0", **SMALL)
        varied = plain.replace(scenario=get_scenario("cartpole-short-pole"))
        assert self._trajectory(plain) != self._trajectory(varied)


# ---------------------------------------------------------------------------
# curriculum runs: metrics, checkpoints, resume byte-identity


CURRICULUM = ScenarioSpec(
    env_id="CartPole-v0",
    curriculum={
        "mode": "adaptive",
        "advance_threshold": 9.0,
        "patience": 1,
        "stages": [
            {"params": {"length": 0.5}},
            {"params": {"length": 0.75}},
            {"params": {"length": 1.0}},
        ],
    },
)


def _read_rows(run_dir):
    path = RunDir(run_dir).metrics_path
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestCurriculumRuns:
    def _spec(self, **overrides):
        fields = dict(max_generations=8, pop_size=20, max_steps=40, seed=3,
                      scenario=CURRICULUM, fitness_threshold=100000.0)
        fields.update(overrides)
        return ExperimentSpec("CartPole-v0", **fields)

    def test_metrics_rows_carry_stage(self, tmp_path):
        run_in_dir(self._spec(), tmp_path / "run", checkpoint_every=2)
        rows = _read_rows(tmp_path / "run")
        stages = [row["scenario_stage"] for row in rows]
        assert stages[0] == 0
        assert stages == sorted(stages)  # never regresses
        assert stages[-1] >= 1  # provably advanced
        # forgetting appears once a switch has happened
        assert any("scenario_forgetting" in row for row in rows)

    def test_plain_runs_have_no_scenario_columns(self, tmp_path):
        run_in_dir(
            self._spec(scenario=None, max_generations=2),
            tmp_path / "plain",
        )
        for row in _read_rows(tmp_path / "plain"):
            assert "scenario_stage" not in row
            assert "scenario_forgetting" not in row

    def test_checkpoint_embeds_stage(self, tmp_path):
        run_in_dir(self._spec(), tmp_path / "run", checkpoint_every=2)
        rd = RunDir(tmp_path / "run")
        state = rd.load_checkpoint(rd.latest_checkpoint()[0])
        rows = _read_rows(tmp_path / "run")
        assert state["scenario_stage"] == rows[-1]["scenario_stage"]

    def test_interrupted_resume_is_byte_identical(self, tmp_path):
        spec = self._spec()
        a = tmp_path / "uninterrupted"
        run_in_dir(spec, a, checkpoint_every=2)

        b = tmp_path / "interrupted"
        seen = {"rows": 0}

        def observer(metrics):
            seen["rows"] += 1

        # stop mid-stage, off the checkpoint cadence
        interrupted = run_in_dir(
            spec, b, checkpoint_every=2,
            on_generation=observer,
            should_stop=lambda _gen: seen["rows"] >= 3,
        )
        assert interrupted.stopped_early
        resumed = resume_run(b)
        assert (a / "metrics.jsonl").read_bytes() == \
            (b / "metrics.jsonl").read_bytes()
        assert (a / "champion.json").read_bytes() == \
            (b / "champion.json").read_bytes()
        assert resumed.generations == 8
        # the stitched result covers the whole trajectory with stages
        assert [m.scenario_stage for m in resumed.metrics] == \
            [row["scenario_stage"] for row in _read_rows(a)]

    def test_scenario_table_and_report_export(self, tmp_path):
        from repro.runs import load_run, scenario_table
        from repro.runs.report import export_reports

        run_in_dir(self._spec(max_generations=4), tmp_path / "run")
        report = load_run(tmp_path / "run")
        headers, rows = scenario_table(report)
        assert headers[:2] == ["gen", "stage"]
        assert len(rows) == 4
        csv_path, _ = export_reports([report], tmp_path / "out")
        header = csv_path.read_text().splitlines()[0]
        assert "scenario_stage" in header

    def test_scenario_table_empty_without_scenario(self, tmp_path):
        from repro.runs import load_run, scenario_table

        run_in_dir(
            self._spec(scenario=None, max_generations=2), tmp_path / "plain"
        )
        assert scenario_table(load_run(tmp_path / "plain")) == ([], [])


# ---------------------------------------------------------------------------
# continual-learning report


class TestContinualReport:
    ROWS = [
        {"generation": 0, "best_fitness": 50.0, "scenario_stage": 0},
        {"generation": 1, "best_fitness": 60.0, "scenario_stage": 0},
        {"generation": 2, "best_fitness": 20.0, "scenario_stage": 1,
         "scenario_forgetting": 40.0},
        {"generation": 3, "best_fitness": 45.0, "scenario_stage": 1,
         "scenario_forgetting": 15.0},
        {"generation": 4, "best_fitness": 65.0, "scenario_stage": 1,
         "scenario_forgetting": 0.0, "scenario_recovery": 3},
    ]

    def test_switch_report(self):
        (switch,) = switch_report(self.ROWS)
        assert switch == {
            "generation": 2, "from_stage": 0, "to_stage": 1,
            "max_forgetting": 40.0, "recovery_generations": 3,
        }
        assert continual_report(self.ROWS) == [switch]

    def test_unrecovered_switch_reports_none(self):
        rows = self.ROWS[:4]
        (switch,) = switch_report(rows)
        assert switch["recovery_generations"] is None

    def test_export_csv(self, tmp_path):
        path = tmp_path / "continual.csv"
        report = export_continual_csv(self.ROWS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("generation,from_stage,to_stage,"
                            "max_forgetting,recovery_generations")
        assert lines[1] == "2,0,1,40.0,3"
        assert report == switch_report(self.ROWS)


# ---------------------------------------------------------------------------
# dse: scenario axes evaluate and memoise


class TestDseScenarioSweep:
    def test_second_run_hits_cache_completely(self, tmp_path):
        from repro.dse import SweepRunner, SweepSpec

        sweep = SweepSpec(
            base=ExperimentSpec(
                "CartPole-v0", max_generations=2, pop_size=10,
                max_steps=30, fitness_threshold=100000.0,
            ),
            axes={"scenario.name": [None, "cartpole-short-pole"]},
        )
        first = SweepRunner(sweep, cache_dir=tmp_path / "cache").run()
        second = SweepRunner(sweep, cache_dir=tmp_path / "cache").run()
        assert first.cache_hits == 0
        assert second.cache_hits == second.points == 2
        fitness = {
            row["scenario.name"]: row["fitness"] for row in second.rows
        }
        assert set(fitness) == {None, "cartpole-short-pole"}
