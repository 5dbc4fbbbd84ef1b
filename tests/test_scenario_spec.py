"""Unit tests for the scenario spec layer: ScenarioSpec + curriculum +
registry + the embedded-scenario contract on ExperimentSpec.

Mirrors ``tests/test_platform_spec.py``: validation, JSON round-trip,
content-key properties (hypothesis), and golden pinning that a spec
*without* a scenario block serializes — and cache-keys — byte-identically
to every earlier release.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, SpecError
from repro.dse import SweepSpec, SweepSpecError
from repro.dse.cache import spec_key
from repro.scenarios import (
    CurriculumController,
    CurriculumSchedule,
    PerturbationSpec,
    ScenarioSpec,
    ScenarioSpecError,
    UnknownScenarioError,
    get_scenario,
    registered_scenarios,
    scenario_names,
)

SMALL = dict(max_generations=2, pop_size=10, max_steps=30, seed=0)


# ---------------------------------------------------------------------------
# spec validation


class TestSpecValidation:
    def test_unknown_env(self):
        with pytest.raises(ScenarioSpecError, match="unknown environment"):
            ScenarioSpec(env_id="Pong-v0")

    def test_unknown_tunable_param(self):
        with pytest.raises(ScenarioSpecError, match="no tunable parameter"):
            ScenarioSpec(env_id="CartPole-v0", params={"warp": 9})

    def test_non_numeric_param(self):
        with pytest.raises(ScenarioSpecError, match="must be a number"):
            ScenarioSpec(env_id="CartPole-v0", params={"length": "long"})
        with pytest.raises(ScenarioSpecError, match="must be a number"):
            ScenarioSpec(env_id="CartPole-v0", params={"length": True})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_param(self, value):
        with pytest.raises(ScenarioSpecError, match="finite"):
            ScenarioSpec(env_id="CartPole-v0", params={"gravity": value})

    def test_unknown_perturbation_kind(self):
        with pytest.raises(ScenarioSpecError, match="unknown perturbation"):
            ScenarioSpec(
                env_id="CartPole-v0",
                perturbations=[{"kind": "earthquake"}],
            )

    def test_perturbation_param_ranges(self):
        with pytest.raises(ScenarioSpecError, match=r"\[0, 1\]"):
            PerturbationSpec("action_dropout", {"prob": 1.5})
        with pytest.raises(ScenarioSpecError, match=">= 0"):
            PerturbationSpec("observation_noise", {"std": -0.1})
        with pytest.raises(ScenarioSpecError, match="unknown observation_noise"):
            PerturbationSpec("observation_noise", {"sigma": 0.1})

    def test_jitter_params_must_be_a_list(self):
        with pytest.raises(ScenarioSpecError, match="list of parameter"):
            PerturbationSpec("parameter_jitter", {"params": "length"})

    def test_curriculum_needs_two_stages(self):
        with pytest.raises(ScenarioSpecError, match="at least 2 stages"):
            CurriculumSchedule(stages=({"params": {}},))

    def test_fixed_curriculum_needs_increasing_boundaries(self):
        with pytest.raises(ScenarioSpecError, match="strictly"):
            CurriculumSchedule(stages=(
                {"params": {}},
                {"params": {}, "at_generation": 3},
                {"params": {}, "at_generation": 3},
            ))

    def test_adaptive_curriculum_needs_exit_thresholds(self):
        with pytest.raises(ScenarioSpecError, match="no exit threshold"):
            CurriculumSchedule(
                mode="adaptive",
                stages=({"params": {}}, {"params": {}}),
            )

    def test_adaptive_rejects_at_generation(self):
        with pytest.raises(ScenarioSpecError, match="at_generation"):
            CurriculumSchedule(
                mode="adaptive",
                advance_threshold=10.0,
                stages=(
                    {"params": {}, "at_generation": 2},
                    {"params": {}},
                ),
            )

    def test_curriculum_stage_params_validated_against_env(self):
        with pytest.raises(ScenarioSpecError, match="no tunable parameter"):
            ScenarioSpec(
                env_id="CartPole-v0",
                curriculum={
                    "stages": [
                        {"params": {}},
                        {"params": {"warp": 9}, "at_generation": 2},
                    ],
                },
            )

    def test_stage_scenario_merges_params(self):
        scenario = ScenarioSpec(
            env_id="CartPole-v0",
            params={"gravity": 12.0},
            curriculum={
                "stages": [
                    {"params": {"length": 0.5}},
                    {"params": {"length": 1.0}, "at_generation": 4},
                ],
            },
        )
        stage1 = scenario.stage_scenario(1)
        assert stage1.params == {"gravity": 12.0, "length": 1.0}
        assert stage1.curriculum is None
        with pytest.raises(ScenarioSpecError, match="out of range"):
            scenario.stage_scenario(2)


# ---------------------------------------------------------------------------
# round-trip + content key


class TestRoundTrip:
    def test_json_round_trip_every_builtin(self):
        for name, scenario in registered_scenarios().items():
            clone = ScenarioSpec.from_json(scenario.to_json())
            assert clone == scenario
            assert clone.content_key() == scenario.content_key()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ScenarioSpecError, match="unknown scenario"):
            ScenarioSpec.from_dict({"env_id": "CartPole-v0", "turbo": True})

    def test_from_dict_requires_env_id(self):
        with pytest.raises(ScenarioSpecError, match="env_id"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_save_load(self, tmp_path):
        path = tmp_path / "scenario.json"
        scenario = get_scenario("cartpole-windy")
        scenario.save(path)
        assert ScenarioSpec.load(path) == scenario

    def test_content_key_is_canonical(self):
        scenario = get_scenario("cartpole-long-pole")
        payload = json.loads(scenario.canonical_json())
        assert list(payload) == sorted(payload)

    def test_content_key_differs_on_any_change(self):
        a = ScenarioSpec(env_id="CartPole-v0", params={"length": 0.5})
        b = ScenarioSpec(env_id="CartPole-v0", params={"length": 0.75})
        c = a.replace(perturbations=({"kind": "observation_noise"},))
        assert len({a.content_key(), b.content_key(), c.content_key()}) == 3

    @settings(max_examples=25, deadline=None)
    @given(
        gravity=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
        length=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
        std=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        prob=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        kinds=st.lists(
            st.sampled_from(["observation_noise", "action_dropout"]),
            max_size=3,
        ),
    )
    def test_property_round_trip_and_hash(self, gravity, length, std, prob,
                                          kinds):
        perturbations = []
        for kind in kinds:
            params = {"std": std} if kind == "observation_noise" else {
                "prob": prob}
            perturbations.append({"kind": kind, "params": params})
        scenario = ScenarioSpec(
            env_id="CartPole-v0",
            params={"gravity": gravity, "length": length},
            perturbations=perturbations,
        )
        clone = ScenarioSpec.from_json(scenario.to_json())
        assert clone == scenario
        assert clone.content_key() == scenario.content_key()
        via_dict = ScenarioSpec.from_dict(scenario.to_dict())
        assert via_dict.content_key() == scenario.content_key()

    @settings(max_examples=15, deadline=None)
    @given(
        threshold=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        patience=st.integers(min_value=1, max_value=5),
        boundaries=st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=1, max_size=4, unique=True,
        ),
    )
    def test_property_curriculum_round_trip(self, threshold, patience,
                                            boundaries):
        fixed = ScenarioSpec(
            env_id="CartPole-v0",
            curriculum={
                "stages": [{"params": {}}] + [
                    {"params": {"length": 0.5}, "at_generation": g}
                    for g in sorted(boundaries)
                ],
            },
        )
        adaptive = ScenarioSpec(
            env_id="CartPole-v0",
            curriculum={
                "mode": "adaptive",
                "advance_threshold": threshold,
                "patience": patience,
                "stages": [{"params": {}}, {"params": {"length": 1.0}}],
            },
        )
        for scenario in (fixed, adaptive):
            clone = ScenarioSpec.from_json(scenario.to_json())
            assert clone == scenario
            assert clone.content_key() == scenario.content_key()


# ---------------------------------------------------------------------------
# golden pinning: scenario-free specs are untouched


class TestGoldenNoScenario:
    #: Computed at the seed revision (before scenarios existed); a spec
    #: without a scenario block must keep this exact serialization and
    #: DSE cache key (under the evaluator it was computed for) forever.
    PINNED_SPEC_KEY = (
        "4908380a976db685901cf27943184ab60c24acae20ca260e128e203193565ab7"
    )
    #: The same spec under the current ``EXPERIMENT_EVALUATOR``
    #: ("experiment-v2": rows summarise a generation after its
    #: reproduction).
    PINNED_DEFAULT_KEY = (
        "67b0f1ac484f8168f0cb2052649151e0df81248be9da163434e1da116d2d1a6e"
    )
    PINNED_JSON = (
        '{\n  "backend": "software",\n  "backend_options": {},\n'
        '  "env_id": "CartPole-v0",\n  "episodes": 2,\n'
        '  "fitness_threshold": 195.0,\n  "max_generations": 7,\n'
        '  "max_steps": null,\n  "pop_size": 24,\n  "seed": 11,\n'
        '  "vectorizer": "numpy",\n  "workers": 2\n}'
    )

    def _spec(self):
        return ExperimentSpec(
            "CartPole-v0", max_generations=7, pop_size=24, episodes=2,
            seed=11, workers=2, vectorizer="numpy", fitness_threshold=195.0,
        )

    def test_to_dict_omits_unset_scenario(self):
        spec = self._spec()
        assert "scenario" not in spec.to_dict()
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec and clone.scenario is None

    def test_json_byte_identical_to_seed(self):
        assert self._spec().to_json() == self.PINNED_JSON

    def test_dse_cache_key_byte_identical_to_seed(self):
        spec = self._spec()
        assert spec_key(spec, evaluator="experiment-v1") == self.PINNED_SPEC_KEY
        assert spec_key(spec) == self.PINNED_DEFAULT_KEY

    def test_scenario_block_changes_the_key(self):
        spec = self._spec().replace(
            scenario={"env_id": "CartPole-v0", "params": {"length": 0.5}}
        )
        assert spec_key(spec) != self.PINNED_DEFAULT_KEY


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_builtins_resolve(self):
        for name in ("cartpole-short-pole", "cartpole-long-pole",
                     "cartpole-windy", "cartpole-jittery",
                     "cartpole-pole-curriculum", "mountaincar-weak-engine"):
            assert get_scenario(name).name == name

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownScenarioError, match="cartpole-windy"):
            get_scenario("lava-floor")
        with pytest.raises(KeyError):  # back-compat catch class
            get_scenario("lava-floor")

    def test_table_is_fixed(self):
        """The six built-ins, in catalogue order, and nothing else."""
        assert list(registered_scenarios()) == [
            "cartpole-short-pole", "cartpole-long-pole", "cartpole-windy",
            "cartpole-jittery", "cartpole-pole-curriculum",
            "mountaincar-weak-engine",
        ]
        assert scenario_names() == sorted(registered_scenarios())


# ---------------------------------------------------------------------------
# embedded scenario on the experiment spec


class TestEmbeddedScenario:
    def test_dict_coerces_and_round_trips(self):
        spec = ExperimentSpec(
            "CartPole-v0",
            scenario={"env_id": "CartPole-v0", "params": {"length": 0.25}},
            **SMALL,
        )
        assert isinstance(spec.scenario, ScenarioSpec)
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_dict()["scenario"]["params"] == {"length": 0.25}

    def test_env_mismatch_rejected(self):
        with pytest.raises(SpecError, match="does not match"):
            ExperimentSpec(
                "MountainCar-v0",
                scenario={"env_id": "CartPole-v0"},
                **SMALL,
            )

    def test_env_ids_match_exactly(self):
        with pytest.raises(SpecError, match="does not match"):
            ExperimentSpec(
                "cartpole_v0", scenario={"env_id": "CartPole-v0"}, **SMALL
            )

    def test_soc_backend_rejected(self):
        with pytest.raises(SpecError, match="soc backend does not support"):
            ExperimentSpec(
                "CartPole-v0", backend="soc",
                scenario={"env_id": "CartPole-v0"}, **SMALL,
            )

    def test_invalid_scenario_becomes_spec_error(self):
        with pytest.raises(SpecError, match="invalid scenario spec"):
            ExperimentSpec(
                "CartPole-v0",
                scenario={"env_id": "CartPole-v0", "params": {"warp": 1}},
                **SMALL,
            )


# ---------------------------------------------------------------------------
# dse axes


class TestScenarioAxes:
    def _base(self):
        return ExperimentSpec("CartPole-v0", **SMALL)

    def test_scenario_field_is_not_a_plain_axis(self):
        from repro.dse.spec import SPEC_AXES

        assert "scenario" not in SPEC_AXES

    def test_unknown_scenario_axis_rejected(self):
        for axis in ("scenario.bogus", "scenario.params."):
            with pytest.raises(SweepSpecError, match="unknown sweep axis"):
                SweepSpec(base=self._base(), axes={axis: [1]})

    def test_name_axis_resolves_points(self):
        sweep = SweepSpec(
            base=self._base(),
            axes={"scenario.name": [None, "cartpole-short-pole"]},
        )
        points = sweep.expand()
        assert points[0].spec.scenario is None
        assert points[1].spec.scenario == get_scenario("cartpole-short-pole")

    def test_param_axis_creates_and_merges(self):
        sweep = SweepSpec(
            base=self._base(),
            axes={
                "scenario.name": ["cartpole-short-pole"],
                "scenario.params.gravity": [12.0],
            },
        )
        (point,) = sweep.expand()
        # name applies first, then the param merges over its base params
        assert point.spec.scenario.params == {"length": 0.25, "gravity": 12.0}

    def test_param_axis_alone_builds_scenario_for_spec_env(self):
        sweep = SweepSpec(
            base=self._base(), axes={"scenario.params.length": [0.3, 0.6]}
        )
        points = sweep.expand()
        assert [p.spec.scenario.params["length"] for p in points] == [0.3, 0.6]
        assert all(p.spec.scenario.env_id == "CartPole-v0" for p in points)

    def test_bad_values_surface_as_sweep_errors(self):
        with pytest.raises(SweepSpecError, match="unknown scenario"):
            SweepSpec(
                base=self._base(), axes={"scenario.name": ["lava-floor"]}
            ).expand()
        with pytest.raises(SweepSpecError, match="no tunable parameter"):
            SweepSpec(
                base=self._base(), axes={"scenario.params.warp": [1.0]}
            ).expand()

    def test_points_cache_key_on_scenario_content(self):
        sweep = SweepSpec(
            base=self._base(),
            axes={"scenario.params.length": [0.3, 0.6]},
        )
        a, b = sweep.expand()
        assert spec_key(a.spec) != spec_key(b.spec)
        # identical axis values -> identical keys (memoisation)
        (a2,) = SweepSpec(
            base=self._base(), axes={"scenario.params.length": [0.3]}
        ).expand()
        assert spec_key(a2.spec) == spec_key(a.spec)


# ---------------------------------------------------------------------------
# curriculum fold


class TestCurriculumController:
    def _adaptive(self, patience=2):
        return ScenarioSpec(
            env_id="CartPole-v0",
            curriculum={
                "mode": "adaptive",
                "advance_threshold": 50.0,
                "patience": patience,
                "stages": [
                    {"params": {"length": 0.5}},
                    {"params": {"length": 0.75}},
                    {"params": {"length": 1.0}},
                ],
            },
        )

    def test_fixed_switches_at_boundaries(self):
        scenario = ScenarioSpec(
            env_id="CartPole-v0",
            curriculum={
                "stages": [
                    {"params": {}},
                    {"params": {"length": 1.0}, "at_generation": 2},
                ],
            },
        )
        controller = CurriculumController(scenario)
        # generation 0 completes -> next gen (1) still stage 0
        assert controller.step(0, 10.0) is None
        # generation 1 completes -> generation 2 runs stage 1
        assert controller.step(1, 10.0) == 1
        assert controller.active_scenario().params == {"length": 1.0}
        assert controller.step(2, 10.0) is None

    def test_adaptive_needs_patience_consecutive(self):
        controller = CurriculumController(self._adaptive(patience=2))
        assert controller.step(0, 60.0) is None   # streak 1
        assert controller.step(1, 40.0) is None   # streak reset
        assert controller.step(2, 60.0) is None   # streak 1
        assert controller.step(3, 60.0) == 1      # streak 2 -> advance
        assert controller.stage == 1

    def test_forgetting_and_recovery_annotations(self):
        from repro.api.result import GenerationMetrics

        def row(gen):
            return GenerationMetrics(
                generation=gen, best_fitness=0.0, mean_fitness=0.0,
                num_species=1, num_genes=1, footprint_bytes=1,
            )

        controller = CurriculumController(self._adaptive(patience=1))
        m0 = row(0)
        assert controller.step(0, 80.0, m0) == 1
        assert m0.scenario_stage == 0 and m0.scenario_forgetting is None
        m1 = row(1)
        controller.step(1, 30.0, m1)
        assert m1.scenario_stage == 1
        assert m1.scenario_forgetting == pytest.approx(50.0)
        assert m1.scenario_recovery is None
        m2 = row(2)
        # recovers (and instantly qualifies to advance again)
        controller.step(2, 85.0, m2)
        assert m2.scenario_forgetting == 0.0
        assert m2.scenario_recovery == 2

    def test_restore_replays_to_identical_state(self):
        live = CurriculumController(self._adaptive(patience=2))
        fitness = [60.0, 60.0, 30.0, 55.0, 70.0, 90.0]
        rows = []
        for gen, best in enumerate(fitness):
            live.step(gen, best)
            rows.append({"generation": gen, "best_fitness": best})
        replayed = CurriculumController(self._adaptive(patience=2))
        replayed.restore(rows)
        assert replayed.stage == live.stage
        assert replayed._streak == live._streak
        assert replayed._stage_best == live._stage_best
        assert replayed._pre_switch_best == live._pre_switch_best
        assert replayed._switch_generation == live._switch_generation
