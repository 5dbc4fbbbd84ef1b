"""Unit tests for repro.api.spec: the JSON-round-trippable experiment spec."""

import json

import pytest

from repro.api import ExperimentSpec, SpecError


class TestConstruction:
    def test_defaults(self):
        spec = ExperimentSpec("CartPole-v0")
        assert spec.backend == "software"
        assert spec.workers == 1
        assert spec.max_generations == 50
        assert spec.fitness_threshold is None

    def test_frozen(self):
        spec = ExperimentSpec("CartPole-v0")
        with pytest.raises(Exception):
            spec.env_id = "MountainCar-v0"

    def test_replace(self):
        spec = ExperimentSpec("CartPole-v0")
        derived = spec.replace(backend="soc", workers=4)
        assert derived.backend == "soc"
        assert derived.workers == 4
        assert spec.backend == "software"  # original untouched

    @pytest.mark.parametrize("kwargs", [
        {"env_id": ""},
        {"env_id": "CartPole-v0", "backend": ""},
        {"env_id": "CartPole-v0", "max_generations": 0},
        {"env_id": "CartPole-v0", "pop_size": 1},
        {"env_id": "CartPole-v0", "episodes": 0},
        {"env_id": "CartPole-v0", "max_steps": 0},
        {"env_id": "CartPole-v0", "workers": 0},
        {"env_id": "CartPole-v0", "vectorizer": "cuda"},
        {"env_id": "CartPole-v0", "vectorizer": ""},
        {"env_id": "CartPole-v0", "fitness_threshold": "high"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(SpecError):
            ExperimentSpec(**kwargs)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        # A NaN threshold is never met and would be written to spec.json
        # as the non-JSON token NaN.
        with pytest.raises(SpecError, match="finite"):
            ExperimentSpec("CartPole-v0", fitness_threshold=threshold)

    def test_vectorizer_default_scalar(self):
        assert ExperimentSpec("CartPole-v0").vectorizer == "scalar"
        assert ExperimentSpec("CartPole-v0", vectorizer="numpy").vectorizer == "numpy"


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            "LunarLander-v2", backend="analytical:GENESYS",
            max_generations=7, pop_size=24, episodes=2, max_steps=123,
            seed=9, fitness_threshold=200.0, workers=3, vectorizer="numpy",
            backend_options={"platform": "GENESYS"},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ExperimentSpec("CartPole-v0", backend="soc", seed=42)
        text = spec.to_json()
        json.loads(text)  # valid JSON
        assert ExperimentSpec.from_json(text) == spec

    def test_file_round_trip(self, tmp_path):
        spec = ExperimentSpec("MountainCar-v0", workers=2, max_steps=50)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            ExperimentSpec.from_dict({"env_id": "CartPole-v0", "popsize": 3})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="invalid spec JSON"):
            ExperimentSpec.from_json("{not json")

    def test_non_object_json_rejected(self):
        with pytest.raises(SpecError, match="must be an object"):
            ExperimentSpec.from_json("[1, 2]")

    def test_backend_options_copied(self):
        options = {"platform": "CPU_a"}
        spec = ExperimentSpec("CartPole-v0", backend_options=options)
        data = spec.to_dict()
        data["backend_options"]["platform"] = "GPU_a"
        assert spec.backend_options["platform"] == "CPU_a"
