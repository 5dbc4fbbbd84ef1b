"""Golden regression: fixed-seed runs must replay committed trajectories.

The committed JSON files under ``tests/golden/`` pin the per-generation
best/mean fitness, environment step and inference MAC trajectories of
fixed-seed software-backend runs.  Every evaluation path — serial,
``workers=2`` pooled, ``vectorizer="numpy"`` batched, and pooled+batched
— must reproduce them *exactly*: the scalar walk and the numpy lanes run
each genome's one compiled plan with one arithmetic (see
``docs/architecture.md``, "One forward pass"), and the multiprocessing
shards only move that work between processes.  numpy's kernels depend
on the CPU's SIMD level, so CI also runs this file with AVX-512, then
AVX2 too, disabled.

If an intentional algorithm change moves these trajectories, regenerate
the goldens (see each file's ``description``) in the same commit.
"""

import json
from pathlib import Path

import pytest

from repro.api import Experiment, ExperimentSpec

GOLDEN_DIR = Path(__file__).parent / "golden"

PATHS = {
    "serial": {},
    "vectorized": {"vectorizer": "numpy"},
    "workers2": {"workers": 2},
    "workers2_vectorized": {"workers": 2, "vectorizer": "numpy"},
}


def load_golden(name):
    data = json.loads((GOLDEN_DIR / name).read_text())
    return ExperimentSpec.from_dict(data["spec"]), data["trajectory"]


def run_trajectory(spec):
    result = Experiment(spec).run()
    return {
        "best_fitness": [m.best_fitness for m in result.metrics],
        "mean_fitness": [m.mean_fitness for m in result.metrics],
        "env_steps": [m.env_steps for m in result.metrics],
        "inference_macs": [m.inference_macs for m in result.metrics],
        "generations": result.generations,
        "converged": result.converged,
    }


def assert_matches(observed, golden, label):
    for key, expected in golden.items():
        assert observed[key] == expected, (
            f"{label}: {key} diverged from golden\n"
            f"  expected {expected}\n  observed {observed[key]}"
        )


GOLDEN_FILES = [
    "cartpole_software_seed0.json",
    "mountaincar_software_seed2.json",
    "acrobot_software_seed0.json",
]


@pytest.mark.parametrize("path_name", ["serial", "vectorized"])
@pytest.mark.parametrize("golden_file", GOLDEN_FILES)
def test_golden_trajectory(golden_file, path_name):
    spec, golden = load_golden(golden_file)
    observed = run_trajectory(spec.replace(**PATHS[path_name]))
    assert_matches(observed, golden, f"{golden_file}:{path_name}")


@pytest.mark.slow
@pytest.mark.parametrize("path_name", ["workers2", "workers2_vectorized"])
@pytest.mark.parametrize(
    "golden_file",
    ["cartpole_software_seed0.json", "acrobot_software_seed0.json"],
)
def test_golden_trajectory_pooled(golden_file, path_name):
    spec, golden = load_golden(golden_file)
    observed = run_trajectory(spec.replace(**PATHS[path_name]))
    assert_matches(observed, golden, f"{golden_file}:{path_name}")


def test_golden_files_are_well_formed():
    files = sorted(GOLDEN_DIR.glob("*.json"))
    assert files, "no golden files committed"
    for path in files:
        data = json.loads(path.read_text())
        assert "description" in data, f"{path.name} lacks a description"
    # the software-trajectory goldens this module replays have a fixed
    # shape (the platform-API goldens in test_platform_golden.py carry
    # their own)
    software = sorted(GOLDEN_DIR.glob("*_software_*.json"))
    assert software, "no software golden files committed"
    for path in software:
        data = json.loads(path.read_text())
        assert {"description", "spec", "trajectory"} <= set(data)
        spec = ExperimentSpec.from_dict(data["spec"])
        assert spec.backend == "software"
        lengths = {
            len(data["trajectory"][k])
            for k in ("best_fitness", "mean_fitness", "env_steps", "inference_macs")
        }
        assert len(lengths) == 1, f"{path.name}: ragged trajectory arrays"
