"""Cache-key stability and the on-disk sweep cache.

The DSE cache's whole value rests on its keys being *content* hashes:
invariant to spec field ordering, stable across process restarts (no
``PYTHONHASHSEED`` sensitivity, no pickling) and sensitive to every
field that changes what a point computes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec
from repro.dse import (
    SweepCache,
    SweepSpec,
    default_cache_dir,
    point_key,
    spec_key,
)

BASE = ExperimentSpec("CartPole-v0", max_generations=2, pop_size=10, max_steps=30)

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def spec_dicts(draw):
    """Valid ExperimentSpec payloads with hypothesis-chosen fields."""
    return {
        "env_id": draw(st.sampled_from(["CartPole-v0", "MountainCar-v0"])),
        "backend": draw(st.sampled_from(["software", "soc"])),
        "max_generations": draw(st.integers(1, 50)),
        "pop_size": draw(st.integers(2, 200)),
        "episodes": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 10_000)),
        "workers": draw(st.integers(1, 8)),
    }


class TestKeyStability:
    @settings(max_examples=50, deadline=None)
    @given(data=spec_dicts(), order_seed=st.randoms(use_true_random=False))
    def test_key_invariant_to_field_ordering(self, data, order_seed):
        """The content hash must not depend on dict insertion order."""
        spec = ExperimentSpec.from_dict(data)
        items = list(spec.to_dict().items())
        order_seed.shuffle(items)
        assert spec_key(dict(items)) == spec_key(spec)

    @settings(max_examples=25, deadline=None)
    @given(data=spec_dicts())
    def test_key_matches_spec_object_and_round_trip(self, data):
        spec = ExperimentSpec.from_dict(data)
        clone = ExperimentSpec.from_json(spec.to_json())
        assert spec_key(spec) == spec_key(clone) == spec_key(spec.to_dict())

    def test_key_stable_across_process_restarts(self):
        """Re-deriving the key in fresh interpreters gives the same hash
        (sha256 of canonical JSON — nothing hash-seed dependent)."""
        spec = BASE.replace(seed=3)
        program = (
            "from repro.api import ExperimentSpec\n"
            "from repro.dse import spec_key\n"
            f"spec = ExperimentSpec.from_json({spec.to_json()!r})\n"
            "print(spec_key(spec))\n"
        )

        def rederive():
            return subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "random"},
            ).stdout.strip()

        first, second = rederive(), rederive()
        assert first == second == spec_key(spec)

    def test_key_sensitive_to_spec_fields(self):
        assert spec_key(BASE) != spec_key(BASE.replace(seed=1))
        assert spec_key(BASE) != spec_key(BASE.replace(pop_size=11))

    def test_key_sensitive_to_evaluator(self):
        assert spec_key(BASE) != spec_key(BASE, evaluator="other-v1")

    def test_point_key_with_axes_distinguishes_collapsed_points(self):
        """Custom evaluators see the raw axes, so their keys must too —
        even when the effective spec is identical (hardware axis on a
        non-soc backend)."""
        points = SweepSpec(
            base=BASE, axes={"platform.eve_pes": [16, 64]}
        ).expand()
        assert points[0].spec == points[1].spec
        assert point_key(points[0]) == point_key(points[1])
        assert point_key(points[0], include_axes=True) != \
            point_key(points[1], include_axes=True)


class TestAxisMutation:
    def axes(self):
        return {
            "backend": ["software", "soc"],
            "seed": [0, 1, 2],
        }

    def keys(self, axes):
        return {
            tuple(sorted(p.axes.items())): point_key(p)
            for p in SweepSpec(base=BASE, axes=axes).expand()
        }

    def test_mutated_axis_invalidates_only_affected_points(self):
        before = self.keys(self.axes())
        mutated = self.axes()
        mutated["seed"] = [0, 1, 7]  # 2 -> 7
        after = self.keys(mutated)
        shared = set(before) & set(after)
        assert len(shared) == 4  # 2 backends x seeds {0, 1}
        for ident in shared:
            assert before[ident] == after[ident]
        for ident in set(after) - shared:
            assert after[ident] not in before.values()

    def test_added_axis_value_preserves_existing_keys(self):
        before = self.keys(self.axes())
        grown = self.axes()
        grown["seed"] = [0, 1, 2, 3]
        after = self.keys(grown)
        assert set(before) < set(after)
        for ident, key in before.items():
            assert after[ident] == key


class TestSweepCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = spec_key(BASE)
        point = SweepSpec(base=BASE, axes={"seed": [0]}).expand()[0]
        cache.put(key, {"fitness": 10.0, "converged": False}, point)
        record = cache.get(key)
        assert record["metrics"] == {"fitness": 10.0, "converged": False}
        assert record["spec"] == point.spec.to_dict()
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        assert SweepCache(tmp_path).get("0" * 64) is None

    def test_corrupt_record_counts_as_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = spec_key(BASE)
        cache.put(key, {"fitness": 1.0})
        cache.path_for(key).write_text("{torn")
        assert cache.get(key) is None

    def test_foreign_format_counts_as_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = spec_key(BASE)
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text(json.dumps({"format": 999}))
        assert cache.get(key) is None

    def test_records_are_fanned_out_and_atomic(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = spec_key(BASE)
        cache.put(key, {"fitness": 2.0})
        path = cache.path_for(key)
        assert path.parent.name == key[:2]
        assert not list(tmp_path.glob("**/*.tmp*"))

    def test_default_cache_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DSE_CACHE", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        monkeypatch.delenv("REPRO_DSE_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-dse"
