"""Golden pins across the platform-API redesign.

The committed files pin behaviour captured on the *pre-redesign* code:

* ``tests/golden/analytical_genesys_seed0.json`` — a fixed-seed
  ``analytical:GENESYS`` run's full metric trajectory (fitness,
  modelled runtime/energy) plus its DSE cache key.
* ``tests/golden/hw_sweep_soc_4point.json`` — a 4-point ``soc`` sweep's
  metrics *and* per-point cache keys.  Its metrics were recorded under
  the pre-redesign ``hw.*`` axis spelling; the file now spells the axes
  ``platform.*`` with the same metrics.

Together they prove the unified-PlatformSpec registry is a pure
refactor for pre-existing specs: identical modelled costs, identical
evolution, identical cache keys for specs without a platform block (so
warmed caches survive the migration), and that a ``platform.*`` sweep
simulates the chips the old ``hw.*`` sweep did, bit for bit.

Regenerate (only for an *intentional* cost-model change, in the same
commit) by rerunning the producing snippets with the values in each
file's ``description``/``sweep`` blocks.
"""

import json
from pathlib import Path

import pytest

from repro.api import Experiment, ExperimentSpec
from repro.dse import (
    SweepRunner, SweepSpec, evaluate_experiment_point, spec_key,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

_METRIC_KEYS = ("fitness", "generations", "converged", "runtime_s",
                "energy_j", "env_steps", "inference_macs")


@pytest.fixture(scope="module")
def genesys_golden():
    return json.loads(
        (GOLDEN_DIR / "analytical_genesys_seed0.json").read_text()
    )


@pytest.fixture(scope="module")
def hw_sweep_golden():
    return json.loads((GOLDEN_DIR / "hw_sweep_soc_4point.json").read_text())


class TestAnalyticalGenesysGolden:
    def test_trajectory_is_byte_identical(self, genesys_golden):
        spec = ExperimentSpec.from_dict(genesys_golden["spec"])
        result = Experiment(spec).run()
        observed = {
            "best_fitness": [m.best_fitness for m in result.metrics],
            "mean_fitness": [m.mean_fitness for m in result.metrics],
            "runtime_s": [m.runtime_s for m in result.metrics],
            "energy_j": [m.energy_j for m in result.metrics],
            "generations": result.generations,
            "converged": result.converged,
        }
        for key, expected in genesys_golden["trajectory"].items():
            assert observed[key] == expected, (
                f"analytical:GENESYS {key} diverged from pre-redesign "
                f"golden\n  expected {expected}\n  observed {observed[key]}"
            )
        assert result.total_runtime_s == genesys_golden["totals"]["total_runtime_s"]
        assert result.total_energy_j == genesys_golden["totals"]["total_energy_j"]

    def test_cache_key_unchanged_for_pre_existing_spec(self, genesys_golden):
        """A spec without a platform block must hash exactly as it did
        before the redesign — warmed DSE caches stay valid."""
        spec = ExperimentSpec.from_dict(genesys_golden["spec"])
        assert spec.platform is None
        assert spec_key(spec) == genesys_golden["spec_key"]
        # and the serialised dict is the pre-redesign shape (no
        # platform key at all, not platform: null)
        assert spec.to_dict() == genesys_golden["spec"]


class TestHwAxisAliasGolden:
    """The platform.* sweep that replaced the hw.* axes, pinned by
    ``hw_sweep_soc_4point.json``."""

    def _run(self, sweep):
        return SweepRunner(sweep).run().rows

    def test_hw_sweep_metrics_and_keys_unchanged(self, hw_sweep_golden):
        """The platform.* sweep reproduces the metrics recorded under the
        old hw.* spelling, under its own cache keys."""
        rows = self._run(SweepSpec.from_dict(hw_sweep_golden["sweep"]))
        assert [r["key"] for r in rows] == hw_sweep_golden["spec_keys"]
        for row, golden in zip(rows, hw_sweep_golden["rows"]):
            for key in _METRIC_KEYS:
                assert row[key] == golden[key], (
                    f"platform.* sweep {key} diverged at point "
                    f"{golden['platform.eve_pes']}/{golden['platform.noc']}"
                )

    def test_platform_axes_alias_hw_axes_bit_for_bit(self, hw_sweep_golden):
        """Each chip the old hw.* axes named, written as the spec's own
        platform block (no sweep expansion), evaluates the identical
        experiment."""
        base = hw_sweep_golden["sweep"]["base"]
        for golden in hw_sweep_golden["rows"]:
            spec = ExperimentSpec.from_dict({
                **base,
                "platform": {"kind": "soc", "params": {
                    "eve_pes": golden["platform.eve_pes"],
                    "noc": golden["platform.noc"],
                }},
            })
            row = evaluate_experiment_point(spec.to_json())
            for key in _METRIC_KEYS:
                assert row[key] == golden[key], (
                    f"platform block {key} diverged from the hw.* golden "
                    f"at point {golden['platform.eve_pes']}/"
                    f"{golden['platform.noc']}"
                )

    def test_platform_axis_points_carry_embedded_specs(self, hw_sweep_golden):
        base = ExperimentSpec.from_dict(hw_sweep_golden["sweep"]["base"])
        points = SweepSpec(
            base=base, axes={"platform.eve_pes": [8, 32]}
        ).expand()
        assert all(p.spec.platform is not None for p in points)
        assert [p.spec.platform.params.eve_pes for p in points] == [8, 32]
