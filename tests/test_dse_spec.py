"""Unit tests for repro.dse.SweepSpec: axes, expansion, JSON round-trip."""

import warnings

import pytest

from repro.api import Experiment, ExperimentSpec, SpecError
from repro.dse import (
    PLATFORM_AXES,
    SPEC_AXES,
    SweepSpec,
    SweepSpecError,
)

BASE = ExperimentSpec("CartPole-v0", max_generations=2, pop_size=10, max_steps=30)


def sweep(**overrides) -> SweepSpec:
    kwargs = {"base": BASE, "axes": {"seed": [0, 1]}}
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestValidation:
    def test_axis_catalogue_covers_spec_and_hardware(self):
        assert "pop_size" in SPEC_AXES
        assert "backend_options" not in SPEC_AXES
        assert "platform" not in SPEC_AXES
        for axis in ("platform.eve_pes", "platform.noc",
                     "platform.scheduler", "platform.adam_shape",
                     "platform.num_eve_pes"):
            assert axis in PLATFORM_AXES

    def test_hw_axes_are_unknown(self):
        """The old hw.* spellings are unknown axes; the error lists the
        platform.* axes that replace them."""
        with pytest.raises(SweepSpecError, match="'hw.eve_pes'.*platform.eve_pes"):
            sweep(axes={"hw.eve_pes": [8]})

    def test_platform_axes_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sweep(axes={"platform.eve_pes": [8]})

    def test_unknown_axis(self):
        with pytest.raises(SweepSpecError, match="unknown sweep axis"):
            sweep(axes={"warp_factor": [9]})

    def test_empty_axis_values(self):
        with pytest.raises(SweepSpecError, match="non-empty list"):
            sweep(axes={"seed": []})

    def test_duplicate_axis_values(self):
        with pytest.raises(SweepSpecError, match="duplicate"):
            sweep(axes={"seed": [1, 1]})

    def test_non_scalar_axis_value(self):
        with pytest.raises(SweepSpecError, match="JSON scalar"):
            sweep(axes={"seed": [[1, 2]]})

    def test_no_axes(self):
        with pytest.raises(SweepSpecError, match="at least one axis"):
            sweep(axes={})

    def test_bad_strategy(self):
        with pytest.raises(SweepSpecError, match="strategy"):
            sweep(strategy="exhaustive")

    def test_random_needs_samples(self):
        with pytest.raises(SweepSpecError, match="samples"):
            sweep(strategy="random")

    def test_samples_only_for_random(self):
        with pytest.raises(SweepSpecError, match="samples"):
            sweep(samples=4)

    def test_invalid_point_value_reports_point(self):
        bad = sweep(axes={"pop_size": [10, 1]})  # pop_size 1 is invalid
        with pytest.raises(SweepSpecError, match="pop_size"):
            bad.expand()

    def test_misspelt_platform_reports_point(self):
        """A backend the fixed tables do not hold is refused when the
        sweep expands, naming its point."""
        bad = sweep(axes={
            "seed": [0, 1], "backend": ["software", "analytical:TPU_z"],
        })
        with pytest.raises(SweepSpecError, match=(
            r"^point \{'seed': 0, 'backend': 'analytical:TPU_z'\}: "
            r"unknown analytical platform 'TPU_z'"
        )):
            bad.expand()


class TestExpansion:
    def test_grid_is_cartesian_product(self):
        s = sweep(axes={"seed": [0, 1, 2], "episodes": [1, 2]})
        points = s.expand()
        assert len(points) == 6
        combos = {(p.axes["seed"], p.axes["episodes"]) for p in points}
        assert combos == {(s_, e) for s_ in (0, 1, 2) for e in (1, 2)}
        assert [p.index for p in points] == list(range(6))

    def test_spec_fields_applied(self):
        (point,) = sweep(axes={"pop_size": [24]}).expand()
        assert point.spec.pop_size == 24
        assert point.spec.env_id == BASE.env_id

    def test_each_point_simulates_its_design_point(self):
        """Every platform.eve_pes x platform.noc point resolves to a chip
        with that point's PE count and NoC; a base spec that names the
        design point through backend_options is refused, not silently
        overridden."""
        base = BASE.replace(backend="soc")
        points = SweepSpec(base=base, axes={
            "platform.eve_pes": [8, 32],
            "platform.noc": ["p2p", "multicast"],
        }).expand()
        assert len(points) == 4
        for point in points:
            experiment = Experiment(point.spec)
            config = experiment.backend._resolve_config(point.spec)
            assert config.eve.num_pes == point.axes["platform.eve_pes"]
            assert config.eve.noc == point.axes["platform.noc"]
        with pytest.raises(SpecError, match="noc"):
            Experiment(base.replace(backend_options={"noc": "p2p"}))
        with pytest.raises(SpecError, match="platform"):
            base.replace(backend_options={"platform": "soc"})

    def test_platform_axes_embed_soc_platform_spec(self):
        s = sweep(axes={
            "backend": ["soc", "software"],
            "platform.eve_pes": [32],
            "platform.noc": ["p2p"],
        })
        by_backend = {p.spec.backend: p for p in s.expand()}
        soc = by_backend["soc"].spec
        assert soc.platform is not None
        assert soc.platform.kind == "soc"
        assert soc.platform.params.eve_pes == 32
        assert soc.platform.params.noc == "p2p"
        assert soc.backend_options == {}
        # platform axes parameterise hardware substrates only: the
        # software point's effective spec is untouched and collapses in
        # the cache.
        assert by_backend["software"].spec.platform is None
        assert by_backend["software"].axes["platform.eve_pes"] == 32

    def test_platform_axes_update_embedded_platform(self):
        base = BASE.replace(
            backend="soc",
            platform={"kind": "soc", "params": {"scheduler": "round-robin"}},
        )
        (point,) = SweepSpec(
            base=base, axes={"platform.eve_pes": [16]}
        ).expand()
        assert point.spec.platform.params.eve_pes == 16
        assert point.spec.platform.params.scheduler == "round-robin"

    def test_platform_axes_derive_analytical_variant(self):
        base = BASE.replace(backend="analytical:GENESYS")
        points = SweepSpec(
            base=base, axes={"platform.num_eve_pes": [64, 256]}
        ).expand()
        assert [p.spec.platform.params.num_eve_pes for p in points] == [64, 256]
        assert all(p.spec.backend == "analytical" for p in points)
        assert all(p.spec.platform.name == "GENESYS" for p in points)

    def test_platform_axes_filter_by_kind(self):
        # eve_pes is a soc param, not a genesys one: the analytical
        # point is untouched (and would collapse in the cache).
        base = BASE.replace(backend="analytical:GENESYS")
        (point,) = SweepSpec(
            base=base, axes={"platform.eve_pes": [64]}
        ).expand()
        assert point.spec == base

    def test_platform_axis_invalid_value_reports_point(self):
        base = BASE.replace(backend="soc")
        bad = SweepSpec(base=base, axes={"platform.noc": ["p2p", "torus"]})
        with pytest.raises(SweepSpecError, match="torus"):
            bad.expand()

    def test_unknown_platform_axis_field(self):
        with pytest.raises(SweepSpecError, match="unknown sweep axis"):
            sweep(axes={"platform.warp_factor": [9]})

    def test_random_sampling_is_seeded_and_within_grid(self):
        s = sweep(
            axes={"seed": [0, 1, 2, 3], "episodes": [1, 2]},
            strategy="random", samples=5, sample_seed=7,
        )
        first = [p.axes for p in s.expand()]
        second = [p.axes for p in s.expand()]
        assert first == second
        assert 1 <= len(first) <= 5
        for axes in first:
            assert axes["seed"] in (0, 1, 2, 3)
            assert axes["episodes"] in (1, 2)

    def test_random_sampling_collapses_duplicates(self):
        s = sweep(axes={"seed": [0]}, strategy="random", samples=10)
        assert len(s.expand()) == 1


class TestRoundTrip:
    def test_json_round_trip(self):
        s = sweep(axes={"seed": [0, 1], "platform.eve_pes": [16, 256]})
        clone = SweepSpec.from_json(s.to_json())
        assert clone == s

    def test_save_load(self, tmp_path):
        path = tmp_path / "sweep.json"
        s = sweep(strategy="random", samples=3, sample_seed=9)
        s.save(path)
        assert SweepSpec.load(path) == s

    def test_from_dict_requires_base(self):
        with pytest.raises(SweepSpecError, match="base"):
            SweepSpec.from_dict({"axes": {"seed": [0]}})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SweepSpecError, match="unknown sweep fields"):
            SweepSpec.from_dict({
                "base": BASE.to_dict(), "axes": {"seed": [0]}, "turbo": True,
            })

    def test_from_json_rejects_non_object(self):
        with pytest.raises(SweepSpecError, match="object"):
            SweepSpec.from_json("[1, 2]")

    def test_invalid_json(self):
        with pytest.raises(SweepSpecError, match="invalid sweep JSON"):
            SweepSpec.from_json("{nope")
