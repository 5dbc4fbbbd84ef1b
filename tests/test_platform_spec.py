"""Unit tests for the unified platform API: PlatformSpec + registry."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Experiment,
    ExperimentSpec,
    SpecError,
    available_backends,
    make_backend,
)
from repro.core import GeneSysConfig
from repro.neat import NEATConfig
from repro.platforms import (
    PLATFORM_KINDS,
    GenesysPlatform,
    PlatformSpec,
    PlatformSpecError,
    UnknownPlatformError,
    make_platform,
    platform_names,
    platform_spec,
    registered_platforms,
    table3,
)

SMALL = dict(max_generations=2, pop_size=10, max_steps=30, seed=0)


# ---------------------------------------------------------------------------
# spec validation


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(PlatformSpecError, match="unknown platform kind"):
            PlatformSpec("fpga")

    def test_unknown_param(self):
        with pytest.raises(PlatformSpecError, match="unknown soc platform params"):
            PlatformSpec("soc", params={"warp": 9})

    def test_kinds_cover_both_fidelities(self):
        """cpu and gpu are analytical; one soc kind is the chip, costed
        analytically (GENESYS) or simulated cycle by cycle."""
        assert set(PLATFORM_KINDS) == {"cpu", "gpu", "soc"}

    def test_genesys_kind_is_refused(self, tmp_path):
        """The chip has one kind: a stored block of the retired
        'genesys' kind is refused, and the error lists the kinds there
        are."""
        retired = dict(kind="genesys", name="GENESYS",
                       params=dict(num_eve_pes=64))
        kinds = r"known kinds: \['cpu', 'gpu', 'soc'\]"
        with pytest.raises(PlatformSpecError, match=kinds):
            PlatformSpec.from_dict(retired)
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(retired))
        with pytest.raises(PlatformSpecError, match=kinds):
            PlatformSpec.load(path)
        stored = ExperimentSpec("CartPole-v0", backend="analytical:GENESYS")
        data = {**stored.to_dict(), "backend": "analytical",
                "platform": retired}
        with pytest.raises(SpecError, match=kinds):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("params", [
        {"eve_pes": 0},
        {"eve_pes": "many"},
        {"noc": "torus"},
        {"scheduler": "lifo"},
        {"adam_shape": "32"},
        {"adam_shape": "0x8"},
        {"frequency_hz": -1.0},
        # NoC kinds and schedulers are checked by exact name.
        {"noc": "Point-To-Point"},
        {"noc": "bus"},
        {"scheduler": "round_robin"},
    ])
    def test_invalid_soc_params(self, params):
        with pytest.raises((PlatformSpecError, ValueError)):
            PlatformSpec("soc", params=params)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_params_rejected(self, value):
        with pytest.raises(PlatformSpecError, match="finite"):
            PlatformSpec("soc", params={"frequency_hz": value})

    def test_adam_shape_normalised(self):
        spec = PlatformSpec("soc", params={"adam_shape": "16X8"})
        assert spec.params.adam_shape == "16x8"
        assert (spec.params.adam_rows, spec.params.adam_cols) == (16, 8)

    def test_genesys_requires_positive_ints(self):
        for params in ({"eve_pes": -4}, {"eve_pes": 2.5},
                       {"adam_shape": "0x32"}):
            with pytest.raises(PlatformSpecError):
                PlatformSpec("soc", "GENESYS", params)

    def test_name_defaults_to_kind(self):
        assert PlatformSpec("soc").name == "soc"
        assert PlatformSpec("soc", "G2").name == "G2"

    def test_replace_params_validates(self):
        spec = PlatformSpec("soc")
        assert spec.replace_params(eve_pes=8).params.eve_pes == 8
        with pytest.raises(PlatformSpecError, match="unknown soc"):
            spec.replace_params(num_eve_pes=8)


# ---------------------------------------------------------------------------
# round-trip + canonical hash


class TestRoundTrip:
    def test_json_round_trip_every_builtin(self):
        for name, spec in registered_platforms().items():
            assert spec is not None
            clone = PlatformSpec.from_json(spec.to_json())
            assert clone == spec
            assert clone.content_key() == spec.content_key()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(PlatformSpecError, match="unknown platform spec"):
            PlatformSpec.from_dict({"kind": "soc", "turbo": True})

    def test_from_dict_requires_kind(self):
        with pytest.raises(PlatformSpecError, match="kind"):
            PlatformSpec.from_dict({"name": "x"})

    def test_invalid_json(self):
        with pytest.raises(PlatformSpecError, match="invalid platform spec"):
            PlatformSpec.from_json("{nope")

    def test_save_load(self, tmp_path):
        path = tmp_path / "platform.json"
        spec = PlatformSpec("soc", "G64", {"eve_pes": 64})
        spec.save(path)
        assert PlatformSpec.load(path) == spec

    def test_content_key_is_field_order_invariant(self):
        a = PlatformSpec("soc", params={"eve_pes": 8, "noc": "p2p"})
        b = PlatformSpec("soc", params={"noc": "p2p", "eve_pes": 8})
        assert a.content_key() == b.content_key()
        # canonical JSON has sorted keys + fixed separators
        payload = json.loads(a.canonical_json())
        assert list(payload) == sorted(payload)

    def test_content_key_differs_on_any_param(self):
        a = PlatformSpec("soc", params={"eve_pes": 8})
        b = PlatformSpec("soc", params={"eve_pes": 16})
        assert a.content_key() != b.content_key()

    @settings(max_examples=25, deadline=None)
    @given(
        eve_pes=st.integers(min_value=1, max_value=4096),
        noc=st.sampled_from(["p2p", "multicast"]),
        scheduler=st.sampled_from(["greedy", "round-robin"]),
        rows=st.integers(min_value=1, max_value=128),
        cols=st.integers(min_value=1, max_value=128),
    )
    def test_property_soc_round_trip_and_hash(self, eve_pes, noc, scheduler,
                                              rows, cols):
        spec = PlatformSpec("soc", params={
            "eve_pes": eve_pes, "noc": noc, "scheduler": scheduler,
            "adam_shape": f"{rows}x{cols}",
        })
        clone = PlatformSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.content_key() == spec.content_key()

    @settings(max_examples=25, deadline=None)
    @given(num=st.integers(min_value=1, max_value=2048))
    def test_property_genesys_dict_round_trip(self, num):
        spec = PlatformSpec("soc", "GENESYS", {"eve_pes": num})
        assert PlatformSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_nine_table3_names_resolve(self):
        for name in ("CPU_a", "CPU_b", "CPU_c", "CPU_d",
                     "GPU_a", "GPU_b", "GPU_c", "GPU_d", "GENESYS"):
            assert make_platform(name).name == name

    def test_soc_is_first_class(self):
        platform = make_platform("soc")
        assert isinstance(platform, GenesysPlatform)
        neat = NEATConfig()
        config = platform.genesys_config(neat, seed=3)
        assert config.eve.num_pes == 256
        assert config.seed == 3
        # the soc defaults are the chip's: the GENESYS row resolves to
        # the same config, GeneSysConfig's own defaults
        assert config == GeneSysConfig(neat=neat, seed=3)
        assert make_platform("GENESYS").genesys_config(neat, 3) == config

    def test_make_platform_accepts_spec_and_dict(self):
        from_spec = make_platform(PlatformSpec("soc", "G", {"eve_pes": 64}))
        from_dict = make_platform({"kind": "soc", "name": "G",
                                   "params": {"eve_pes": 64}})
        assert isinstance(from_spec, GenesysPlatform)
        assert from_spec.params == from_dict.params
        assert from_spec.params.eve_pes == 64

    def test_soc_kind_spec_resolves(self):
        platform = make_platform({"kind": "soc", "params": {"eve_pes": 8}})
        assert isinstance(platform, GenesysPlatform)
        assert platform.genesys_config(NEATConfig()).eve.num_pes == 8

    def test_unknown_name_error_lists_registered(self):
        with pytest.raises(UnknownPlatformError, match="CPU_a"):
            make_platform("TPU")
        # back-compat: pre-registry callers caught KeyError
        with pytest.raises(KeyError):
            make_platform("TPU")

    def test_table_is_fixed(self):
        """The table is the nine Table III rows, in the paper's order,
        plus soc, and each name is an analytical backend key."""
        rows = ["CPU_a", "CPU_b", "CPU_c", "CPU_d",
                "GPU_a", "GPU_b", "GPU_c", "GPU_d", "GENESYS"]
        assert platform_names() == sorted(rows + ["soc"])
        assert [row["Legend"] for row in table3()] == rows
        assert platform_spec("GENESYS") is registered_platforms()["GENESYS"]
        # one chip: the Table III row is the soc design point, renamed
        assert platform_spec("GENESYS") == PlatformSpec("soc", "GENESYS")
        assert available_backends() == [
            f"analytical:{name}" for name in platform_names()
        ] + ["soc", "software"]


# ---------------------------------------------------------------------------
# embedded platform on the experiment spec


class TestEmbeddedPlatform:
    def test_to_dict_omits_unset_platform(self):
        spec = ExperimentSpec("CartPole-v0", **SMALL)
        assert "platform" not in spec.to_dict()
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec and clone.platform is None

    def test_embedded_platform_round_trips(self):
        spec = ExperimentSpec(
            "CartPole-v0", backend="analytical",
            platform={"kind": "soc", "name": "GENESYS"}, **SMALL,
        )
        assert isinstance(spec.platform, PlatformSpec)
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_dict()["platform"]["kind"] == "soc"

    def test_software_backend_rejects_platform(self):
        with pytest.raises(SpecError, match="software backend takes no"):
            ExperimentSpec("CartPole-v0", platform={"kind": "soc"},
                           **SMALL)

    def test_analytical_suffix_conflicts_with_platform(self):
        with pytest.raises(SpecError, match="already names a platform"):
            ExperimentSpec("CartPole-v0", backend="analytical:GENESYS",
                           platform={"kind": "soc"}, **SMALL)

    def test_soc_backend_needs_soc_kind(self):
        with pytest.raises(SpecError, match="'soc'-kind"):
            ExperimentSpec("CartPole-v0", backend="soc",
                           platform=platform_spec("CPU_a"), **SMALL)

    def test_embedded_matches_named_analytical(self):
        named = Experiment(ExperimentSpec(
            "CartPole-v0", backend="analytical:GENESYS", **SMALL
        )).run()
        embedded = Experiment(ExperimentSpec(
            "CartPole-v0", backend="analytical",
            platform={"kind": "soc", "name": "GENESYS"}, **SMALL,
        )).run()
        assert embedded.backend == named.backend == "analytical:GENESYS"
        assert embedded.total_energy_j == named.total_energy_j
        assert embedded.best_fitness == named.best_fitness

    def test_soc_design_point_precedence(self):
        """spec.platform, else the paper's design point."""
        spec = ExperimentSpec(
            "CartPole-v0", backend="soc",
            platform={"kind": "soc", "params": {"eve_pes": 8}}, **SMALL,
        )
        assert spec.design_point() is spec.platform
        assert make_backend(spec)._resolve_config(spec).eve.num_pes == 8
        bare = spec.replace(platform=None)
        assert bare.design_point() == platform_spec("soc")
        paper = make_backend(bare)._resolve_config(bare)
        assert paper.eve.num_pes == 256

    def test_design_point_of_each_substrate(self):
        """The table row ``analytical:<name>`` names, the embedded block
        of a bare ``analytical`` spec, and nothing on ``software``."""
        named = ExperimentSpec("CartPole-v0", backend="analytical:CPU_b")
        assert named.design_point() is platform_spec("CPU_b")
        embedded = ExperimentSpec(
            "CartPole-v0", backend="analytical", platform={"kind": "soc"}
        )
        assert embedded.design_point() is embedded.platform
        assert ExperimentSpec("CartPole-v0").design_point() is None

    def test_analytical_soc_projection(self):
        """'analytical:soc' is the SoC's workload-aggregate projection."""
        result = Experiment(ExperimentSpec(
            "CartPole-v0", backend="analytical:soc", **SMALL
        )).run()
        assert result.backend == "analytical:soc"
        assert result.total_energy_j > 0


class TestRunsIntegration:
    def test_spec_json_carries_platform_and_resume_validates(self, tmp_path):
        from repro.runs import RunDir, run_in_dir

        spec = ExperimentSpec(
            "CartPole-v0", backend="analytical",
            platform={"kind": "soc", "name": "GENESYS"},
            max_generations=2, pop_size=10, max_steps=30, seed=0,
        )
        run_dir = tmp_path / "run"
        run_in_dir(spec, run_dir)
        stored = json.loads((run_dir / "spec.json").read_text())
        assert stored["platform"]["kind"] == "soc"
        reloaded = RunDir(run_dir).load_spec()
        assert reloaded.platform == spec.platform
        # a different platform block must be rejected on resume
        from repro.runs import RunError

        other = spec.replace(
            platform=spec.platform.replace_params(eve_pes=8),
            max_generations=4,
        )
        with pytest.raises(RunError, match="platform"):
            run_in_dir(other, run_dir, resume=True)
        # while a pure budget extension resumes fine
        extended = run_in_dir(
            spec.replace(max_generations=3), run_dir, resume=True
        )
        assert extended.generations == 3


def test_dataclass_param_fields_are_sweepable():
    """Every param field surfaces as a platform.* DSE axis."""
    from repro.dse import PLATFORM_AXES

    for params_cls in PLATFORM_KINDS.values():
        for field in dataclasses.fields(params_cls):
            assert f"platform.{field.name}" in PLATFORM_AXES
