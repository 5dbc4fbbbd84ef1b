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
from repro.platforms import (
    PLATFORM_KINDS,
    GenesysPlatform,
    PlatformSpec,
    PlatformSpecError,
    SoCPlatform,
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
        assert set(PLATFORM_KINDS) == {"cpu", "gpu", "genesys", "soc"}

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
        with pytest.raises(PlatformSpecError):
            PlatformSpec("genesys", params={"num_eve_pes": -4})

    def test_name_defaults_to_kind(self):
        assert PlatformSpec("soc").name == "soc"
        assert PlatformSpec("genesys", "G2").name == "G2"

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
        spec = PlatformSpec("genesys", "G64", {"num_eve_pes": 64})
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
        spec = PlatformSpec("genesys", params={"num_eve_pes": num})
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
        assert isinstance(platform, SoCPlatform)
        config = platform.genesys_config(seed=3)
        assert config.eve.num_pes == 256
        assert config.seed == 3

    def test_make_platform_accepts_spec_and_dict(self):
        from_spec = make_platform(PlatformSpec("genesys", "G",
                                               {"num_eve_pes": 64}))
        from_dict = make_platform({"kind": "genesys", "name": "G",
                                   "params": {"num_eve_pes": 64}})
        assert isinstance(from_spec, GenesysPlatform)
        assert from_spec.params == from_dict.params
        assert from_spec.params.num_eve_pes == 64

    def test_soc_kind_spec_resolves(self):
        platform = make_platform({"kind": "soc", "params": {"eve_pes": 8}})
        assert isinstance(platform, SoCPlatform)
        assert platform.genesys_config().eve.num_pes == 8

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
            platform={"kind": "genesys", "name": "GENESYS"}, **SMALL,
        )
        assert isinstance(spec.platform, PlatformSpec)
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_dict()["platform"]["kind"] == "genesys"

    def test_software_backend_rejects_platform(self):
        with pytest.raises(SpecError, match="software backend takes no"):
            ExperimentSpec("CartPole-v0", platform={"kind": "genesys"},
                           **SMALL)

    def test_analytical_suffix_conflicts_with_platform(self):
        with pytest.raises(SpecError, match="already names a platform"):
            ExperimentSpec("CartPole-v0", backend="analytical:GENESYS",
                           platform={"kind": "genesys"}, **SMALL)

    def test_soc_backend_needs_soc_kind(self):
        with pytest.raises(SpecError, match="'soc'-kind"):
            ExperimentSpec("CartPole-v0", backend="soc",
                           platform={"kind": "genesys"}, **SMALL)

    def test_embedded_matches_named_analytical(self):
        named = Experiment(ExperimentSpec(
            "CartPole-v0", backend="analytical:GENESYS", **SMALL
        )).run()
        embedded = Experiment(ExperimentSpec(
            "CartPole-v0", backend="analytical",
            platform={"kind": "genesys", "name": "GENESYS"}, **SMALL,
        )).run()
        assert embedded.backend == named.backend == "analytical:GENESYS"
        assert embedded.total_energy_j == named.total_energy_j
        assert embedded.best_fitness == named.best_fitness

    def test_soc_design_point_precedence(self):
        """The platform option, else spec.platform, else the paper's
        design point."""
        spec = ExperimentSpec(
            "CartPole-v0", backend="soc",
            platform={"kind": "soc", "params": {"eve_pes": 8}}, **SMALL,
        )
        option = make_backend(
            "soc", platform={"kind": "soc", "params": {"eve_pes": 64}}
        )
        assert option._resolve_config(spec).eve.num_pes == 64
        assert make_backend("soc")._resolve_config(spec).eve.num_pes == 8
        paper = make_backend("soc")._resolve_config(spec.replace(platform=None))
        assert paper.eve.num_pes == 256

    def test_soc_backend_platform_by_name(self):
        backend = make_backend("soc", platform="soc")
        spec = ExperimentSpec("CartPole-v0", backend="soc", **SMALL)
        assert backend._resolve_config(spec).eve.num_pes == 256

    def test_soc_backend_rejects_analytical_platform(self):
        with pytest.raises(SpecError, match="'soc'-kind"):
            make_backend("soc", platform={"kind": "cpu", "params": {
                "evolution_op_time_s": 1e-6, "mac_time_s": 1e-9,
                "step_overhead_s": 1e-6, "power_w": 10.0,
            }})

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
            platform={"kind": "genesys", "name": "GENESYS"},
            max_generations=2, pop_size=10, max_steps=30, seed=0,
        )
        run_dir = tmp_path / "run"
        run_in_dir(spec, run_dir)
        stored = json.loads((run_dir / "spec.json").read_text())
        assert stored["platform"]["kind"] == "genesys"
        reloaded = RunDir(run_dir).load_spec()
        assert reloaded.platform == spec.platform
        # a different platform block must be rejected on resume
        from repro.runs import RunError

        other = spec.replace(
            platform=spec.platform.replace_params(num_eve_pes=8),
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
