"""Unit tests for repro.api backends, registry and the Experiment runner."""

import pytest

from repro.api import (
    Experiment,
    ExperimentSpec,
    RunResult,
    SpecError,
    available_backends,
    make_backend,
)
from repro.hw.energy import FREQUENCY_HZ

SMALL = dict(max_generations=3, pop_size=14, max_steps=40, seed=0)


def small_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec("CartPole-v0", **{**SMALL, **overrides})


class TestRegistry:
    def test_available_backends_lists_all_substrates(self):
        names = available_backends()
        assert "software" in names
        assert "soc" in names
        assert "analytical:GENESYS" in names
        assert "analytical:CPU_a" in names

    def test_unknown_backend(self):
        with pytest.raises(SpecError, match="unknown backend 'fpga'"):
            ExperimentSpec("CartPole-v0", backend="fpga")

    def test_unknown_analytical_platform(self):
        with pytest.raises(
            SpecError, match="unknown analytical platform 'TPU_z'"
        ):
            ExperimentSpec("CartPole-v0", backend="analytical:TPU_z")

    def test_software_rejects_parameter(self):
        with pytest.raises(SpecError, match="unknown backend 'software:fast'"):
            ExperimentSpec("CartPole-v0", backend="software:fast")

    def test_soc_rejects_parameter(self):
        """Only ``analytical`` takes ``:<name>``; a soc design point is
        the spec's platform block."""
        with pytest.raises(SpecError, match="unknown backend 'soc:x'"):
            ExperimentSpec("CartPole-v0", backend="soc:x")

    def test_load_refuses_a_bad_backend(self, tmp_path):
        """A stored spec is checked the moment it is read, not when a
        backend is built."""
        path = tmp_path / "spec.json"
        path.write_text('{"env_id": "CartPole-v0", "backend": "fpga"}')
        with pytest.raises(SpecError, match="unknown backend 'fpga'"):
            ExperimentSpec.load(path)

    @pytest.mark.parametrize("backend, substrate", [
        ("software", "software"),
        ("soc", "soc"),
        ("analytical:GENESYS", "analytical"),
    ])
    def test_make_backend_dispatches_on_substrate(self, backend, substrate):
        spec = ExperimentSpec("CartPole-v0", backend=backend)
        assert spec.substrate == substrate
        assert make_backend(spec).name == backend


class TestBackendsRun:
    def test_software_backend(self):
        result = Experiment(small_spec()).run()
        assert isinstance(result, RunResult)
        assert result.backend == "software"
        assert result.champion.fitness is not None
        assert len(result.metrics) == result.generations
        assert result.total_energy_j is None  # software measures no energy
        assert result.population is not None

    def test_soc_backend(self):
        result = Experiment(small_spec(backend="soc")).run()
        assert result.backend == "soc"
        assert result.total_energy_j > 0
        assert result.total_cycles > 0
        assert result.total_runtime_s > 0
        assert len(result.reports) == len(result.metrics)
        assert all(m.energy_j is not None for m in result.metrics)

    def test_analytical_backend(self):
        result = Experiment(small_spec(backend="analytical:GENESYS")).run()
        assert result.backend == "analytical:GENESYS"
        assert result.total_energy_j > 0
        assert result.total_runtime_s > 0
        assert all(m.runtime_s is not None for m in result.metrics)

    def test_analytical_matches_software_champion(self):
        """The analytical backend only *costs* the run — the evolution
        itself must be identical to the software path."""
        sw = Experiment(small_spec()).run()
        an = Experiment(small_spec(backend="analytical:CPU_a")).run()
        assert sw.best_fitness == an.best_fitness
        assert [m.best_fitness for m in sw.metrics] == \
            [m.best_fitness for m in an.metrics]

    def test_analytical_platforms_differ_in_cost_not_outcome(self):
        cpu = Experiment(small_spec(backend="analytical:CPU_a")).run()
        gen = Experiment(small_spec(backend="analytical:GENESYS")).run()
        assert cpu.best_fitness == gen.best_fitness
        assert cpu.total_energy_j != gen.total_energy_j

    def test_summary_is_json_friendly(self):
        import json

        result = Experiment(small_spec()).run()
        text = json.dumps(result.summary())
        assert "best_fitness" in text

    @pytest.mark.parametrize(
        "backend, rows", [("software", 3), ("soc", 2)], ids=["software", "soc"]
    )
    def test_fitness_threshold_stops_early(self, backend, rows):
        """Every substrate stops after the first generation whose
        champion meets the threshold: one past the first row whose best
        fitness does, with the rows of the same run left uncapped."""
        unlimited = small_spec(
            backend=backend, max_generations=6, fitness_threshold=1e9
        )
        full = Experiment(unlimited).run()
        assert full.generations == 6 and not full.converged
        capped = small_spec(
            backend=backend, max_generations=6, fitness_threshold=30.0
        )
        result = Experiment(capped).run()
        best = [m.best_fitness for m in full.metrics]
        first = next(i for i, fitness in enumerate(best) if fitness >= 30.0)
        assert result.generations == first + 1 == rows
        assert [m.best_fitness for m in result.metrics] == best[:rows]
        assert result.converged and not result.stopped_early


class TestSoCHardwareOptions:
    """The soc backend's design point is its ``platform`` option."""

    def test_options_reshape_the_design_point(self):
        spec = small_spec(backend="soc", platform={"kind": "soc", "params": {
            "eve_pes": 8, "noc": "p2p", "scheduler": "round-robin",
            "adam_shape": "16x8",
        }})
        config = make_backend(spec)._resolve_config(spec)
        assert config.eve.num_pes == 8
        assert config.eve.noc == "p2p"
        assert config.eve.scheduler == "round-robin"
        assert (config.adam.rows, config.adam.cols) == (16, 8)

    def test_soc_runtime_respects_platform_frequency(self):
        """runtime_s must follow the design point's clock, not the module
        default."""
        spec = small_spec(backend="soc", max_generations=1)
        slow_run = Experiment(spec).run()
        fast = {"kind": "soc", "params": {"frequency_hz": 2 * FREQUENCY_HZ}}
        fast_run = Experiment(spec.replace(platform=fast)).run()
        assert slow_run.total_cycles == fast_run.total_cycles
        assert fast_run.total_runtime_s == pytest.approx(
            slow_run.total_runtime_s / 2
        )
        assert fast_run.metrics[0].runtime_s == pytest.approx(
            slow_run.metrics[0].runtime_s / 2
        )

    @pytest.mark.parametrize("options", [
        {"eve_pes": 0},
        {"eve_pes": "many"},
        {"noc": "torus"},
        {"scheduler": "lifo"},
        {"adam_shape": "32"},
        {"adam_shape": "0x8"},
        {"vectorize": False},
    ])
    def test_invalid_options_raise_spec_errors(self, options):
        """Neither the design-point knobs nor a serial/batched switch are
        options: the spec refuses each before any backend is built."""
        from repro.api import SpecError

        with pytest.raises(SpecError, match="backend_options"):
            small_spec(backend="soc", backend_options=options)

    def test_bare_analytical_requires_platform(self):
        with pytest.raises(SpecError, match="needs a platform"):
            small_spec(backend="analytical")


class TestObservers:
    @pytest.mark.parametrize("backend", ["software", "analytical:GENESYS", "soc"])
    def test_observers_fire(self, backend):
        """The loop contract, the same on every substrate: per generation
        on_evaluation -> on_generation -> on_state -> should_stop (on_state
        only where there is a population to snapshot); should_stop sees
        1, 2, ... and is not polled on the generation that meets the
        threshold; only should_stop ends a run early."""

        def run(stop_at=None, **overrides):
            events = []

            def should_stop(done):
                events.append(("should_stop", done))
                return done == stop_at

            result = Experiment(small_spec(backend=backend, **overrides)).run(
                on_evaluation=lambda gen, genomes: events.append((
                    "evaluation", gen,
                    all(g.fitness is not None for g in genomes),
                )),
                on_generation=lambda m: events.append(
                    ("generation", m.generation)
                ),
                on_state=lambda population: events.append(
                    ("state", population.generation)
                ),
                should_stop=should_stop,
            )
            return result, events

        def generation(gen, polled=True):
            hooks = [("evaluation", gen, True), ("generation", gen)]
            if backend != "soc":
                hooks.append(("state", gen + 1))
            if polled:
                hooks.append(("should_stop", gen + 1))
            return hooks

        result, events = run(fitness_threshold=1e9)
        assert events == generation(0) + generation(1) + generation(2)
        assert result.generations == 3
        assert not result.stopped_early and not result.converged

        result, events = run(stop_at=2, fitness_threshold=1e9)
        assert events == generation(0) + generation(1)
        assert result.generations == len(result.metrics) == 2
        assert result.stopped_early and not result.converged

        # every CartPole genome scores at least 1, so generation 0 meets
        # this threshold: the run ends there without polling should_stop
        result, events = run(stop_at=1, fitness_threshold=1.0)
        assert events == generation(0, polled=False)
        assert result.generations == 1
        assert result.converged and not result.stopped_early

