"""Unit tests for the GeneSys SoC walkthrough loop."""

import pytest
from eve_reference import PackedGene
from neat_reference import SerialSoC

from repro.api import Experiment, ExperimentSpec
from repro.core import soc as soc_module
from repro.core.config import GeneSysConfig
from repro.core.runner import config_for_env
from repro.core.soc import GeneSysSoC
from repro.hw.eve import EvEConfig
from repro.hw.gene_encoding import decode_genome, pack_connection
from repro.hw.pe import PEConfig
from repro.hw.selector import SelectionOutcome


@pytest.fixture
def soc():
    neat = config_for_env("CartPole-v0", pop_size=16)
    config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=8), seed=0)
    return GeneSysSoC(config, "CartPole-v0", episodes=1, max_steps=60)


def test_construction_leaves_the_callers_config_alone():
    """The engine latches the NEAT-derived PE registers on a copy of the
    caller's EvE config."""
    neat = config_for_env("CartPole-v0", pop_size=16)
    eve = EvEConfig(num_pes=8, pe=PEConfig(perturb_prob=0.9))
    config = GeneSysConfig(neat=neat, eve=eve, seed=0)
    soc = GeneSysSoC(config, "CartPole-v0")
    assert eve.pe == PEConfig(perturb_prob=0.9)
    assert soc.eve.config.pe == config.pe_config_from_neat()
    assert soc.eve.config.num_pes == 8


def test_initialise_population_loads_buffer(soc):
    soc.initialise_population()
    assert len(soc.population) == 16
    assert soc.buffer.resident_genomes() == sorted(soc.population)


def test_evaluate_population_sets_fitness(soc):
    soc.initialise_population()
    steps = soc.evaluate_population()
    assert steps > 0
    for key, genome in soc.population.items():
        assert genome.fitness is not None
        assert soc.buffer.get_fitness(key) == genome.fitness


def test_run_generation_report_fields(soc):
    report = soc.run_generation()
    assert report.generation == report.stats.generation == 0
    assert report.stats.best_fitness >= report.stats.mean_fitness >= 1.0
    assert report.stats.num_genes > 0
    assert report.env_steps > 0
    assert report.inference_cycles > 0
    assert report.evolution_cycles > 0
    assert report.energy.total_energy_j > 0
    assert report.inference.passes > 0
    assert report.stats.footprint_bytes == report.stats.num_genes * 8


def test_generation_replaces_population(soc):
    soc.run_generation()
    first_gen_keys = set(soc.population)
    soc.run_generation()
    assert set(soc.population).isdisjoint(first_gen_keys)
    assert len(soc.population) == 16
    # buffer holds exactly the new generation
    assert soc.buffer.resident_genomes() == sorted(soc.population)


def test_population_size_conserved_across_generations(soc):
    for _ in range(4):
        soc.run_generation()
        assert len(soc.population) == 16


def test_children_decode_valid(soc):
    soc.run_generation()
    for genome in soc.population.values():
        genome.validate(soc.config.neat.genome)


def _soc_run(max_generations, fitness_threshold, pop_size=16, num_pes=8,
             seed=0, max_steps=60):
    """A closed-loop soc run through the api generation loop."""
    spec = ExperimentSpec(
        "CartPole-v0", backend="soc", max_generations=max_generations,
        fitness_threshold=fitness_threshold, pop_size=pop_size, seed=seed,
        max_steps=max_steps,
        platform={"kind": "soc", "params": {"eve_pes": num_pes}},
    )
    return Experiment(spec).run()


def test_run_until_threshold():
    result = _soc_run(max_generations=8, fitness_threshold=30.0)
    assert result.champion.fitness is not None
    assert result.reports
    assert result.generations == len(result.reports) <= 8
    assert result.converged == (result.champion.fitness >= 30.0)
    if result.generations < 8:
        assert result.converged


def test_reports_accumulate():
    result = _soc_run(max_generations=3, fitness_threshold=1e9)
    assert len(result.reports) == 3
    assert [r.generation for r in result.reports] == [0, 1, 2]


def test_zero_fitness_champion_not_displaced_by_a_worse_one(soc, monkeypatch):
    """Regression: a 0.0 champion used to count as missing, so the next
    generation's best replaced it even when lower."""
    evaluate = soc.evaluate_population
    scores = iter([0.0, -1.0])

    def scored_evaluation():
        steps = evaluate()
        score = next(scores)
        for key, genome in soc.population.items():
            genome.fitness = score
            soc.buffer.set_fitness(key, score)
        return steps

    monkeypatch.setattr(soc, "evaluate_population", scored_evaluation)
    soc.run_generation()
    soc.run_generation()
    assert [r.stats.best_fitness for r in soc.reports] == [0.0, -1.0]
    assert soc.best_genome.fitness == 0.0


def test_seconds_properties(soc):
    report = soc.run_generation()
    assert report.inference_seconds == pytest.approx(report.inference_cycles / 200e6)
    assert report.evolution_seconds == pytest.approx(report.evolution_cycles / 200e6)
    # A design point's own clock: the report's seconds are the row's runtime.
    result = Experiment(ExperimentSpec(
        "CartPole-v0", backend="soc", max_generations=1, pop_size=20,
        platform={"kind": "soc", "params": {"frequency_hz": 4e8}},
    )).run()
    report, row = result.reports[0], result.metrics[0]
    assert report.inference_seconds == report.inference_cycles / 4e8
    assert report.inference_seconds + report.evolution_seconds == \
        pytest.approx(row.runtime_s)


def test_deterministic_given_seed():
    results = []
    for _ in range(2):
        result = _soc_run(max_generations=3, fitness_threshold=1e9,
                          pop_size=12, num_pes=4, seed=5, max_steps=40)
        results.append([r.stats.best_fitness for r in result.reports])
    assert results[0] == results[1]


class TestVectorizedEvaluation:
    """The soc's lanes and ADAM envelope must be indistinguishable from
    the walkthrough genome by genome (``neat_reference.SerialSoC``):
    fitnesses, env steps, every ADAM counter and the whole energy ledger,
    at every generation."""

    @staticmethod
    def _reports(env_id, soc_class, episodes=1, generations=6):
        from dataclasses import astuple

        neat = config_for_env(env_id, pop_size=14)
        config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=8), seed=9)
        soc = soc_class(config, env_id, episodes=episodes, max_steps=40)
        out = []
        for _ in range(generations):
            r = soc.run_generation()
            out.append((
                astuple(r.stats), r.env_steps,
                astuple(r.inference), r.inference_cycles,
                r.energy.total_energy_j,
            ))
        return out

    @pytest.mark.parametrize("env_id", ["CartPole-v0", "MountainCar-v0"])
    def test_bit_identical_to_serial(self, env_id):
        assert self._reports(env_id, GeneSysSoC) == self._reports(env_id, SerialSoC)

    def test_bit_identical_multi_episode(self):
        assert self._reports("CartPole-v0", GeneSysSoC, episodes=3) == \
            self._reports("CartPole-v0", SerialSoC, episodes=3)

    def test_env_steps_cover_every_episode(self):
        """Regression: the serial walkthrough used to count only the last
        episode's steps per genome when episodes > 1."""
        neat = config_for_env("CartPole-v0", pop_size=8)
        config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=8), seed=1)
        soc = GeneSysSoC(config, "CartPole-v0", episodes=3, max_steps=25)
        soc.initialise_population()
        steps = soc.evaluate_population()
        # every episode runs at least one step, so 8 genomes x 3 episodes
        assert steps >= 24
        assert steps == soc.adam.stats.passes

    def test_bit_identical_on_seed_3_at_the_section_v_design(self):
        """Regression: the lanes once rounded differently from the
        serial walk, and this run's generation 10 took 17538 env steps
        serially but 17536 batched."""
        from dataclasses import astuple

        def reports(soc_class):
            neat = config_for_env("CartPole-v0", pop_size=150)
            config = GeneSysConfig(neat=neat, seed=3)
            soc = soc_class(config, "CartPole-v0")
            return [
                (astuple(r.stats), r.env_steps,
                 astuple(r.inference), astuple(r.energy), r.energy.total_energy_j)
                for r in (soc.run_generation() for _ in range(11))
            ]

        assert reports(GeneSysSoC) == reports(SerialSoC)


def test_eve_children_stay_acyclic_on_seed_26():
    """Regression: on this seed EvE used to emit a cyclic child before
    generation 18 (an added connection whose key only the less-fit parent
    carried skipped Gene Merge's cycle check), and ADAM's plan builder
    raised."""
    spec = ExperimentSpec(
        env_id="CartPole-v0", seed=26, max_generations=20,
        fitness_threshold=1e9, pop_size=150, backend="soc",
    )
    assert Experiment(spec).run().generations == 20


class TestSingleDecode:
    """``evaluate_population`` maps on ADAM the genome ``evolve_population``
    decoded from the same buffered stream, and decodes any other stream."""

    @staticmethod
    def _watch(monkeypatch):
        """Record decoded keys and the genomes mapped on ADAM."""
        decoded, mapped = [], {}
        decode, plan = soc_module.decode_genome, soc_module.build_inference_plan

        def counting_decode(stream, key, config):
            decoded.append(key)
            return decode(stream, key, config)

        def recording_plan(genomes, config):
            mapped.update((genome.key, genome) for genome in genomes)
            return plan(genomes, config)

        monkeypatch.setattr(soc_module, "decode_genome", counting_decode)
        monkeypatch.setattr(soc_module, "build_inference_plan", recording_plan)
        return decoded, mapped

    @staticmethod
    def _fields(genome):
        return (
            {k: (n.bias, n.response, n.activation, n.aggregation)
             for k, n in genome.nodes.items()},
            {k: (c.weight, c.enabled) for k, c in genome.connections.items()},
        )

    def test_evolved_children_are_not_decoded_again(self, soc, monkeypatch):
        soc.run_generation()
        decoded, mapped = self._watch(monkeypatch)
        reads = soc.buffer.stats.reads
        soc.evaluate_population()
        assert decoded == []
        assert all(mapped[k] is g for k, g in soc.population.items())
        # every word is still read from the buffer
        assert soc.buffer.stats.reads - reads == sum(
            soc.buffer.genome_length(k) for k in soc.population
        )

    def test_stream_written_outside_eve_is_decoded(self, soc, monkeypatch):
        soc.run_generation()
        key = sorted(soc.population)[0]
        stream = list(soc.buffer.peek_genome(key))
        i = next(i for i, word in enumerate(stream) if PackedGene(word).is_connection)
        gene = PackedGene(stream[i])
        stream[i] = pack_connection(
            gene.source, gene.dest, gene.weight + 1.0, gene.enabled
        )
        soc.buffer.write_genome(key, stream)
        decoded, mapped = self._watch(monkeypatch)
        soc.evaluate_population()
        assert decoded == [key]
        cfg = soc.config.neat.genome
        assert self._fields(mapped[key]) == self._fields(
            decode_genome(stream, key, cfg)
        )

    def test_extinction_reseed_is_decoded(self, soc, monkeypatch):
        soc.run_generation()
        monkeypatch.setattr(
            soc.selector, "select",
            lambda *args: SelectionOutcome(plan=None, num_species=0, cpu_cycles=0),
        )
        soc.evolve_population()  # complete extinction: the CPU re-seeds
        decoded, mapped = self._watch(monkeypatch)
        soc.evaluate_population()
        assert decoded == sorted(soc.population)
        cfg = soc.config.neat.genome
        for key in soc.population:
            assert mapped[key] is not soc.population[key]
            assert self._fields(mapped[key]) == self._fields(
                decode_genome(soc.buffer.peek_genome(key), key, cfg)
            )
