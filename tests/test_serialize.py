"""Unit tests for genome/population serialization."""

import json
import random

import pytest

from repro.neat import Genome, GenomeConfig, InnovationTracker, NEATConfig
from repro.neat.network import FeedForwardNetwork
from repro.neat.serialize import (
    DeserializationError,
    genome_from_dict,
    genome_to_dict,
    load_genome_with_config,
    save_genome,
)


@pytest.fixture
def config():
    return NEATConfig.for_env(3, 2, pop_size=5)


@pytest.fixture
def genome(config):
    rng = random.Random(0)
    innovations = InnovationTracker(next_node_id=2)
    g = Genome(7)
    g.configure_new(config.genome, rng)
    for _ in range(20):
        g.mutate(config.genome, rng, innovations)
    g.fitness = 42.5
    return g


class TestDictRoundTrip:
    def test_structure_preserved(self, genome):
        clone = genome_from_dict(genome_to_dict(genome))
        assert clone.key == genome.key
        assert clone.fitness == genome.fitness
        assert set(clone.nodes) == set(genome.nodes)
        assert set(clone.connections) == set(genome.connections)

    def test_attributes_exact(self, genome):
        clone = genome_from_dict(genome_to_dict(genome))
        for key, node in genome.nodes.items():
            assert clone.nodes[key].bias == node.bias
            assert clone.nodes[key].activation == node.activation
        for key, conn in genome.connections.items():
            assert clone.connections[key].weight == conn.weight
            assert clone.connections[key].enabled == conn.enabled

    def test_phenotype_identical(self, genome, config):
        clone = genome_from_dict(genome_to_dict(genome))
        a = FeedForwardNetwork.create(genome, config.genome)
        b = FeedForwardNetwork.create(clone, config.genome)
        x = [0.2, -0.7, 0.5]
        assert a.activate(x) == b.activate(x)

    def test_json_serialisable(self, genome):
        json.dumps(genome_to_dict(genome))


class TestFileRoundTrip:
    def test_save_load_genome(self, genome, config, tmp_path):
        path = tmp_path / "champion.json"
        save_genome(genome, path, config=config)
        loaded, _ = load_genome_with_config(path)
        assert set(loaded.connections) == set(genome.connections)

    def test_save_with_config(self, genome, config, tmp_path):
        path = tmp_path / "champion.json"
        save_genome(genome, path, config=config)
        loaded, loaded_config = load_genome_with_config(path)
        assert loaded_config.genome.num_inputs == 3
        assert loaded.key == genome.key


class TestFailureModes:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DeserializationError):
            load_genome_with_config(path)

    def test_missing_genome_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"something": 1}))
        with pytest.raises(DeserializationError):
            load_genome_with_config(path)

    def test_wrong_format_version(self, genome):
        data = genome_to_dict(genome)
        data["format"] = 99
        with pytest.raises(DeserializationError):
            genome_from_dict(data)

    def test_malformed_node(self, genome):
        data = genome_to_dict(genome)
        del data["nodes"][0]["bias"]
        with pytest.raises(DeserializationError):
            genome_from_dict(data)

    def test_missing_config(self, genome, tmp_path):
        path = tmp_path / "nocfg.json"
        path.write_text(json.dumps({"genome": genome_to_dict(genome)}))
        with pytest.raises(DeserializationError):
            load_genome_with_config(path)


class TestPopulationState:
    """The full evolution-state format behind checkpoint/resume."""

    def make_population(self, config, generations=2):
        from repro.envs.evaluate import FitnessEvaluator
        from repro.neat.population import Population

        population = Population(config, seed=0)
        evaluator = FitnessEvaluator("CartPole-v0", max_steps=20, seed=0)
        for _ in range(generations):
            population.run_generation(evaluator)
        return population

    @pytest.fixture
    def cartpole_config(self):
        return NEATConfig.for_env(4, 2, pop_size=10)

    def test_round_trip_preserves_everything(self, cartpole_config):
        from repro.neat.population import Population
        from repro.neat.serialize import population_to_state

        population = self.make_population(cartpole_config)
        state = json.loads(json.dumps(population_to_state(population)))
        restored = Population.from_state(state, cartpole_config)
        assert restored.generation == population.generation
        assert restored.rng.getstate() == population.rng.getstate()
        assert list(restored.population) == list(population.population)
        assert restored.innovations.next_node_id == population.innovations.next_node_id
        assert (restored.reproduction._next_genome_key
                == population.reproduction._next_genome_key)
        assert list(restored.species_set.species) == list(
            population.species_set.species
        )
        assert restored.best_genome.fitness == population.best_genome.fitness
        assert len(restored.last_plan.events) == len(population.last_plan.events)

    def test_representatives_are_member_objects(self, cartpole_config):
        from repro.neat.population import Population

        population = self.make_population(cartpole_config)
        restored = Population.from_state(
            population.to_state(), cartpole_config
        )
        for species in restored.species_set.species.values():
            assert species.representative is restored.population[
                species.representative.key
            ]

    def test_bad_state_format_version(self, cartpole_config):
        from repro.neat.population import Population

        state = self.make_population(cartpole_config).to_state()
        state["format"] = 99
        with pytest.raises(DeserializationError, match="format version"):
            Population.from_state(state, cartpole_config)

    def test_foreign_config_rejected(self, cartpole_config):
        from repro.neat.population import Population

        state = self.make_population(cartpole_config).to_state()
        foreign = NEATConfig.for_env(2, 3, pop_size=10)
        with pytest.raises(DeserializationError, match="different NEAT config"):
            Population.from_state(state, foreign)

    def test_truncated_state_file(self, cartpole_config, tmp_path):
        from repro.neat.serialize import load_population_state
        from repro.runs import RunDir

        population = self.make_population(cartpole_config)
        path = RunDir(tmp_path).write_checkpoint(population.to_state())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulate a torn write
        with pytest.raises(DeserializationError, match="not valid JSON"):
            load_population_state(path)

    def test_state_file_without_population(self, tmp_path):
        from repro.neat.serialize import load_population_state

        path = tmp_path / "notckpt.json"
        path.write_text(json.dumps({"format": 1, "generation": 3}))
        with pytest.raises(DeserializationError, match="population-state"):
            load_population_state(path)

    def test_malformed_state_payload(self, cartpole_config):
        from repro.neat.population import Population

        state = self.make_population(cartpole_config).to_state()
        del state["rng_state"]
        with pytest.raises(DeserializationError, match="malformed population state"):
            Population.from_state(state, cartpole_config)

    def test_non_dict_state(self, cartpole_config):
        from repro.neat.serialize import population_from_state

        with pytest.raises(DeserializationError, match="JSON object"):
            population_from_state(["not", "a", "dict"], cartpole_config)


class TestHardwareInterop:
    def test_loaded_genome_encodes(self, genome, config, tmp_path):
        from repro.hw import encode_genome

        path = tmp_path / "g.json"
        save_genome(genome, path, config=config)
        loaded, _ = load_genome_with_config(path)
        assert encode_genome(loaded, config.genome) == encode_genome(
            genome, config.genome
        )
