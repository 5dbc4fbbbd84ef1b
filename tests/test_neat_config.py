"""Unit tests for repro.neat.config."""

import pytest

from repro.neat.config import (
    ConfigError,
    GenomeConfig,
    NEATConfig,
    ReproductionConfig,
    SpeciesConfig,
)


class TestGenomeConfig:
    def test_defaults_validate(self):
        GenomeConfig().validate()

    def test_input_output_keys(self):
        cfg = GenomeConfig(num_inputs=3, num_outputs=2)
        assert cfg.input_keys == [-1, -2, -3]
        assert cfg.output_keys == [0, 1]

    def test_rejects_zero_inputs(self):
        with pytest.raises(ConfigError):
            GenomeConfig(num_inputs=0).validate()

    def test_rejects_zero_outputs(self):
        with pytest.raises(ConfigError):
            GenomeConfig(num_outputs=0).validate()

    def test_rejects_bad_initial_connection(self):
        with pytest.raises(ConfigError):
            GenomeConfig(initial_connection="sparse").validate()

    def test_rejects_inverted_weight_bounds(self):
        with pytest.raises(ConfigError):
            GenomeConfig(weight_min_value=5.0, weight_max_value=-5.0).validate()

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ConfigError):
            GenomeConfig(node_add_prob=1.5).validate()
        with pytest.raises(ConfigError):
            GenomeConfig(conn_delete_prob=-0.1).validate()

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigError, match="warp"):
            GenomeConfig(activation_default="warp").validate()
        with pytest.raises(ConfigError, match="warp"):
            GenomeConfig(activation_options=["sigmoid", "warp"]).validate()

    def test_rejects_unknown_aggregation(self):
        with pytest.raises(ConfigError, match="blend"):
            GenomeConfig(aggregation_default="blend").validate()
        with pytest.raises(ConfigError, match="blend"):
            GenomeConfig(aggregation_options=["sum", "blend"]).validate()


class TestSpeciesConfig:
    def test_defaults_validate(self):
        SpeciesConfig().validate()

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigError):
            SpeciesConfig(compatibility_threshold=0.0).validate()

    def test_rejects_bonus_below_one(self):
        with pytest.raises(ConfigError):
            SpeciesConfig(young_fitness_bonus=0.9).validate()


class TestReproductionConfig:
    def test_defaults_validate(self):
        ReproductionConfig().validate()

    def test_rejects_zero_survival(self):
        with pytest.raises(ConfigError):
            ReproductionConfig(survival_threshold=0.0).validate()

    def test_rejects_negative_elitism(self):
        with pytest.raises(ConfigError):
            ReproductionConfig(elitism=-1).validate()


class TestNEATConfig:
    def test_paper_population_default(self):
        # The paper's population size is 150 (Section III-D3).
        assert NEATConfig().pop_size == 150

    def test_rejects_tiny_population(self):
        with pytest.raises(ConfigError):
            NEATConfig(pop_size=1)

    @pytest.mark.parametrize("criterion", ["best", "mean", "min"])
    def test_rejects_bad_criterion(self, criterion):
        """The stop rule compares the champion's fitness, so "max" is
        the only criterion."""
        with pytest.raises(ConfigError, match="compares the champion"):
            NEATConfig(fitness_criterion=criterion)

    def test_for_env_sizes_io(self):
        cfg = NEATConfig.for_env(8, 4, pop_size=30)
        assert cfg.genome.num_inputs == 8
        assert cfg.genome.num_outputs == 4
        assert cfg.pop_size == 30

    def test_round_trip_dict(self):
        cfg = NEATConfig.for_env(4, 3, pop_size=42)
        clone = NEATConfig.from_dict(cfg.to_dict())
        assert clone.pop_size == 42
        assert clone.genome.num_inputs == 4
        assert clone.genome.num_outputs == 3
        assert clone.species.compatibility_threshold == cfg.species.compatibility_threshold
