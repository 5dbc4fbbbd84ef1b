"""Unit tests for repro.core.config."""

import pytest

from repro.core.config import GeneSysConfig
from repro.neat import NEATConfig


def test_defaults_are_the_section_v_design():
    config = GeneSysConfig()
    assert config.eve.num_pes == 256
    assert config.eve.noc == "multicast"
    assert config.eve.scheduler == "greedy"
    assert config.adam.rows == 32 and config.adam.cols == 32
    assert config.sram.num_banks == 48
    assert config.sram.bank_depth == 4096
    assert config.frequency_hz == 200e6


def test_neat_sizing_rides_on_the_defaults():
    neat = NEATConfig.for_env(4, 2, pop_size=10)
    config = GeneSysConfig(neat=neat)
    assert config.neat.genome.num_inputs == 4


def test_pe_config_probability_mapping():
    neat = NEATConfig.for_env(4, 2, pop_size=10)
    config = GeneSysConfig(neat=neat)
    pe = config.pe_config_from_neat()
    assert pe.crossover_bias == neat.genome.crossover_bias
    assert 0.0 <= pe.node_add_prob <= 1.0
    assert 0.0 <= pe.conn_delete_prob <= 1.0
    assert pe.max_node_deletions == neat.genome.max_node_deletions_per_child


def test_per_gene_probabilities_shrink_with_genome_size():
    small = GeneSysConfig(neat=NEATConfig.for_env(2, 2))
    large = GeneSysConfig(neat=NEATConfig.for_env(128, 6))
    assert (
        large.pe_config_from_neat().node_add_prob
        < small.pe_config_from_neat().node_add_prob
    )
