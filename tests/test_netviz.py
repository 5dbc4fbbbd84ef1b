"""Unit tests for the topology visualisation helpers."""

import random

import pytest

from repro.analysis.netviz import describe_genome
from repro.neat import Genome, GenomeConfig, InnovationTracker


@pytest.fixture
def config():
    return GenomeConfig(num_inputs=2, num_outputs=1)


@pytest.fixture
def genome(config):
    rng = random.Random(0)
    innovations = InnovationTracker(next_node_id=1)
    g = Genome(3)
    g.configure_new(config, rng)
    g.fitness = 12.5
    for _ in range(3):
        g.mutate_add_node(config, rng, innovations)
    return g


def test_describe_contains_summary(genome, config):
    text = describe_genome(genome, config)
    assert "Genome 3" in text
    assert "fitness 12.500" in text
    assert "layer 1" in text
    assert "inputs: [-1, -2]" in text


def test_describe_marks_outputs_and_hidden(genome, config):
    text = describe_genome(genome, config)
    assert "out0(" in text
    assert "hid" in text


def test_describe_reports_fan_in(genome, config):
    text = describe_genome(genome, config)
    assert "fan_in=" in text


def test_describe_handles_unconnected(config):
    g = Genome(0)
    g.configure_new(
        GenomeConfig(num_inputs=2, num_outputs=1, initial_connection="none"),
        random.Random(0),
    )
    text = describe_genome(g, config)
    assert "layer 1" in text

