"""Unit tests for reproduction traces and workload records."""

import pytest

from repro.api import Experiment, ExperimentSpec
from repro.core.trace import GenerationWorkload, TraceRecorder
from repro.neat.genome import MutationCounts


@pytest.fixture(scope="module")
def trace():
    spec = ExperimentSpec("CartPole-v0", pop_size=20, seed=0, max_steps=60)
    return TraceRecorder(spec).record(4)


def test_workloads_per_generation(trace):
    assert len(trace.workloads) == 4
    for workload in trace.workloads:
        assert workload.population == 20
        assert workload.total_genes > 0
        assert workload.env_steps > 0
        assert workload.inference_macs > 0
        assert workload.mean_network_depth >= 1.0


def test_every_generation_counts_its_reproduction(trace):
    # generation g's workload counts the ops of the reproduction that
    # generation performed, so generation 0 (and the last) has ops too
    assert all(w.evolution_ops > 0 for w in trace.workloads)


def test_footprint_is_8_bytes_per_gene(trace):
    w = trace.workloads[0]
    assert w.footprint_bytes == w.total_genes * 8


def test_recorder_runs_the_specs_scenario():
    """A trace records the run its spec describes, scenario included:
    per generation, the same env steps as the experiment itself."""
    spec = ExperimentSpec(
        "CartPole-v0", max_generations=3, pop_size=12, max_steps=40, seed=0,
        scenario={"env_id": "CartPole-v0",
                  "params": {"length": 0.1, "gravity": 30.0}},
    )
    trace = TraceRecorder(spec).record(spec.max_generations)
    result = Experiment(spec).run()
    assert len(result.metrics) == 3  # the solve threshold stayed out of reach
    assert [w.env_steps for w in trace.workloads] == [
        m.env_steps for m in result.metrics
    ]


def test_mean_workload(trace):
    mean = trace.mean_workload()
    assert mean.population == 20
    assert mean.total_genes > 0
    assert mean.env_steps > 0


def test_mean_workload_empty_raises():
    from repro.core.trace import WorkloadTrace

    with pytest.raises(ValueError):
        WorkloadTrace(env_id="x").mean_workload()


def test_workload_derived_properties():
    w = GenerationWorkload(
        generation=1,
        population=10,
        total_nodes=30,
        total_connections=70,
        ops=MutationCounts(crossovers=5, perturbations=5),
        env_steps=100,
        inference_macs=1000,
        mean_network_depth=2.0,
        fittest_parent_reuse=4,
    )
    assert w.total_genes == 100
    assert w.footprint_bytes == 800
    assert w.evolution_ops == 10
    assert w.mean_genome_genes == 10.0
