"""Walkthrough fidelity: Section IV-B's ten steps, observably.

Each test pins one step of the paper's execution sequence to a concrete,
observable effect in the SoC model, so the simulated dataflow can be
audited against the paper text step by step.
"""

import pytest
from eve_reference import view

from repro.api import Experiment, ExperimentSpec
from repro.core import GeneSysConfig, GeneSysSoC, config_for_env
from repro.hw import EvEConfig, decode_genome


@pytest.fixture
def soc():
    neat = config_for_env("CartPole-v0", pop_size=12)
    config = GeneSysConfig(neat=neat, eve=EvEConfig(num_pes=4), seed=1)
    soc = GeneSysSoC(config, "CartPole-v0", episodes=1, max_steps=40)
    soc.initialise_population()
    return soc


def test_step1_genomes_read_from_buffer_for_mapping(soc):
    """Step 1: genomes are read from the genome buffer SRAM."""
    reads_before = soc.buffer.stats.reads
    soc.evaluate_population()
    # every genome's full stream was read at least once for ADAM mapping
    total_genes = sum(g.num_genes for g in soc.population.values())
    assert soc.buffer.stats.reads - reads_before >= total_genes


def test_steps2_to_5_env_interaction_until_completion(soc):
    """Steps 2-5: repeated state->inference->action until done."""
    steps = soc.evaluate_population()
    assert steps >= len(soc.population)  # every genome stepped at least once
    assert soc.adam.stats.passes == steps * soc.episodes


def test_step6_fitness_augmented_to_genome_in_sram(soc):
    """Step 6: reward -> fitness, written next to the genome."""
    soc.evaluate_population()
    for key in soc.population:
        assert soc.buffer.get_fitness(key) is not None


def test_step7_selector_only_serial_step_on_cpu(soc):
    """Step 7: parent selection runs as a CPU thread (cycle cost, no PE)."""
    soc.evaluate_population()
    outcome = soc.selector.select(soc.population, soc.buffer, 0)
    assert outcome.cpu_cycles > 0
    assert outcome.plan is not None
    # selection itself produced no PE work yet
    assert not soc.eve.pes.counts.any()


def test_steps8_9_parent_streams_through_pes(soc):
    """Steps 8-9: parent genes stream to PEs, child genes come back."""
    soc.evaluate_population()
    result = soc.evolve_population()
    assert result is not None
    assert result.pe_stats.genes_in > 0
    assert result.pe_stats.genes_out > 0
    assert result.noc_stats.genes_delivered > 0


def test_step10_children_written_back_overwriting_previous(soc):
    """Step 10: merged children land in the buffer; old generation gone."""
    soc.evaluate_population()
    old_keys = set(soc.population)
    soc.evolve_population()
    resident = set(soc.buffer.resident_genomes())
    assert resident == set(soc.population)
    assert resident.isdisjoint(old_keys)


def test_children_ordered_in_two_sorted_clusters(soc):
    """Genome organisation invariant (Section IV-C5) holds for every
    child EvE writes back."""
    soc.evaluate_population()
    result = soc.evolve_population()
    for key, words in result.children.items():
        stream = view(words)
        node_part = [g for g in stream if g.is_node]
        conn_part = stream[len(node_part):]
        assert all(g.is_connection for g in conn_part)
        node_ids = [g.node_id for g in node_part]
        assert node_ids == sorted(node_ids)
        conn_keys = [(g.source, g.dest) for g in conn_part]
        assert conn_keys == sorted(conn_keys)


def test_stop_criterion_target_fitness():
    """'The system stops when the CPU detects that the target fitness ...
    has been achieved.'"""
    spec = ExperimentSpec(
        "CartPole-v0", backend="soc", max_generations=10,
        fitness_threshold=5.0, pop_size=12, seed=1, max_steps=40,
        platform={"kind": "soc", "params": {"eve_pes": 4}},
    )
    result = Experiment(spec).run()
    assert result.converged
    assert result.champion.fitness >= 5.0
    assert result.generations == len(result.metrics) <= 10
    assert result.metrics[-1].best_fitness >= 5.0
    assert all(m.best_fitness < 5.0 for m in result.metrics[:-1])


def test_plp_and_glp_phases_accounted_separately(soc):
    """Steps 1-6 exploit PLP (inference), 8-10 exploit GLP (evolution);
    the report keeps their cycle accounting separate."""
    report = soc.run_generation()
    assert report.inference_cycles > 0
    assert report.evolution_cycles > 0
    assert report.inference_cycles != report.evolution_cycles
