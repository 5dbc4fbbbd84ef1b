"""Differential tests: ``repro.neat``'s gene operators and levelisation
against the generic reference in ``neat_reference.py``.

Random genomes and configs (several activation and aggregation options,
crossover bias 0, 0.5 and 1, rates of 0 and 1, weights of ±0.0, NaN and
±inf) must give field-for-field equal children, equal
:class:`MutationCounts`, equal RNG states after every operation and
bit-equal distances in both argument orders.  Random graphs with cycles,
self-loops, duplicate edges, edges into inputs and dangling sources must
levelise identically or fail with the same error, and both compilers —
the per-genome one, wherever it is reached from, and the lanes'
population pass on a population of one — must build what the reference
prologue builds (``tests/test_compile_pass.py`` checks the pass on
whole populations).
"""

from __future__ import annotations

import random
from unittest import mock

import neat_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import adam
from repro.neat import compiled, network
from repro.neat.config import GenomeConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome, MutationCounts
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork, feed_forward_layers, required_for_output

ACTIVATIONS = ["tanh", "sigmoid", "relu", "identity", "gauss"]
AGGREGATIONS = ["sum", "max", "product", "mean"]
NUM_INPUTS, NUM_OUTPUTS = 3, 2

values = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def genome_configs(draw):
    fields = dict(
        num_inputs=NUM_INPUTS,
        num_outputs=NUM_OUTPUTS,
        activation_options=draw(st.lists(st.sampled_from(ACTIVATIONS), max_size=4)),
        aggregation_options=draw(st.lists(st.sampled_from(AGGREGATIONS), max_size=3)),
        crossover_bias=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        compatibility_disjoint_coefficient=draw(st.floats(0.0, 3.0)),
        compatibility_weight_coefficient=draw(st.floats(0.0, 3.0)),
    )
    for attr in ("weight", "bias", "response"):
        fields[f"{attr}_mutate_rate"] = draw(rates)
        fields[f"{attr}_replace_rate"] = draw(rates)
        fields[f"{attr}_mutate_power"] = draw(st.floats(0.0, 5.0))
        fields[f"{attr}_init_mean"] = draw(st.floats(-2.0, 2.0))
        fields[f"{attr}_init_stdev"] = draw(st.floats(0.0, 3.0))
    for name in ("enabled_mutate_rate", "activation_mutate_rate", "aggregation_mutate_rate",
                 "node_add_prob", "node_delete_prob", "conn_add_prob", "conn_delete_prob"):
        fields[name] = draw(rates)
    fields["single_structural_mutation"] = draw(st.booleans())
    return GenomeConfig(**fields)


def node_genes(key):
    return st.builds(NodeGene, st.just(key), values, values,
                     st.sampled_from(ACTIVATIONS), st.sampled_from(AGGREGATIONS))


def connection_genes(key):
    return st.builds(ConnectionGene, st.just(key), values, st.booleans())


@st.composite
def genomes(draw, key):
    """A genome over a shared key space, so two draws share some genes."""
    genome = Genome(key)
    node_keys = draw(st.lists(st.integers(0, 6), unique=True, max_size=6))
    for node_key in node_keys:
        genome.nodes[node_key] = draw(node_genes(node_key))
    endpoints = st.integers(-NUM_INPUTS, 4)
    conn_keys = draw(st.lists(st.tuples(endpoints, endpoints), unique=True, max_size=12))
    for conn_key in conn_keys:
        genome.connections[conn_key] = draw(connection_genes(conn_key))
    genome.fitness = draw(st.none() | st.floats(-5.0, 5.0))
    return genome


@st.composite
def homologous_pairs(draw):
    """Two genomes over mostly the same keys with independent values, so a
    distance sums many homologous terms of mixed magnitude."""
    a, b = draw(genomes(1)), draw(genomes(2))
    finite = st.floats(-10.0, 10.0)
    for key in a.nodes:
        b.nodes[key] = NodeGene(key, draw(finite), draw(finite),
                                draw(st.sampled_from(ACTIVATIONS)), "sum")
    for key in a.connections:
        b.connections[key] = ConnectionGene(key, draw(finite), draw(st.booleans()))
    return a, b


def fields(gene):
    raw = [gene.key, *(getattr(gene, a) for a in ref.FLOAT_ATTRS[type(gene)]),
           *(getattr(gene, a) for a in ref.OTHER_ATTRS[type(gene)])]
    return (type(gene).__name__,) + tuple(
        v.hex() if isinstance(v, float) else repr(v) for v in raw
    )


def snapshot(genome):
    return (
        genome.key,
        repr(genome.fitness),
        [(k, fields(g)) for k, g in genome.nodes.items()],
        [(k, fields(g)) for k, g in genome.connections.items()],
    )


def rng_pair(seed):
    return random.Random(seed), random.Random(seed)


@settings(max_examples=100, deadline=None)
@given(config=genome_configs(), a=genomes(1), b=genomes(2), seed=st.integers(0, 2**32))
def test_gene_operators_match_reference(config, a, b, seed):
    pairs = [(g, b.nodes[k]) for k, g in a.nodes.items() if k in b.nodes]
    pairs += [(g, b.connections[k]) for k, g in a.connections.items() if k in b.connections]
    for gene, other in pairs:
        for bias in (config.crossover_bias, 0.0, 1.0):
            rng, ref_rng = rng_pair(seed)
            assert fields(gene.crossover(other, rng, bias)) == fields(
                ref.gene_crossover(gene, other, ref_rng, bias)
            )
            assert rng.getstate() == ref_rng.getstate()
        for x, y in ((gene, other), (other, gene)):
            assert x.distance(y, config).hex() == ref.gene_distance(x, y, config).hex()
        clone, ref_clone = gene.copy(), ref.gene_copy(gene)
        assert fields(clone) == fields(ref_clone) == fields(gene)
        rng, ref_rng = rng_pair(seed)
        assert clone.mutate(config, rng) == ref.gene_mutate(ref_clone, config, ref_rng)
        assert fields(clone) == fields(ref_clone)
        assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=100, deadline=None)
@given(config=genome_configs(), a=genomes(1), b=genomes(2), seed=st.integers(0, 2**32))
def test_genome_operators_match_reference(config, a, b, seed):
    for x, y in ((a, b), (b, a), (a, a)):
        assert x.distance(y, config).hex() == ref.genome_distance(x, y, config).hex()

    rng, ref_rng = rng_pair(seed)
    counts, ref_counts = MutationCounts(), MutationCounts()
    child = Genome.crossover(3, a, b, config, rng, counts)
    ref_child = ref.genome_crossover(3, a, b, config, ref_rng, ref_counts)
    assert snapshot(child) == snapshot(ref_child)
    assert counts == ref_counts
    assert rng.getstate() == ref_rng.getstate()

    assert snapshot(child.copy(9)) == snapshot(ref.genome_copy(ref_child, 9))
    assert snapshot(a.copy()) == snapshot(ref.genome_copy(a))

    innovations = InnovationTracker(next_node_id=7)
    ref_innovations = InnovationTracker(next_node_id=7)
    for _ in range(3):
        child.mutate(config, rng, innovations, counts)
        ref.genome_mutate(ref_child, config, ref_rng, ref_innovations, ref_counts)
        assert snapshot(child) == snapshot(ref_child)
        assert counts == ref_counts
        assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=100, deadline=None)
@given(config=genome_configs(), pair=homologous_pairs())
def test_distance_sums_in_reference_order(config, pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        assert x.distance(y, config).hex() == ref.genome_distance(x, y, config).hex()


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception itself is the compared outcome
        return (type(exc), str(exc))


node_ids = st.integers(-4, 8)
graphs = st.tuples(
    st.lists(st.integers(-4, -1), unique=True, min_size=1, max_size=4),
    st.lists(node_ids, max_size=4),
    st.lists(st.tuples(node_ids, node_ids), max_size=20),
)


@settings(max_examples=500, deadline=None)
@given(graph=graphs)
def test_levelisation_matches_reference(graph):
    inputs, outputs, connections = graph
    assert required_for_output(inputs, outputs, connections) == ref.required_for_output(
        inputs, outputs, connections
    )
    assert outcome(feed_forward_layers, inputs, outputs, connections) == outcome(
        ref.feed_forward_layers, inputs, outputs, connections
    )


def plan_fields(plan):
    return (
        plan.genome_key, plan.num_inputs, plan.num_outputs, plan.num_columns, plan.num_macs,
        [(layer.node_cols, layer.links, layer.bias, layer.response, layer.activations,
          layer.aggregations) for layer in plan.layers],
    )


def wave_fields(plan):
    return plan_fields(plan.network), [
        (w.m, w.k, w.macs, w.dense_macs) for w in plan.waves
    ]


@st.composite
def evolved_genomes(draw):
    """Genomes grown by real mutation, then rewired and re-weighted at
    random: some extra edges close cycles or hang off missing nodes."""
    config = GenomeConfig(num_inputs=NUM_INPUTS, num_outputs=NUM_OUTPUTS,
                          activation_options=["tanh", "sigmoid", "relu"],
                          activation_mutate_rate=0.2, node_add_prob=0.5, conn_add_prob=0.8)
    rng = random.Random(draw(st.integers(0, 10_000)))
    innovations = InnovationTracker(next_node_id=NUM_OUTPUTS)
    genome = Genome(0)
    genome.configure_new(config, rng)
    for _ in range(draw(st.integers(0, 25))):
        genome.mutate(config, rng, innovations)
    for conn in genome.connections.values():
        conn.weight = draw(values)
        conn.enabled = draw(st.booleans())
    endpoints = st.sampled_from(sorted(genome.nodes) + [-1, -2, 50])
    for key in draw(st.lists(st.tuples(endpoints, endpoints), max_size=3)):
        genome.connections[key] = ConnectionGene(key, draw(values), draw(st.booleans()))
    return genome, config


@settings(max_examples=150, deadline=None)
@given(case=evolved_genomes())
def test_compilers_match_reference_prologue(case):
    genome, config = case
    cases = [
        lambda: plan_fields(FeedForwardNetwork.create(genome, config)),
        lambda: wave_fields(adam.InferencePlan.create(genome, config)),
    ]
    for build in cases:
        got = outcome(build)
        with mock.patch.object(network, "genome_levels", ref.genome_levels):
            expected = outcome(build)
        assert got == expected

    rows = [compiled.compile_network(genome, config)]
    got = outcome(lambda: ref.table_fields(compiled.StackedPlans(rows, config)))
    with mock.patch.object(network, "genome_levels", ref.genome_levels):
        expected = outcome(lambda: ref.table_fields(ref.stack_plans([genome], config)))
    assert got == expected
