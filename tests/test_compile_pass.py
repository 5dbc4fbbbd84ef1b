"""The population compile pass against the per-genome compiler.

:class:`repro.neat.compiled.StackedPlans` levelises and lays out a whole
population in one array pass.  ``neat_reference.stack_plans`` compiles
each genome with ``FeedForwardNetwork.create`` and packs the plans one by
one, as the lanes did before the pass.  On random populations — mixed
activation and aggregation options, disabled links, dead hidden nodes,
outputs with no in-link, chains deeper than CartPole's, genomes a
required non-sum node sends to the scalar fallback, and now and then a
genome with a cycle, a self-loop, links from a node with no gene or into
an input, or random extra links — both must give the same tables (floats
by bit pattern), activation codes, column count, MACs, depths and ADAM
shapes, or raise the same error.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neat_reference as ref
from repro.envs.evaluate import Executor
from repro.hw.adam import ADAMConfig, StackedAdamEnvelope
from repro.neat.compiled import StackedPlans, compile_network
from repro.neat.config import GenomeConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork

# "weird" is outside the activation table; "max" and "product" are not sums.
ACTIVATIONS = ["tanh", "sigmoid", "relu", "identity", "gauss", "abs", "weird"]
AGGREGATIONS = ["sum", "sum", "sum", "max", "product"]

values = st.one_of(
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), 1e300]),
)


@st.composite
def genomes(draw, config, key, flaw):
    """A random DAG over the inputs, the outputs and up to 7 hidden nodes.

    Each node gets a rank and links run from lower to higher rank, so any
    node may end up dead or unlinked; half the time a chain from an input
    threads every node in rank order, for depth.  ``flaw`` adds a link
    closing a cycle through every node, a self-loop, a link from a node
    with no gene and one into an input, or up to three random links that
    may be any of these (as ``evolved_genomes`` in
    ``test_neat_differential.py`` adds them); on a dead node none of them
    matters.
    """
    num_outputs = config.num_outputs
    hidden = [num_outputs + 3 * i + draw(st.integers(0, 2)) for i in range(draw(st.integers(0, 7)))]
    keys = list(range(num_outputs)) + hidden
    genome = Genome(key)
    for node in keys:
        genome.nodes[node] = NodeGene(
            node,
            bias=draw(values),
            response=draw(values),
            activation=draw(st.sampled_from(ACTIVATIONS[:-1]) | st.sampled_from(ACTIVATIONS)),
            aggregation=draw(st.sampled_from(AGGREGATIONS)),
        )
    order = draw(st.permutations(keys))
    rank = {node: i for i, node in enumerate(order)}
    for node in config.input_keys:
        rank[node] = -1
    sources = config.input_keys + keys
    edges = draw(st.lists(st.tuples(st.sampled_from(sources), st.sampled_from(keys)), max_size=14))
    if draw(st.booleans()):
        edges += [(config.input_keys[0], order[0])] + list(zip(order, order[1:]))
    for a, b in edges:
        src, dst = (a, b) if rank[a] < rank[b] else (b, a)
        if src != dst and dst in rank and rank[dst] >= 0:
            genome.connections[(src, dst)] = ConnectionGene(
                (src, dst), weight=draw(values), enabled=draw(st.booleans() | st.just(True))
            )
    extra = []
    if flaw == "cycle":
        extra = [(order[-1], order[0])]
    elif flaw == "self-loop":
        node = draw(st.sampled_from(keys))
        extra = [(node, node)]
    elif flaw == "missing":
        extra = [(99, order[0]), (order[0], -1)]
    elif flaw == "rewired":
        endpoints = st.sampled_from(sources + [99])
        extra = draw(st.lists(st.tuples(endpoints, endpoints), min_size=1, max_size=3))
    for link in extra:
        # Only random links may be disabled; the other flaws must be live.
        enabled = flaw != "rewired" or draw(st.booleans())
        genome.connections[link] = ConnectionGene(link, draw(values), enabled=enabled)
    return genome


@st.composite
def populations(draw):
    config = GenomeConfig(num_inputs=draw(st.integers(1, 4)), num_outputs=draw(st.integers(1, 3)))
    size = draw(st.integers(1, 6))
    flawed = draw(st.integers(0, 2 * size))
    flaw = draw(st.sampled_from(["cycle", "self-loop", "missing", "rewired"]))
    return config, [
        draw(genomes(config, key, flaw if key == flawed else None)) for key in range(size)
    ]


def unlinked_outputs():
    """Outputs with no enabled in-link, beside linked ones and a hidden
    chain: the pass must seed every output, not only link targets."""
    config = GenomeConfig(num_inputs=2, num_outputs=3)
    population = []
    for key, links in enumerate([
        [(-1, 0)],                      # outputs 1 and 2 unlinked
        [],                             # no link at all
        [(-2, 7), (7, 9), (9, 2)],      # only output 2, through a chain
        [(-1, 1, False), (-2, 7)],      # a disabled link and a dead node
    ]):
        genome = Genome(key)
        for node in (0, 1, 2, 7, 9):
            genome.nodes[node] = NodeGene(node, bias=0.1 * node, response=1.5)
        for src, dst, *enabled in links:
            genome.connections[(src, dst)] = ConnectionGene(
                (src, dst), weight=0.5 + src, enabled=enabled != [False]
            )
        population.append(genome)
    return config, population


def outcome(build):
    try:
        return ("ok", build())
    except (ValueError, KeyError) as exc:
        return (type(exc), str(exc))


ADAM_SHAPES = [ADAMConfig(rows=1, cols=1), ADAMConfig(rows=2, cols=3), ADAMConfig()]


@settings(max_examples=150, deadline=None)
@given(case=populations())
@example(case=unlinked_outputs())
def test_pass_matches_per_genome_compiler(case):
    config, population = case
    got = outcome(lambda: StackedPlans([compile_network(g, config) for g in population], config))
    expected = outcome(lambda: ref.stack_plans(population, config))
    if expected[0] != "ok":
        assert got == expected
        return
    stacked, expected = got[1], expected[1]
    assert ref.table_fields(stacked) == ref.table_fields(expected)
    for adam_config in ADAM_SHAPES:
        envelope = StackedAdamEnvelope(stacked, adam_config)
        assert ref.envelope_costs(envelope) == [
            ref.pass_cost(waves, adam_config) for waves in expected.shapes
        ]


def test_cycle_through_a_required_node_raises():
    """A cycle feeding an output raises ``ValueError`` as ``create`` does;
    one among dead nodes is never levelised."""
    config = GenomeConfig(num_inputs=2, num_outputs=1)

    def genome(key, links):
        genome = Genome(key)
        for node in (0, 4, 5):
            genome.nodes[node] = NodeGene(node)
        for src, dst in links:
            genome.connections[(src, dst)] = ConnectionGene((src, dst), 1.0)
        return genome

    healthy = genome(0, [(-1, 4), (4, 0)])
    dead_cycle = genome(1, [(-1, 0), (4, 5), (5, 4)])
    live_cycle = genome(2, [(-1, 4), (4, 5), (5, 4), (5, 0)])
    stacked = StackedPlans([compile_network(g, config) for g in (healthy, dead_cycle)], config)
    assert stacked.compiled == [0, 1]
    for compile_one in (
        lambda: FeedForwardNetwork.create(live_cycle, config),
        lambda: StackedPlans([compile_network(g, config) for g in (healthy, live_cycle)], config),
    ):
        with pytest.raises(ValueError, match="cyclic"):
            compile_one()


def test_fallback_genomes_run_the_scalar_walk():
    """A genome whose required node aggregates by ``max`` leaves the
    lanes for the scalar walk and gets the scalar walk's outcome; one
    whose ``max`` node is dead stays on the lanes."""
    config = GenomeConfig(num_inputs=4, num_outputs=2)
    population = []
    for key in range(4):
        genome = Genome(key)
        for node in (0, 1, 5):
            genome.nodes[node] = NodeGene(node, bias=0.1 * key, response=1.0 + key)
        for src, dst, weight in [(-1, 5, 1.0), (-3, 5, -2.0), (5, 0, 1.5), (-2, 1, 0.5), (-4, 1, -1.0)]:
            genome.connections[(src, dst)] = ConnectionGene((src, dst), weight * (key + 1) * 0.3)
        population.append(genome)
    population[1].nodes[5].aggregation = "max"  # required: falls back
    population[2].nodes[5].aggregation = "max"
    population[2].connections[(5, 0)].enabled = False  # node 5 is dead
    tasks = [(genome, [11 * genome.key, 11 * genome.key + 1]) for genome in population]
    executor = Executor("CartPole-v0", max_steps=60)
    lanes, stacked = executor.lanes(tasks, config)
    assert list(stacked.fallback) == [1] and stacked.compiled == [0, 2, 3]
    assert lanes == executor.scalar(tasks, config)
