"""Differential tests: the word-level EvE kernels against the object-level
reference in ``eve_reference.py``.

The Processing Element, Gene Split, Gene Merge and ``decode_genome`` read
and write raw 64-bit gene words; the reference does the same work through
``PackedGene`` properties and ``pack_node`` / ``pack_connection``.  Every
child word, ``PEStats`` counter, cycle count, PRNG byte and SRAM/NoC
counter must agree.
"""

import random
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eve_reference import (
    ReferenceEvolutionEngine,
    ReferenceGeneMerge,
    ReferencePE,
    reference_align_parent_streams,
    reference_decode_genome,
)
from repro.hw.eve import EvEConfig, EvolutionEngine, GeneMerge, align_parent_streams
from repro.hw.gene_encoding import (
    NODE_TYPE_HIDDEN,
    NODE_TYPE_INPUT,
    NODE_TYPE_OUTPUT,
    PackedGene,
    decode_genome,
    encode_genome,
    pack_connection,
    pack_node,
)
from repro.hw.pe import PEConfig, ProcessingElement
from repro.hw.prng import XorWow
from repro.hw.sram import GenomeBuffer
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.activations import ACTIVATION_CODES
from repro.neat.aggregations import AGGREGATION_CODES
from repro.neat.reproduction import ReproductionEvent

GENOME_CONFIG = GenomeConfig(num_inputs=3, num_outputs=2)

# -- strategies -------------------------------------------------------------

#: Node ids: a small range so parents share keys, plus the top of the
#: 16-bit field so the Add Gene engine can overflow it.
node_ids = st.integers(0, 8) | st.just(32767)
values = st.floats(-9.0, 9.0, allow_nan=False)
probabilities = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)

node_genes = st.builds(
    pack_node,
    node_ids,
    st.sampled_from([NODE_TYPE_HIDDEN, NODE_TYPE_INPUT, NODE_TYPE_OUTPUT]),
    values,
    values,
    st.sampled_from(sorted(ACTIVATION_CODES)),
    st.sampled_from(sorted(AGGREGATION_CODES)),
)
conn_genes = st.builds(
    pack_connection, st.integers(-3, 8), st.integers(0, 8), values, st.booleans()
)

#: Bits ``pack_node`` / ``pack_connection`` never set: a node's node-type
#: field (type 3 is invalid) and reserved bits, a connection's type
#: (types 2 and 3 key and stream as connections) and reserved bits.
_NODE_NOISE = (0b11 << 18) | (((1 << 14) - 1) << 20) | (((1 << 6) - 1) << 58)
_CONN_NOISE = 0b11 | (((1 << 21) - 1) << 43)


def _dirty(gene, noise):
    """A word that only a hand-built ``PackedGene`` can hold."""
    if gene.is_node:
        return PackedGene(gene.word | (noise & _NODE_NOISE))
    word = (gene.word & ~0b11) | (1 + noise % 3)  # type 1, 2 or 3
    return PackedGene(word | (noise & _CONN_NOISE & ~0b11))


dirty_genes = st.builds(_dirty, node_genes | conn_genes, st.integers(0, 2**64 - 1))
genes = st.one_of(node_genes, conn_genes, dirty_genes)
streams = st.lists(genes, max_size=24)

pe_configs = st.builds(
    PEConfig,
    crossover_bias=probabilities,
    perturb_prob=probabilities,
    node_delete_prob=probabilities,
    conn_delete_prob=probabilities,
    node_add_prob=probabilities,
    conn_add_prob=probabilities,
    max_node_deletions=st.integers(0, 3),
    perturb_shift=st.integers(0, 7),
)


def _outcome(call):
    """A call's result, or its exception's type and message."""
    try:
        return call()
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


def _stream_keys(stream):
    return {(g.source, g.dest) for g in stream if g.is_connection}


# -- PRNG -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 300))
def test_bytes_matches_next_byte(seed, count):
    block, stepped = XorWow(seed=seed), XorWow(seed=seed)
    assert block.bytes(count) == [stepped.next_byte() for _ in range(count)]
    assert block.state == stepped.state


# -- Processing Element, Gene Split, Gene Merge, decode ------------------------


@settings(max_examples=200, deadline=None)
@given(
    parents=st.lists(st.tuples(streams, streams), min_size=1, max_size=3),
    configs=st.lists(pe_configs, min_size=1, max_size=3),
    pe_index=st.integers(0, 7),
    seed=st.integers(0, 2**32),
)
def test_pe_matches_reference(parents, configs, pe_index, seed):
    """Several children on one PE, so PRNG read-ahead carries across them."""
    pe = ProcessingElement(pe_index=pe_index, seed=seed)
    ref = ReferencePE(pe_index=pe_index, seed=seed)
    for child, (stream1, stream2) in enumerate(parents):
        aligned = reference_align_parent_streams(stream1, stream2)
        assert align_parent_streams(stream1, stream2) == aligned

        config = configs[child % len(configs)]
        pe.begin_child(config, 2.0, 1.0)
        ref.begin_child(config, 2.0, 1.0)
        produced = []
        for gene1, gene2 in aligned:
            out = _compare_pair(pe, ref, gene1, gene2)
            if not isinstance(out, tuple):  # a tuple: both raised
                produced += out
        assert pe.finish_child() == ref.finish_child()

        inherited = _stream_keys(stream1)
        merge, ref_merge = GeneMerge(), ReferenceGeneMerge()
        merged = merge.merge(produced, inherited)
        assert merged == ref_merge.merge(produced, inherited)
        assert merge.dropped_invalid == ref_merge.dropped_invalid
        assert _decoded(decode_genome, merged) == _decoded(
            reference_decode_genome, merged
        )
    assert pe.next_byte() == ref.next_byte()


def _compare_pair(pe, ref, gene1, gene2):
    out = _outcome(lambda: pe.process_pair(gene1, gene2))
    assert out == _outcome(lambda: ref.process_pair(gene1, gene2))
    assert asdict(pe.stats) == asdict(ref.stats)
    assert pe.cycles == ref.cycles
    return out


_NODE = pack_node(32767, 0, 0.0, 0.0, "abs", "max")
_NODE_0 = pack_node(0, 0, 0.0, 0.0, "abs", "max")
_CONN = pack_connection(0, 0, 0.0, False)


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.none() | genes, st.none() | genes), max_size=30),
    config=pe_configs,
    seed=st.integers(0, 2**32),
)
# A misaligned pair that raises right after the PE refilled its PRNG
# read-ahead once left the read cursor pointing into the old buffer.
@example(
    pairs=[(_NODE, None), (_NODE, _NODE), (_CONN, None), (_NODE, None), (_NODE_0, None),
           (_NODE, _NODE), (_CONN, None), (_NODE_0, None), (_NODE, None), (_CONN, None),
           (_NODE, _CONN)],
    config=PEConfig(crossover_bias=0.0, perturb_prob=1.0, node_delete_prob=0.0,
                    conn_delete_prob=0.0, node_add_prob=0.0, conn_add_prob=0.0,
                    max_node_deletions=1, perturb_shift=0),
    seed=0,
)
def test_pe_matches_reference_on_any_pairs(pairs, config, seed):
    """Unaligned pairs too: a missing or misaligned gene raises in both
    PEs, and both carry on identically after it."""
    pe, ref = ProcessingElement(seed=seed), ReferencePE(seed=seed)
    pe.begin_child(config, 2.0, 1.0)
    ref.begin_child(config, 2.0, 1.0)
    for gene1, gene2 in pairs:
        _compare_pair(pe, ref, gene1, gene2)
    assert pe.next_byte() == ref.next_byte()


def _decoded(decode, stream):
    """Every decoded field in insertion order, or the decode's error."""
    genome = _outcome(lambda: decode(stream, 0, GENOME_CONFIG))
    if isinstance(genome, tuple):
        return genome
    nodes = [
        (k, n.bias, n.response, n.activation, n.aggregation)
        for k, n in genome.nodes.items()
    ]
    conns = [(k, c.weight, c.enabled) for k, c in genome.connections.items()]
    return nodes, conns


@settings(max_examples=100, deadline=None)
@given(stream=streams)
def test_decode_matches_reference(stream):
    """Unsorted streams with repeated keys, too: last gene of a key wins."""
    assert _decoded(decode_genome, stream) == _decoded(
        reference_decode_genome, stream
    )


# -- the whole engine -------------------------------------------------------

#: Structural probabilities high enough that a few generations exercise
#: node/connection deletion, both Add Gene paths and merge validation.
BUSY_PE = PEConfig(
    perturb_prob=0.3, node_delete_prob=0.08, conn_delete_prob=0.05,
    node_add_prob=0.08, conn_add_prob=0.2, max_node_deletions=2,
)


def _founders(config, count, rng):
    innovations = InnovationTracker(next_node_id=config.num_outputs)
    founders = []
    for key in range(count):
        genome = Genome(key)
        genome.configure_new(config, rng)
        for _ in range(rng.randrange(4, 16)):
            genome.mutate(config, rng, innovations)
        founders.append(genome)
    return founders


def _evolve(engine_cls, eve_config, founders, config, children, generations):
    """Several generations of EvE reproduction with elites; returns every
    generation's result and the buffer's SRAM counters."""
    rng = random.Random(11)
    buffer = GenomeBuffer()
    for genome in founders:
        buffer.write_genome(genome.key, encode_genome(genome, config))
        buffer.set_fitness(genome.key, rng.uniform(0, 10))
    engine = engine_cls(eve_config)
    next_key = 1000
    history = []
    for _ in range(generations):
        residents = buffer.resident_genomes()
        events = []
        for _ in range(children):
            events.append(ReproductionEvent(
                next_key, rng.choice(residents), rng.choice(residents), 1
            ))
            next_key += 1
        elites = [(key, next_key + i) for i, key in enumerate(residents[:2])]
        next_key += len(elites)
        result = engine.reproduce_generation(buffer, events, elites)
        history.append((result, asdict(buffer.stats)))
        for key in residents:
            buffer.delete_genome(key)
        for key in result.children:
            buffer.set_fitness(key, rng.uniform(0, 10))
    return history


@pytest.mark.parametrize("num_pes", [1, 4, 256])
@pytest.mark.parametrize("scheduler", ["greedy", "round-robin"])
@pytest.mark.parametrize("noc", ["p2p", "multicast"])
def test_engine_matches_reference(noc, scheduler, num_pes):
    config = GENOME_CONFIG
    founders = _founders(config, 12, random.Random(5))
    # Enough children that every PE count needs several waves.
    children = num_pes + 5 if num_pes > 4 else 24
    eve_config = EvEConfig(
        num_pes=num_pes, noc=noc, scheduler=scheduler, pe=BUSY_PE, seed=3
    )
    history = _evolve(EvolutionEngine, eve_config, founders, config, children, 3)
    expected = _evolve(
        ReferenceEvolutionEngine, eve_config, founders, config, children, 3
    )
    assert all(result.waves >= 2 for result, _ in history)
    assert history == expected
