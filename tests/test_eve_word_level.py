"""Differential tests: the word-level EvE kernels against the object-level
reference in ``eve_reference.py``.

The PE lanes, Gene Split, Gene Merge and ``decode_genome`` read and write
raw 64-bit gene words by shift and mask; the reference does the same work
through its own ``PackedGene`` field view (Fig. 6's bit table written out
in ``eve_reference.py``) and ``pack_node`` / ``pack_connection``, one PE
at a time.  Every child word, ``PEStats`` counter, cycle count, PRNG byte
and SRAM/NoC counter must agree, on one lane and on many.
"""

import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eve_reference import (
    PackedGene,
    ReferenceEvolutionEngine,
    ReferenceGeneMerge,
    ReferencePE,
    XorWow,
    reference_align_parent_streams,
    reference_decode_genome,
    view,
)
from repro.hw.eve import EvEConfig, EvolutionEngine, GeneMerge, align_parent_streams
from repro.hw.gene_encoding import (
    NODE_TYPE_HIDDEN,
    NODE_TYPE_INPUT,
    NODE_TYPE_OUTPUT,
    decode_genome,
    encode_genome,
    pack_connection,
    pack_node,
)
from repro.hw.pe import PEConfig, PEStats, ProcessingElement
from repro.hw.prng import WEYL_STEP, splitmix_states, xorwow_bytes
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


def _dirty(word, noise):
    """A word that only a hand-built stream can hold."""
    if PackedGene(word).is_node:
        return word | (noise & _NODE_NOISE)
    word = (word & ~0b11) | (1 + noise % 3)  # type 1, 2 or 3
    return word | (noise & _CONN_NOISE & ~0b11)


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
    return {(g.source, g.dest) for g in view(stream) if g.is_connection}


# -- PRNG -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    count=st.integers(0, 300),
)
def test_bytes_matches_next_byte(seeds, count):
    """One generator pass for many lanes gives each lane the bytes, and
    leaves it the state, of its own XorWow stepped byte by byte."""
    state = np.empty((6, len(seeds)), dtype=np.uint32)
    state[:5] = splitmix_states(seeds)
    state[5] = WEYL_STEP
    block = xorwow_bytes(state, count)
    for lane, seed in enumerate(seeds):
        stepped = XorWow(seed=seed)
        assert block[lane].tolist() == [stepped.next_byte() for _ in range(count)]
        assert tuple(state[:, lane].tolist()) == stepped.state


# -- PE lanes, Gene Split, Gene Merge, decode ----------------------------------


def _tables(lanes):
    """Pair tables for ``ProcessingElement.begin_child``: lane k takes the
    pairs ``lanes[k]``; a pair without its first gene idles the lane."""
    width = max((len(pairs) for pairs in lanes), default=0)
    words1 = np.zeros((len(lanes), width), dtype=np.uint64)
    words2 = np.zeros_like(words1)
    paired = np.zeros(words1.shape, dtype=bool)
    present = np.zeros(words1.shape, dtype=bool)
    for k, pairs in enumerate(lanes):
        for i, (gene1, gene2) in enumerate(pairs):
            if gene1 is not None:
                words1[k, i], present[k, i] = gene1, True
                if gene2 is not None:
                    words2[k, i], paired[k, i] = gene2, True
    return words1, words2, paired, present


def _walk(pes, refs, lanes):
    """Run a loaded wave cycle by cycle against one ``ReferencePE`` per
    lane, each walking its pairs until it raises; returns each lane's
    child words and its error, if any."""
    produced = [[] for _ in lanes]
    errors = [None] * len(lanes)
    for i in range(max((len(pairs) for pairs in lanes), default=0)):
        failed = pes.process_pair()
        for k, pairs in enumerate(lanes):
            if i >= len(pairs) or errors[k] is not None:
                assert k not in failed
                continue
            gene1, gene2 = pairs[i]
            expected = _outcome(lambda: refs[k].process_pair(gene1, gene2))
            if gene1 is None:  # the lane idles, the reference refuses
                assert expected[0] is ValueError and k not in failed
            elif isinstance(expected, tuple):
                assert (type(failed[k]), str(failed[k])) == expected
                errors[k] = expected
            else:
                assert k not in failed
                produced[k] += expected
            assert asdict(PEStats(*pes.counts[k].tolist())) == asdict(refs[k].stats)
            assert pes.cycles[k] == refs[k].cycles
    cycles, words = pes.finish_child()
    for k, ref in enumerate(refs[: len(lanes)]):
        assert cycles[k] == ref.finish_child()
        assert words[k] == produced[k]
    return produced, errors


def _next_byte(pes, lane):
    """The next byte of a lane's PRNG stream, drawn ahead if need be."""
    pes._read_ahead(lane + 1, np.arange(lane + 1) == lane)
    return int(pes._ahead[lane, pes._cursor[lane]])


@settings(max_examples=150, deadline=None)
@given(
    waves=st.lists(
        st.lists(st.tuples(streams, streams), min_size=1, max_size=4),
        min_size=1, max_size=3,
    ),
    configs=st.lists(pe_configs, min_size=1, max_size=3),
    seed=st.integers(0, 2**32),
)
def test_pe_matches_reference(waves, configs, seed):
    """Waves of one child or several, one per lane, through one PE array,
    so PRNG read-ahead carries across children."""
    num_pes = max(len(wave) for wave in waves)
    pes = ProcessingElement(num_pes, seed=seed)
    refs = [ReferencePE(pe_index=k, seed=seed) for k in range(num_pes)]
    for index, wave in enumerate(waves):
        aligned = [reference_align_parent_streams(s1, s2) for s1, s2 in wave]
        tables = align_parent_streams(
            [stream for parents in wave for stream in parents],
            range(0, 2 * len(wave), 2), range(1, 2 * len(wave), 2),
        )
        assert [tables[k].tolist() for k in range(4)] == [
            table.tolist() for table in _tables(aligned)
        ]

        config = configs[index % len(configs)]
        pes.begin_child(config, *tables)
        for ref in refs[: len(wave)]:
            ref.begin_child(config, 2.0, 1.0)
        produced, _errors = _walk(pes, refs, aligned)

        for (stream1, _stream2), genes in zip(wave, produced):
            inherited = _stream_keys(stream1)
            merge, ref_merge = GeneMerge(), ReferenceGeneMerge()
            merged = merge.merge(genes, inherited)
            assert merged == ref_merge.merge(genes, inherited)
            assert merge.dropped_invalid == ref_merge.dropped_invalid
            assert _decoded(decode_genome, merged) == _decoded(
                reference_decode_genome, merged
            )
    for k, ref in enumerate(refs):
        assert _next_byte(pes, k) == ref.next_byte()


_NODE = pack_node(32767, 0, 0.0, 0.0, "abs", "max")
_NODE_0 = pack_node(0, 0, 0.0, 0.0, "abs", "max")
_CONN = pack_connection(0, 0, 0.0, False)
pair_lists = st.lists(st.tuples(st.none() | genes, st.none() | genes), max_size=30)


@settings(max_examples=150, deadline=None)
@given(
    lanes=st.lists(pair_lists, min_size=1, max_size=4),
    config=pe_configs,
    seed=st.integers(0, 2**32),
)
# A misaligned pair that raises right after the PE refilled its PRNG
# read-ahead once left the read cursor pointing into the old buffer.
@example(
    lanes=[[(_NODE, None), (_NODE, _NODE), (_CONN, None), (_NODE, None), (_NODE_0, None),
            (_NODE, _NODE), (_CONN, None), (_NODE_0, None), (_NODE, None), (_CONN, None),
            (_NODE, _CONN)]],
    config=PEConfig(crossover_bias=0.0, perturb_prob=1.0, node_delete_prob=0.0,
                    conn_delete_prob=0.0, node_add_prob=0.0, conn_add_prob=0.0,
                    max_node_deletions=1, perturb_shift=0),
    seed=0,
)
def test_pe_matches_reference_on_any_pairs(lanes, config, seed):
    """Unaligned pairs too: a missing first gene idles a lane (the
    reference refuses it), a misaligned or invalid pair stops the lane
    where the reference raises, with the same read cursor."""
    pes = ProcessingElement(len(lanes), seed=seed)
    refs = [ReferencePE(pe_index=k, seed=seed) for k in range(len(lanes))]
    pes.begin_child(config, *_tables(lanes))
    for ref in refs:
        ref.begin_child(config, 2.0, 1.0)
    _walk(pes, refs, lanes)
    for k, ref in enumerate(refs):
        assert _next_byte(pes, k) == ref.next_byte()


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


def _serial_failure(buffer, events, config, seed):
    """The serial walk's first failure: each child's aligned stream
    through its own ``ReferencePE`` in PE order, up to the first raise;
    returns (PE, error, that PE) or None."""
    for pe_index, event in enumerate(events):
        key1, key2 = event.parent1_key, event.parent2_key
        if buffer.get_fitness(key2) > buffer.get_fitness(key1):
            key1, key2 = key2, key1
        ref = ReferencePE(pe_index=pe_index, seed=seed)
        ref.begin_child(config, 2.0, 1.0)
        for gene1, gene2 in reference_align_parent_streams(
            buffer.peek_genome(key1), buffer.peek_genome(key2)
        ):
            error = _outcome(lambda: ref.process_pair(gene1, gene2))
            if isinstance(error, tuple):
                return pe_index, error, ref
    return None


#: PE 0 overflows the node-id field at cycle 1, PE 1 fails the node-type
#: check at cycle 0: the lockstep walk meets PE 1's error first, the
#: serial walk raises PE 0's.
_TOP_NODE = pack_node(32767, NODE_TYPE_HIDDEN, 0.0, 0.0, "abs", "max")
_INVALID_NODE = _NODE_0 | 0b11 << 18


@settings(max_examples=80, deadline=None)
@given(
    parents=st.lists(streams, min_size=1, max_size=5),
    children=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                      min_size=1, max_size=6),
    config=pe_configs,
    seed=st.integers(0, 2**32),
)
@example(
    parents=[[], [_TOP_NODE, pack_connection(-1, 32767, 1.0, True)], [_INVALID_NODE]],
    children=[(1, 0), (2, 2)],
    config=PEConfig(node_delete_prob=0.0, conn_delete_prob=0.0, node_add_prob=1.0),
    seed=0,
)
def test_engine_raises_the_lowest_failing_pe(parents, children, config, seed):
    """A wave whose PEs fail raises what the serial walk raises: the
    lowest-numbered failing PE's error, with its read cursor where that
    PE's pair stopped."""
    buffer = GenomeBuffer()
    for key, stream in enumerate(parents):
        buffer.write_genome(key, stream)
        buffer.set_fitness(key, key % 3)
    events = [
        ReproductionEvent(100 + j, p1 % len(parents), p2 % len(parents), 1)
        for j, (p1, p2) in enumerate(children)
    ]
    engine = EvolutionEngine(EvEConfig(
        num_pes=len(events), scheduler="round-robin", pe=config, seed=seed
    ))
    outcome = _outcome(lambda: engine.reproduce_generation(buffer, events))
    failure = _serial_failure(buffer, events, config, seed)
    if failure is None:
        assert not isinstance(outcome, tuple)
    else:
        pe_index, error, ref = failure
        assert outcome == error
        assert _next_byte(engine.pes, pe_index) == ref.next_byte()
