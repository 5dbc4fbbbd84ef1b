"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs.seeding import derive_seed
from repro.hw.eve import align_parent_streams
from repro.hw.gene_encoding import (
    FIXED_MAX_VALUE,
    FIXED_MIN_VALUE,
    NODE_TYPE_HIDDEN,
    dequantize,
    encode_genome,
    decode_genome,
    pack_connection,
    pack_node,
    quantize,
)
from repro.hw.noc import MulticastTreeNoC, PointToPointNoC
from repro.hw.allocator import greedy_reuse_schedule, round_robin_schedule
from eve_reference import PackedGene, XorWow, view
from repro.neat import Genome, GenomeConfig, InnovationTracker
from repro.neat.genome import creates_cycle
from repro.neat.reproduction import ReproductionEvent

# ---------------------------------------------------------------------------
# quantisation
# ---------------------------------------------------------------------------


@given(st.floats(min_value=-1000, max_value=1000, allow_nan=False))
def test_quantize_always_in_range(value):
    q = dequantize(quantize(value))
    assert FIXED_MIN_VALUE <= q <= FIXED_MAX_VALUE


@given(st.floats(min_value=-7.9, max_value=7.9, allow_nan=False))
def test_quantize_error_bounded_by_half_step(value):
    q = dequantize(quantize(value))
    assert abs(q - value) <= (1 / 16) / 2 + 1e-12


@given(st.floats(min_value=-1000, max_value=1000, allow_nan=False))
def test_quantize_idempotent(value):
    once = dequantize(quantize(value))
    assert dequantize(quantize(once)) == once


# ---------------------------------------------------------------------------
# gene word packing
# ---------------------------------------------------------------------------

node_ids = st.integers(min_value=-32768, max_value=32767)
attr_values = st.floats(min_value=-8.0, max_value=7.9375, allow_nan=False)


@given(
    node_id=st.integers(min_value=0, max_value=32767),
    bias=attr_values,
    response=attr_values,
)
def test_node_word_round_trip(node_id, bias, response):
    gene = PackedGene(pack_node(node_id, NODE_TYPE_HIDDEN, bias, response, "tanh", "sum"))
    assert gene.node_id == node_id
    assert abs(gene.bias - bias) <= 1 / 32 + 1e-12
    assert abs(gene.response - response) <= 1 / 32 + 1e-12


@given(src=node_ids, dst=node_ids, weight=attr_values, enabled=st.booleans())
def test_connection_word_round_trip(src, dst, weight, enabled):
    gene = PackedGene(pack_connection(src, dst, weight, enabled))
    assert gene.source == src
    assert gene.dest == dst
    assert gene.enabled == enabled
    assert abs(gene.weight - weight) <= 1 / 32 + 1e-12


# ---------------------------------------------------------------------------
# genome invariants under random mutation sequences
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_inputs=st.integers(min_value=1, max_value=6),
    num_outputs=st.integers(min_value=1, max_value=4),
    steps=st.integers(min_value=0, max_value=40),
)
def test_genome_valid_after_any_mutation_sequence(seed, num_inputs, num_outputs, steps):
    config = GenomeConfig(num_inputs=num_inputs, num_outputs=num_outputs)
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=num_outputs)
    genome = Genome(0)
    genome.configure_new(config, rng)
    for _ in range(steps):
        genome.mutate(config, rng, innovations)
    genome.validate(config)  # raises on any structural violation


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=0, max_value=30),
)
def test_crossover_child_structure_subset_of_fitter_parent(seed, steps):
    config = GenomeConfig(num_inputs=3, num_outputs=2)
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=2)
    p1 = Genome(1)
    p1.configure_new(config, rng)
    for _ in range(steps):
        p1.mutate(config, rng, innovations)
    p2 = Genome(2)
    p2.configure_new(config, rng)
    for _ in range(steps // 2):
        p2.mutate(config, rng, innovations)
    p1.fitness, p2.fitness = 2.0, 1.0
    child = Genome.crossover(3, p1, p2, config, rng)
    assert set(child.nodes) == set(p1.nodes)
    assert set(child.connections) == set(p1.connections)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=0, max_value=40),
)
def test_encode_decode_structural_identity(seed, steps):
    config = GenomeConfig(num_inputs=3, num_outputs=2)
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=2)
    genome = Genome(0)
    genome.configure_new(config, rng)
    for _ in range(steps):
        genome.mutate(config, rng, innovations)
    decoded = decode_genome(encode_genome(genome, config), 0, config)
    assert set(decoded.nodes) == set(genome.nodes)
    assert set(decoded.connections) == set(genome.connections)
    decoded.validate(config)


# ---------------------------------------------------------------------------
# creates_cycle consistency
# ---------------------------------------------------------------------------

edges = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=0, max_size=15
)


@given(existing=edges, candidate=st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_creates_cycle_matches_definition(existing, candidate):
    """creates_cycle(E, c) is True iff dest reaches source through E."""
    src, dst = candidate
    adjacency = {}
    for a, b in existing:
        adjacency.setdefault(a, []).append(b)
    seen, frontier = {dst}, [dst]
    reachable = False
    while frontier:
        node = frontier.pop()
        if node == src:
            reachable = True
            break
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert creates_cycle(existing, candidate) == (reachable or src == dst)


# ---------------------------------------------------------------------------
# PRNG
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_xorwow_reproducible_and_in_range(seed):
    a = XorWow(seed=seed)
    b = XorWow(seed=seed)
    for _ in range(16):
        va, vb = a.next_byte(), b.next_byte()
        assert va == vb
        assert 0 <= va <= 255


# ---------------------------------------------------------------------------
# NoC read accounting
# ---------------------------------------------------------------------------

demands = st.lists(
    st.tuples(st.integers(0, 31), st.integers(0, 5), st.integers(0, 20)),
    min_size=0,
    max_size=40,
)


@given(demands=demands)
def test_multicast_never_exceeds_p2p(demands):
    tree = MulticastTreeNoC()
    bus = PointToPointNoC()
    words = [(genome, word) for _pe, genome, word in demands]
    assert tree.distribute(words) <= bus.distribute(words)


@given(demands=demands)
def test_multicast_at_least_distinct_genomes(demands):
    tree = MulticastTreeNoC()
    reads = tree.distribute([(genome, word) for _pe, genome, word in demands])
    distinct_words = {(g, w) for _pe, g, w in demands}
    assert reads == len(distinct_words)


# ---------------------------------------------------------------------------
# scheduler properties
# ---------------------------------------------------------------------------

event_lists = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=30
)


@given(pairs=event_lists, num_pes=st.integers(min_value=1, max_value=8))
def test_schedules_are_complete_partitions(pairs, num_pes):
    events = [
        ReproductionEvent(100 + i, p1, p2, 1) for i, (p1, p2) in enumerate(pairs)
    ]
    for scheduler in (greedy_reuse_schedule, round_robin_schedule):
        waves = scheduler(events, num_pes)
        scheduled = [e.child_key for wave in waves for e in wave]
        assert sorted(scheduled) == sorted(e.child_key for e in events)
        assert all(1 <= len(wave) <= num_pes for wave in waves)


@given(pairs=event_lists, num_pes=st.integers(min_value=1, max_value=8))
def test_greedy_never_more_waves_than_round_robin(pairs, num_pes):
    events = [
        ReproductionEvent(100 + i, p1, p2, 1) for i, (p1, p2) in enumerate(pairs)
    ]
    greedy = greedy_reuse_schedule(events, num_pes)
    rr = round_robin_schedule(events, num_pes)
    assert len(greedy) == len(rr)  # same wave count, different packing


# ---------------------------------------------------------------------------
# gene split alignment
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_alignment_covers_fitter_parent_exactly(seed):
    config = GenomeConfig(num_inputs=2, num_outputs=2)
    rng = random.Random(seed)
    innovations = InnovationTracker(next_node_id=2)
    p1 = Genome(0)
    p1.configure_new(config, rng)
    p2 = Genome(1)
    p2.configure_new(config, rng)
    for _ in range(10):
        p1.mutate(config, rng, innovations)
        p2.mutate(config, rng, innovations)
    s1 = encode_genome(p1, config)
    s2 = encode_genome(p2, config)
    words1, _words2, paired, present = align_parent_streams([s1, s2], [0], [1])
    assert words1[0].tolist() == list(s1)
    assert present[0].all()
    keys2 = {g.key for g in view(s2)}
    assert paired[0].tolist() == [g.key in keys2 for g in view(s1)]


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


@given(
    base=st.integers(min_value=0, max_value=2 ** 32),
    s1=st.integers(min_value=0, max_value=10_000),
    s2=st.integers(min_value=0, max_value=10_000),
)
def test_derived_seeds_unique_per_stream(base, s1, s2):
    if s1 != s2:
        assert derive_seed(base, s1) != derive_seed(base, s2)
