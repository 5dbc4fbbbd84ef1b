"""Unit tests for the XOR-WOW PRNG."""

import pytest

from eve_reference import XorWow


def stepped(prng, count):
    return [prng.next_byte() for _ in range(count)]


def test_deterministic_for_seed():
    a = XorWow(seed=123)
    b = XorWow(seed=123)
    assert stepped(a, 100) == stepped(b, 100)


def test_different_seeds_diverge():
    assert stepped(XorWow(seed=1), 20) != stepped(XorWow(seed=2), 20)


def test_reseed_restores_stream():
    prng = XorWow(seed=5)
    first = stepped(prng, 10)
    prng.seed(5)
    assert stepped(prng, 10) == first


def test_u32_range():
    prng = XorWow(seed=0)
    for _ in range(1000):
        value = prng.next_u32()
        assert 0 <= value < 2 ** 32


def test_byte_port_range():
    prng = XorWow(seed=0)
    for _ in range(1000):
        assert 0 <= prng.next_byte() <= 255


def test_signed_byte_range():
    prng = XorWow(seed=0)
    values = [prng.next_signed_byte() for _ in range(1000)]
    assert all(-128 <= v <= 127 for v in values)
    assert any(v < 0 for v in values) and any(v > 0 for v in values)


def test_byte_distribution_roughly_uniform():
    """Chi-square-lite: all 256 byte values appear at plausible rates."""
    prng = XorWow(seed=42)
    counts = [0] * 256
    n = 256 * 200
    for _ in range(n):
        counts[prng.next_byte()] += 1
    expected = n / 256
    assert min(counts) > expected * 0.5
    assert max(counts) < expected * 1.5


def test_no_short_cycle():
    prng = XorWow(seed=7)
    seen_states = set()
    for _ in range(10_000):
        prng.next_u32()
        state = prng.state
        assert state not in seen_states
        seen_states.add(state)


def test_weyl_counter_advances():
    prng = XorWow(seed=0)
    d0 = prng.state[-1]
    prng.next_u32()
    assert prng.state[-1] == (d0 + 362437) % 2 ** 32


def test_all_zero_state_avoided():
    # seeding must never produce the degenerate all-zero xorshift state
    for seed in range(50):
        prng = XorWow(seed=seed)
        assert any(prng.state[:5])
