"""Unit tests for the PE allocation policies."""

import pytest

from repro.hw.allocator import (
    greedy_reuse_schedule,
    make_scheduler,
    round_robin_schedule,
)
from repro.neat.reproduction import ReproductionEvent


def events_with_parents(pairs):
    return [
        ReproductionEvent(child_key=100 + i, parent1_key=p1, parent2_key=p2,
                          species_key=1)
        for i, (p1, p2) in enumerate(pairs)
    ]


class TestGreedy:
    def test_wave_size_bounded(self):
        events = events_with_parents([(1, 2)] * 10)
        waves = greedy_reuse_schedule(events, num_pes=4)
        assert all(len(w) <= 4 for w in waves)
        assert sum(len(w) for w in waves) == 10

    def test_all_events_scheduled_once(self):
        events = events_with_parents([(1, 2), (3, 4), (1, 2), (5, 6)])
        waves = greedy_reuse_schedule(events, num_pes=2)
        scheduled = [e.child_key for w in waves for e in w]
        assert sorted(scheduled) == sorted(e.child_key for e in events)

    def test_shared_parents_co_scheduled(self):
        # 3 children of (1,2), 3 of (3,4), wave size 3:
        # greedy puts each family in its own wave.
        events = events_with_parents([(1, 2), (3, 4), (1, 2), (3, 4), (1, 2), (3, 4)])
        waves = greedy_reuse_schedule(events, num_pes=3)
        assert len(waves) == 2
        for wave in waves:
            pairs = {tuple(sorted((e.parent1_key, e.parent2_key))) for e in wave}
            assert len(pairs) == 1

    def test_largest_family_first(self):
        events = events_with_parents([(9, 9)] + [(1, 2)] * 5)
        waves = greedy_reuse_schedule(events, num_pes=4)
        first_wave_pairs = [
            tuple(sorted((e.parent1_key, e.parent2_key))) for e in waves[0]
        ]
        assert all(p == (1, 2) for p in first_wave_pairs)

    def test_symmetric_pair_grouping(self):
        events = events_with_parents([(1, 2), (2, 1)])
        waves = greedy_reuse_schedule(events, num_pes=2)
        assert len(waves) == 1

    def test_invalid_pe_count(self):
        with pytest.raises(ValueError):
            greedy_reuse_schedule([], 0)


class TestRoundRobin:
    def test_arrival_order_preserved(self):
        events = events_with_parents([(1, 2), (3, 4), (5, 6)])
        waves = round_robin_schedule(events, num_pes=2)
        assert [e.child_key for e in waves[0]] == [100, 101]
        assert [e.child_key for e in waves[1]] == [102]

    def test_empty(self):
        assert round_robin_schedule([], 4) == []


class TestFactory:
    def test_lookup(self):
        assert make_scheduler("greedy") is greedy_reuse_schedule
        assert make_scheduler("round-robin") is round_robin_schedule

    def test_unknown(self):
        for name in ("random", "round_robin", "Greedy"):
            with pytest.raises(ValueError, match="round-robin"):
                make_scheduler(name)
