"""Unit tests for repro.neat.innovation."""

from repro.neat.innovation import InnovationTracker


def test_split_ids_deduplicated_within_generation():
    tracker = InnovationTracker(next_node_id=5)
    a = tracker.get_split_node_id(1, 2)
    b = tracker.get_split_node_id(1, 2)
    assert a == b == 5


def test_different_splits_get_different_ids():
    tracker = InnovationTracker(next_node_id=0)
    a = tracker.get_split_node_id(1, 2)
    b = tracker.get_split_node_id(2, 3)
    assert a != b


def test_new_generation_clears_cache_but_ids_monotonic():
    tracker = InnovationTracker(next_node_id=0)
    a = tracker.get_split_node_id(1, 2)
    tracker.new_generation()
    b = tracker.get_split_node_id(1, 2)
    assert b > a


def test_fresh_node_id_increments():
    tracker = InnovationTracker(next_node_id=3)
    assert tracker.fresh_node_id() == 3
    assert tracker.fresh_node_id() == 4
