"""Unit tests for repro.neat.aggregations."""

import pytest

from repro.neat.aggregations import (
    AGGREGATION_CODES,
    AGGREGATION_NAMES,
    AGGREGATIONS,
    max_aggregation,
    maxabs_aggregation,
    mean_aggregation,
    median_aggregation,
    min_aggregation,
    product_aggregation,
    sum_aggregation,
)


def test_sum():
    assert sum_aggregation([1.0, 2.0, 3.0]) == 6.0
    assert sum_aggregation([]) == 0.0


def test_product():
    assert product_aggregation([2.0, 3.0, 4.0]) == 24.0
    assert product_aggregation([]) == 1.0


def test_max_min():
    values = [3.0, -5.0, 2.0]
    assert max_aggregation(values) == 3.0
    assert min_aggregation(values) == -5.0
    assert max_aggregation([]) == 0.0
    assert min_aggregation([]) == 0.0


def test_maxabs():
    assert maxabs_aggregation([3.0, -5.0, 2.0]) == -5.0
    assert maxabs_aggregation([]) == 0.0


def test_mean():
    assert mean_aggregation([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert mean_aggregation([]) == 0.0


def test_median_odd_even():
    assert median_aggregation([5.0, 1.0, 3.0]) == 3.0
    assert median_aggregation([4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)
    assert median_aggregation([]) == 0.0


def test_aggregations_accept_generators():
    for fn in AGGREGATIONS.values():
        assert fn(x for x in [1.0, 2.0]) is not None


def test_codes_fit_hardware_field():
    assert len(AGGREGATION_CODES) == len(AGGREGATION_NAMES)
    assert max(AGGREGATION_CODES.values()) < 16
    for name, code in AGGREGATION_CODES.items():
        assert AGGREGATION_NAMES[code] == name
