"""Aggregation functions for NEAT node genes.

Each node gene carries an ``aggregation`` attribute (Fig. 6 of the paper)
that selects how incoming weighted activations are combined before the
activation function is applied.  ``sum`` is the classic neural-network
choice and the default everywhere in this repo.
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import Callable, Dict, Iterable

AggregationFunction = Callable[[Iterable[float]], float]


def sum_aggregation(values: Iterable[float]) -> float:
    """Left to right from ``-0.0``, the exact additive identity.

    Not builtin ``sum``: from Python 3.12 it sums floats with
    compensation, so a node value would depend on the interpreter.
    """
    total = -0.0
    for value in values:
        total += value
    return total


def product_aggregation(values: Iterable[float]) -> float:
    return reduce(mul, values, 1.0)


def max_aggregation(values: Iterable[float]) -> float:
    values = list(values)
    return max(values) if values else 0.0


def min_aggregation(values: Iterable[float]) -> float:
    values = list(values)
    return min(values) if values else 0.0


def maxabs_aggregation(values: Iterable[float]) -> float:
    values = list(values)
    return max(values, key=abs) if values else 0.0


def mean_aggregation(values: Iterable[float]) -> float:
    values = list(values)
    return sum_aggregation(values) / len(values) if values else 0.0


def median_aggregation(values: Iterable[float]) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    n = len(values)
    mid = n // 2
    if n % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


#: The one aggregation table: name -> function.
AGGREGATIONS: Dict[str, AggregationFunction] = {
    "sum": sum_aggregation,
    "product": product_aggregation,
    "max": max_aggregation,
    "min": min_aggregation,
    "maxabs": maxabs_aggregation,
    "mean": mean_aggregation,
    "median": median_aggregation,
}

#: Stable integer codes for the 64-bit hardware gene word (Fig. 6 reserves
#: an "Aggregation" field).  Order is frozen for serialisation stability.
AGGREGATION_CODES: Dict[str, int] = {name: i for i, name in enumerate(sorted(AGGREGATIONS))}
AGGREGATION_NAMES: Dict[int, str] = {i: name for name, i in AGGREGATION_CODES.items()}
