"""Aggregation functions for NEAT node genes.

Each node gene carries an ``aggregation`` attribute (Fig. 6 of the paper)
that selects how incoming weighted activations are combined before the
activation function is applied.  ``sum`` is the classic neural-network
choice and the default everywhere in this repo.
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import Callable, Dict, Iterable, Iterator

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


class InvalidAggregationError(KeyError):
    """Raised when a genome references an unregistered aggregation."""


class AggregationFunctionSet:
    """Registry mapping aggregation names to callables."""

    def __init__(self) -> None:
        self._functions: Dict[str, AggregationFunction] = {}
        for name, fn in _BUILTINS.items():
            self.add(name, fn)

    def add(self, name: str, function: AggregationFunction) -> None:
        if not callable(function):
            raise TypeError(f"aggregation {name!r} is not callable")
        self._functions[name] = function

    def get(self, name: str) -> AggregationFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise InvalidAggregationError(
                f"unknown aggregation {name!r}; known: {sorted(self._functions)}"
            ) from None

    def is_valid(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> Iterator[str]:
        return iter(sorted(self._functions))

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __len__(self) -> int:
        return len(self._functions)


_BUILTINS: Dict[str, AggregationFunction] = {
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
AGGREGATION_CODES: Dict[str, int] = {name: i for i, name in enumerate(sorted(_BUILTINS))}
AGGREGATION_NAMES: Dict[int, str] = {i: name for name, i in AGGREGATION_CODES.items()}
