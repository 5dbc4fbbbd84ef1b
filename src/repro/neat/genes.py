"""Node and connection genes.

"The basic building block in NEAT is a gene, which can represent either a
NN node (i.e., neuron), or a connection (i.e., synapse)" (Section II-D).
Node genes carry four attributes {Bias, Response, Activation, Aggregation}
and connection genes carry {Weight, Enabled} plus their (source, dest) key
— exactly the fields the paper's 64-bit hardware gene word packs (Fig. 6).

The crossover/mutation entry points on these classes are the software
reference the EvE PE pipeline model (:mod:`repro.hw.pe`) is validated
against.

The order in which the operators draw from the caller's
``random.Random`` is a contract: every golden trajectory and benchmark
digest pins it.

* ``crossover`` draws once per attribute of a homologous gene, in
  attribute order (bias, response, activation, aggregation for a node;
  weight, enabled for a connection); a draw ``>= bias`` takes the other
  parent's value.
* ``mutate`` draws ``r`` once per float attribute and walks the ladder
  ``r < rate`` (add a ``gauss(0, power)`` draw) then
  ``r < rate + replace`` (a fresh ``gauss(init_mean, init_stdev)``
  draw); a node then draws for activation and aggregation when they have
  options, a connection for its enabled flag.
* values are clamped as ``max(lo, min(hi, v))``, so NaN becomes ``hi``.

Each class spells its operators out attribute by attribute.
``tests/neat_reference.py`` keeps the generic attribute-loop operators
as the oracle they are compared against bit for bit.
"""

from __future__ import annotations

import random
from typing import Tuple, Union

from .config import GenomeConfig

GeneKey = Union[int, Tuple[int, int]]


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


# Copies and crossover children skip ``__init__``'s key check: their key
# comes from a gene that already passed it.
_new = object.__new__


def _not_homologous(a: "BaseGene", b: "BaseGene") -> ValueError:
    return ValueError(
        f"crossover requires homologous genes; got keys {a.key} and {b.key}"
    )


class BaseGene:
    """What node and connection genes share: a key, hashed with the type.

    Subclasses list their attributes in ``__slots__``, in attribute order.
    """

    __slots__ = ("key",)

    key: GeneKey

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        attrs = ("key",) + self.__slots__
        return all(getattr(self, a) == getattr(other, a) for a in attrs)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.key))


class NodeGene(BaseGene):
    """A neuron: key is a single integer node id.

    Input nodes (negative ids) are implicit in this implementation — as in
    neat-python, only hidden and output nodes own ``NodeGene`` objects.
    """

    __slots__ = ("bias", "response", "activation", "aggregation")

    def __init__(
        self,
        key: int,
        bias: float = 0.0,
        response: float = 1.0,
        activation: str = "tanh",
        aggregation: str = "sum",
    ) -> None:
        if isinstance(key, tuple):
            raise TypeError("NodeGene key must be an int node id")
        self.key = key
        self.bias = bias
        self.response = response
        self.activation = activation
        self.aggregation = aggregation

    @classmethod
    def random_init(cls, key: int, config: GenomeConfig, rng: random.Random) -> "NodeGene":
        bias = _clamp(
            rng.gauss(config.bias_init_mean, config.bias_init_stdev),
            config.bias_min_value,
            config.bias_max_value,
        )
        response = _clamp(
            rng.gauss(config.response_init_mean, config.response_init_stdev),
            config.response_min_value,
            config.response_max_value,
        )
        return cls(
            key,
            bias=bias,
            response=response,
            activation=config.activation_default,
            aggregation=config.aggregation_default,
        )

    def copy(self) -> "NodeGene":
        gene = _new(NodeGene)
        gene.key = self.key
        gene.bias = self.bias
        gene.response = self.response
        gene.activation = self.activation
        gene.aggregation = self.aggregation
        return gene

    def crossover(self, other: "NodeGene", rng: random.Random, bias: float = 0.5) -> "NodeGene":
        """Create a child gene by cherry-picking attributes from two parents.

        Implements the paper's crossover op: "Create a new gene by picking
        up attributes from parent genes based on relative fitness of
        parents" (Fig. 3d).  ``bias`` is the programmable preference for
        ``self`` (the fitter parent), default 0.5 as in the EvE crossover
        engine (Fig. 7).
        """
        if self.key != other.key:
            raise _not_homologous(self, other)
        draw = rng.random
        gene = _new(NodeGene)
        gene.key = self.key
        gene.bias = other.bias if draw() >= bias else self.bias
        gene.response = other.response if draw() >= bias else self.response
        gene.activation = other.activation if draw() >= bias else self.activation
        gene.aggregation = other.aggregation if draw() >= bias else self.aggregation
        return gene

    def distance(self, other: "NodeGene", config: GenomeConfig) -> float:
        """Attribute distance used in the compatibility metric."""
        d = abs(self.bias - other.bias) + abs(self.response - other.response)
        if self.activation != other.activation:
            d += 1.0
        if self.aggregation != other.aggregation:
            d += 1.0
        return d * config.compatibility_weight_coefficient

    def mutate(self, config: GenomeConfig, rng: random.Random) -> int:
        """Perturb attributes in place; returns the number of perturbations.

        This is the "Mutation: Perturb" op of Fig. 3(d): "Change the
        attributes of the child gene by perturbing the values by small
        amounts."
        """
        count = 0
        r = rng.random()
        rate = config.bias_mutate_rate
        if r < rate:
            self.bias = _clamp(
                self.bias + rng.gauss(0.0, config.bias_mutate_power),
                config.bias_min_value,
                config.bias_max_value,
            )
            count += 1
        elif r < rate + config.bias_replace_rate:
            self.bias = _clamp(
                rng.gauss(config.bias_init_mean, config.bias_init_stdev),
                config.bias_min_value,
                config.bias_max_value,
            )
            count += 1
        r = rng.random()
        rate = config.response_mutate_rate
        if r < rate:
            self.response = _clamp(
                self.response + rng.gauss(0.0, config.response_mutate_power),
                config.response_min_value,
                config.response_max_value,
            )
            count += 1
        elif r < rate + config.response_replace_rate:
            self.response = _clamp(
                rng.gauss(config.response_init_mean, config.response_init_stdev),
                config.response_min_value,
                config.response_max_value,
            )
            count += 1
        if config.activation_options and rng.random() < config.activation_mutate_rate:
            self.activation = rng.choice(config.activation_options)
            count += 1
        if config.aggregation_options and rng.random() < config.aggregation_mutate_rate:
            self.aggregation = rng.choice(config.aggregation_options)
            count += 1
        return count

    def __repr__(self) -> str:
        return (
            f"NodeGene(key={self.key}, bias={self.bias:.3f}, response={self.response:.3f}, "
            f"activation={self.activation!r}, aggregation={self.aggregation!r})"
        )


class ConnectionGene(BaseGene):
    """A synapse: key is the (source_id, dest_id) node pair (Fig. 6)."""

    __slots__ = ("weight", "enabled")

    def __init__(self, key: Tuple[int, int], weight: float = 0.0, enabled: bool = True) -> None:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError("ConnectionGene key must be a (source, dest) tuple")
        self.key = key
        self.weight = weight
        self.enabled = enabled

    @property
    def source(self) -> int:
        return self.key[0]

    @property
    def dest(self) -> int:
        return self.key[1]

    @classmethod
    def random_init(
        cls, key: Tuple[int, int], config: GenomeConfig, rng: random.Random
    ) -> "ConnectionGene":
        weight = _clamp(
            rng.gauss(config.weight_init_mean, config.weight_init_stdev),
            config.weight_min_value,
            config.weight_max_value,
        )
        return cls(key, weight=weight, enabled=True)

    def copy(self) -> "ConnectionGene":
        gene = _new(ConnectionGene)
        gene.key = self.key
        gene.weight = self.weight
        gene.enabled = self.enabled
        return gene

    def crossover(
        self, other: "ConnectionGene", rng: random.Random, bias: float = 0.5
    ) -> "ConnectionGene":
        """Cherry-pick weight then enabled flag, as :meth:`NodeGene.crossover`."""
        if self.key != other.key:
            raise _not_homologous(self, other)
        draw = rng.random
        gene = _new(ConnectionGene)
        gene.key = self.key
        gene.weight = other.weight if draw() >= bias else self.weight
        gene.enabled = other.enabled if draw() >= bias else self.enabled
        return gene

    def distance(self, other: "ConnectionGene", config: GenomeConfig) -> float:
        """Attribute distance used in the compatibility metric."""
        d = abs(self.weight - other.weight)
        if self.enabled != other.enabled:
            d += 1.0
        return d * config.compatibility_weight_coefficient

    def mutate(self, config: GenomeConfig, rng: random.Random) -> int:
        """Perturb the weight / toggle enabled in place; returns op count."""
        count = 0
        r = rng.random()
        rate = config.weight_mutate_rate
        if r < rate:
            self.weight = _clamp(
                self.weight + rng.gauss(0.0, config.weight_mutate_power),
                config.weight_min_value,
                config.weight_max_value,
            )
            count += 1
        elif r < rate + config.weight_replace_rate:
            self.weight = _clamp(
                rng.gauss(config.weight_init_mean, config.weight_init_stdev),
                config.weight_min_value,
                config.weight_max_value,
            )
            count += 1
        if rng.random() < config.enabled_mutate_rate:
            self.enabled = not self.enabled
            count += 1
        return count

    def __repr__(self) -> str:
        return f"ConnectionGene(key={self.key}, weight={self.weight:.3f}, enabled={self.enabled})"
