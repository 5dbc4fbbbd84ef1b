"""Feed-forward network evaluation of an evolved genome: the plan.

A genome's enabled connections form an acyclic directed graph (Section
III-C2 — "Inference on such topologies is basically processing an
acyclic directed graph").  :func:`genome_levels` levelises it into waves
of concurrently-updatable nodes, the System CPU's *vectorize routine*
(Section IV-A), and :meth:`FeedForwardNetwork.create` compiles the waves
into one genome's plan for the scalar walk,
:meth:`FeedForwardNetwork.activate`, one node at a time.

The lanes, :class:`repro.neat.compiled.StackedPlans`, which step many
(genome, episode) pairs per numpy call, compile a whole population in
one array pass instead; it lays out the plans ``create`` would, table
for table (``tests/test_compile_pass.py``).  The soc runs ADAM on the
lanes only; its genome-by-genome oracle in ``tests/neat_reference.py``
drives ``create``'s plans on the scalar walk.

The arithmetic is part of the plan.  A node's value is ``acc = -0.0``,
then ``acc += value[source] * weight`` over its links sorted by source
key, then ``activation(bias + response * acc)`` with the activation's
form from the one table in :mod:`repro.neat.activations`.  ``-0.0`` is
the exact additive identity, so this equals summing from the first
product.  The lanes do the same IEEE operations in the same order, so
every engine gives the same bits by construction.  Non-sum aggregations
run on the scalar walk only: it hands them the products in link order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Set, Tuple

from .activations import ACTIVATIONS
from .aggregations import AGGREGATIONS
from .config import GenomeConfig
from .genome import Genome


InLinks = Dict[int, List[Tuple]]


def _in_links(connections: Sequence[Tuple[int, int]]) -> InLinks:
    """Group ``(src, dst)`` edges by destination: ``dst -> [(src, dst), ...]``."""
    incoming: InLinks = {}
    for edge in connections:
        incoming.setdefault(edge[1], []).append(edge)
    return incoming


def _walk(
    inputs: Sequence[int], outputs: Sequence[int], incoming: InLinks
) -> Tuple[Dict[int, int], Dict[int, List[int]]]:
    """Walk the in-links back from the outputs, stopping at inputs.

    Returns ``(waiting, dependents)``: every node required for an output,
    mapped to its number of in-links from non-input sources, and every
    such source mapped to the required nodes it feeds (once per link).
    """
    input_set = set(inputs)
    waiting: Dict[int, int] = {}
    dependents: Dict[int, List[int]] = {}
    required = set(outputs)
    frontier = list(required)
    while frontier:
        node = frontier.pop()
        count = 0
        for link in incoming.get(node, ()):
            src = link[0]
            if src in input_set:
                continue
            count += 1
            dependents.setdefault(src, []).append(node)
            if src not in required:
                required.add(src)
                frontier.append(src)
        waiting[node] = count
    return waiting, dependents


def required_for_output(
    inputs: Sequence[int], outputs: Sequence[int], connections: Sequence[Tuple[int, int]]
) -> Set[int]:
    """Nodes whose value can influence an output (pruning dead subgraphs)."""
    return set(_walk(inputs, outputs, _in_links(connections))[0])


def _levelise(inputs: Sequence[int], outputs: Sequence[int], incoming: InLinks) -> List[List[int]]:
    """Kahn waves over the nodes required for an output.

    ``incoming`` maps each destination to its in-links, whose first item
    is the source node.  A required node waits on one counter per in-link
    from a non-input source; a wave is every node whose counter reached
    zero on the previous wave, sorted.
    """
    waiting, dependents = _walk(inputs, outputs, incoming)
    wave = [node for node, count in waiting.items() if not count]
    layers: List[List[int]] = []
    placed = 0
    while wave:
        wave.sort()
        layers.append(wave)
        placed += len(wave)
        next_wave = []
        for node in wave:
            for dst in dependents.get(node, ()):
                waiting[dst] -= 1
                if not waiting[dst]:
                    next_wave.append(dst)
        wave = next_wave
    if placed != len(waiting):
        raise ValueError("graph is cyclic or has unreachable required nodes")
    return layers


def feed_forward_layers(
    inputs: Sequence[int], outputs: Sequence[int], connections: Sequence[Tuple[int, int]]
) -> List[List[int]]:
    """Topologically levelise the graph into evaluation layers.

    Layer *k* contains nodes whose every in-edge originates in layers < k
    (or at an input).  This levelisation is exactly the "vectorize routine"
    the paper runs on the System CPU "to pack nodes into well formed input
    vectors" (Section IV-A) — each layer is one wave of concurrent vertex
    updates.  Raises ``ValueError`` when a cycle feeds an output.
    """
    return _levelise(inputs, outputs, _in_links(connections))


def genome_levels(
    genome: Genome, config: GenomeConfig
) -> Tuple[List[List[int]], Dict[int, List[Tuple[int, float]]]]:
    """The levelisation pass of the per-genome compiler.

    Returns ``(layers, incoming)``: the :func:`feed_forward_layers` waves
    of the genome's enabled connections, and its enabled in-links as
    ``dest -> [(source, weight), ...]`` in connection order.
    :meth:`FeedForwardNetwork.create` builds on it.
    """
    incoming: Dict[int, List[Tuple[int, float]]] = {}
    for (src, dst), conn in genome.connections.items():
        if conn.enabled:
            incoming.setdefault(dst, []).append((src, conn.weight))
    return _levelise(config.input_keys, config.output_keys, incoming), incoming


@dataclass
class LayerPlan:
    """One wave of the plan: the nodes it updates, in key order."""

    node_cols: List[int]  # value column each node writes
    links: List[List[Tuple[int, float]]]  # per node, by source key: (column, weight)
    bias: List[float]
    response: List[float]
    activations: List[str]
    aggregations: List[str]

    @property
    def num_nodes(self) -> int:
        return len(self.node_cols)


class FeedForwardNetwork:
    """A genome compiled into its levelised plan, run by the scalar walk.

    The value buffer lays inputs out at columns ``0..num_inputs-1`` (in
    ``config.input_keys`` order) and outputs at the next ``num_outputs``
    columns, identically for every genome of a population, so stacked
    plans share observation scatter and output gather; each wave's other
    nodes follow in wave order.
    """

    def __init__(
        self,
        genome_key: int,
        num_inputs: int,
        num_outputs: int,
        num_columns: int,
        layers: List[LayerPlan],
    ) -> None:
        self.genome_key = genome_key
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.num_columns = num_columns
        self.layers = layers
        #: Multiply-accumulate count of one forward pass (Table II metric).
        self.num_macs = sum(len(links) for layer in layers for links in layer.links)
        self.values: List[float] = [0.0] * num_columns

    @cached_property
    def _nodes(self):
        """The walk: per node, its column, links, bias, response, float
        activation and (None for sum) aggregation.  Built on the first
        pass, so plans only ever stacked into lanes never pay for it."""
        return [
            (col, links, bias, response, ACTIVATIONS[activation][0],
             None if aggregation == "sum" else AGGREGATIONS[aggregation])
            for layer in self.layers
            for col, links, bias, response, activation, aggregation in zip(
                layer.node_cols, layer.links, layer.bias, layer.response,
                layer.activations, layer.aggregations,
            )
        ]

    @classmethod
    def create(cls, genome: Genome, config: GenomeConfig) -> "FeedForwardNetwork":
        """Compile ``genome``: levelise it and lay each wave out on the
        value buffer.  Every engine runs the plan this returns."""
        waves, incoming = genome_levels(genome, config)
        input_keys = config.input_keys
        columns: Dict[int, int] = {key: i for i, key in enumerate(input_keys)}
        for key in config.output_keys:
            columns.setdefault(key, len(columns))
        genes = genome.nodes
        layers: List[LayerPlan] = []
        for wave in waves:
            layer = LayerPlan([], [], [], [], [], [])
            for key in wave:
                node = genes[key]
                layer.node_cols.append(columns.setdefault(key, len(columns)))
                layer.links.append(
                    [(columns[src], weight) for src, weight in sorted(incoming.get(key, ()))]
                )
                layer.bias.append(node.bias)
                layer.response.append(node.response)
                layer.activations.append(node.activation)
                layer.aggregations.append(node.aggregation)
            layers.append(layer)
        return cls(genome.key, len(input_keys), config.num_outputs, len(columns), layers)

    def activate(self, inputs: Sequence[float]) -> List[float]:
        """One forward pass.  ``inputs`` must match the input count."""
        num_inputs = self.num_inputs
        if len(inputs) != num_inputs:
            raise ValueError(f"expected {num_inputs} inputs, got {len(inputs)}")
        values = self.values
        values[:num_inputs] = map(float, inputs)
        for col, links, bias, response, activation, aggregation in self._nodes:
            if aggregation is None:
                acc = -0.0
                for src, weight in links:
                    acc += values[src] * weight
            else:
                acc = aggregation([values[src] * weight for src, weight in links])
            values[col] = activation(bias + response * acc)
        return values[num_inputs : num_inputs + self.num_outputs]

    def reset(self) -> None:
        self.values = [0.0] * self.num_columns
