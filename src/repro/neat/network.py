"""Feed-forward network evaluation of an evolved genome.

The software reference for inference: the genome's enabled connections
form an acyclic directed graph (Section III-C2 — "Inference on such
topologies is basically processing an acyclic directed graph"), which we
topologically levelise and evaluate node-by-node.  The hardware inference
engine model (:mod:`repro.hw.adam`) packs the same levelised vertex
updates into systolic matrix-vector products and is tested for functional
equivalence against this class.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .activations import ActivationFunctionSet
from .aggregations import AggregationFunctionSet
from .config import GenomeConfig
from .genome import Genome

_ACTIVATIONS = ActivationFunctionSet()
_AGGREGATIONS = AggregationFunctionSet()


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
    """The one levelisation pass every compiler of a genome shares.

    Returns ``(layers, incoming)``: the :func:`feed_forward_layers` waves
    of the genome's enabled connections, and its enabled in-links as
    ``dest -> [(source, weight), ...]`` in connection order.
    :func:`repro.neat.compiled.compile_network`,
    :meth:`FeedForwardNetwork.create` and
    :func:`repro.hw.adam.build_inference_plan` all build on it.
    """
    incoming: Dict[int, List[Tuple[int, float]]] = {}
    for (src, dst), conn in genome.connections.items():
        if conn.enabled:
            incoming.setdefault(dst, []).append((src, conn.weight))
    return _levelise(config.input_keys, config.output_keys, incoming), incoming


class FeedForwardNetwork:
    """Phenotype built from a genome, evaluated layer by layer."""

    def __init__(
        self,
        input_keys: Sequence[int],
        output_keys: Sequence[int],
        node_evals: List[Tuple[int, str, str, float, float, List[Tuple[int, float]]]],
    ) -> None:
        self.input_keys = list(input_keys)
        self.output_keys = list(output_keys)
        self.node_evals = node_evals
        self.values: Dict[int, float] = {
            key: 0.0 for key in list(input_keys) + list(output_keys)
        }

    @classmethod
    def create(cls, genome: Genome, config: GenomeConfig) -> "FeedForwardNetwork":
        layers, incoming = genome_levels(genome, config)
        node_evals = []
        for layer in layers:
            for node_key in layer:
                node = genome.nodes[node_key]
                node_evals.append(
                    (
                        node_key,
                        node.activation,
                        node.aggregation,
                        node.bias,
                        node.response,
                        sorted(incoming.get(node_key, [])),
                    )
                )
        return cls(config.input_keys, config.output_keys, node_evals)

    def activate(self, inputs: Sequence[float]) -> List[float]:
        """One forward pass.  ``inputs`` must match the input key count."""
        if len(inputs) != len(self.input_keys):
            raise ValueError(
                f"expected {len(self.input_keys)} inputs, got {len(inputs)}"
            )
        values = self.values
        for key, value in zip(self.input_keys, inputs):
            values[key] = float(value)
        for node_key, activation, aggregation, bias, response, links in self.node_evals:
            agg_fn = _AGGREGATIONS.get(aggregation)
            act_fn = _ACTIVATIONS.get(activation)
            incoming = [values.get(src, 0.0) * weight for src, weight in links]
            pre = bias + response * agg_fn(incoming)
            values[node_key] = act_fn(pre)
        return [values.get(key, 0.0) for key in self.output_keys]

    @property
    def num_macs(self) -> int:
        """Multiply-accumulate count of one forward pass (Table II metric)."""
        return sum(len(links) for *_rest, links in self.node_evals)

    def reset(self) -> None:
        self.values = {key: 0.0 for key in self.input_keys + self.output_keys}
