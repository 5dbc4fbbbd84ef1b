"""Generic reference for the straight-line NEAT gene operators.

The operators ``repro.neat`` ran before they were spelled out attribute
by attribute: crossover and distance loop over per-class attribute-name
tuples with ``getattr``/``setattr``, node mutation looks its rates up as
``getattr(config, f"{attr}_...")``, genomes count every crossover and
perturbation straight into the :class:`MutationCounts` record, and a
genome is levelised by collecting its enabled keys, pruning them with
:func:`required_for_output` and rescanning every pending node with
``all(...)`` on each round, before the in-link map is built a second
time.  ``tests/test_neat_differential.py`` compares ``repro.neat``
against these bit for bit, including the order of RNG draws.

:func:`stack_plans` is the lanes' compiler as it was before the one-pass
population compiler: every genome compiled on its own by
``FeedForwardNetwork.create``, checked node by node, and its plan packed
into the tables wave by wave.  ``tests/test_compile_pass.py`` and
``tests/test_neat_differential.py`` compare
:class:`repro.neat.compiled.StackedPlans` against it, field by field
(:func:`table_fields`).  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import random
from itertools import chain
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.neat.activations import ACTIVATIONS
from repro.neat.config import GenomeConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome, MutationCounts
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


FLOAT_ATTRS = {NodeGene: ("bias", "response"), ConnectionGene: ("weight",)}
OTHER_ATTRS = {NodeGene: ("activation", "aggregation"), ConnectionGene: ("enabled",)}


def gene_copy(gene):
    if isinstance(gene, NodeGene):
        return NodeGene(gene.key, gene.bias, gene.response, gene.activation, gene.aggregation)
    return ConnectionGene(gene.key, gene.weight, gene.enabled)


def gene_crossover(gene, other, rng: random.Random, bias: float = 0.5):
    if gene.key != other.key:
        raise ValueError(
            f"crossover requires homologous genes; got keys {gene.key} and {other.key}"
        )
    child = gene_copy(gene)
    for attr in FLOAT_ATTRS[type(gene)] + OTHER_ATTRS[type(gene)]:
        if rng.random() >= bias:
            setattr(child, attr, getattr(other, attr))
    return child


def gene_distance(gene, other, config: GenomeConfig) -> float:
    d = 0.0
    for attr in FLOAT_ATTRS[type(gene)]:
        d += abs(getattr(gene, attr) - getattr(other, attr))
    for attr in OTHER_ATTRS[type(gene)]:
        if getattr(gene, attr) != getattr(other, attr):
            d += 1.0
    return d * config.compatibility_weight_coefficient


def node_mutate(node: NodeGene, config: GenomeConfig, rng: random.Random) -> int:
    count = 0
    for attr in ("bias", "response"):
        rate = getattr(config, f"{attr}_mutate_rate")
        replace = getattr(config, f"{attr}_replace_rate")
        r = rng.random()
        if r < rate:
            power = getattr(config, f"{attr}_mutate_power")
            value = getattr(node, attr) + rng.gauss(0.0, power)
            setattr(
                node,
                attr,
                _clamp(
                    value,
                    getattr(config, f"{attr}_min_value"),
                    getattr(config, f"{attr}_max_value"),
                ),
            )
            count += 1
        elif r < rate + replace:
            setattr(
                node,
                attr,
                _clamp(
                    rng.gauss(
                        getattr(config, f"{attr}_init_mean"),
                        getattr(config, f"{attr}_init_stdev"),
                    ),
                    getattr(config, f"{attr}_min_value"),
                    getattr(config, f"{attr}_max_value"),
                ),
            )
            count += 1
    if config.activation_options and rng.random() < config.activation_mutate_rate:
        node.activation = rng.choice(config.activation_options)
        count += 1
    if config.aggregation_options and rng.random() < config.aggregation_mutate_rate:
        node.aggregation = rng.choice(config.aggregation_options)
        count += 1
    return count


def connection_mutate(conn: ConnectionGene, config: GenomeConfig, rng: random.Random) -> int:
    count = 0
    r = rng.random()
    if r < config.weight_mutate_rate:
        conn.weight = _clamp(
            conn.weight + rng.gauss(0.0, config.weight_mutate_power),
            config.weight_min_value,
            config.weight_max_value,
        )
        count += 1
    elif r < config.weight_mutate_rate + config.weight_replace_rate:
        conn.weight = _clamp(
            rng.gauss(config.weight_init_mean, config.weight_init_stdev),
            config.weight_min_value,
            config.weight_max_value,
        )
        count += 1
    if rng.random() < config.enabled_mutate_rate:
        conn.enabled = not conn.enabled
        count += 1
    return count


def gene_mutate(gene, config: GenomeConfig, rng: random.Random) -> int:
    if isinstance(gene, NodeGene):
        return node_mutate(gene, config, rng)
    return connection_mutate(gene, config, rng)


# ---------------------------------------------------------------------------
# genomes


def genome_crossover(
    key: int,
    parent1: Genome,
    parent2: Genome,
    config: GenomeConfig,
    rng: random.Random,
    counts: Optional[MutationCounts] = None,
) -> Genome:
    if (
        parent1.fitness is not None
        and parent2.fitness is not None
        and parent2.fitness > parent1.fitness
    ):
        parent1, parent2 = parent2, parent1
    child = Genome(key)
    for node_key, node1 in parent1.nodes.items():
        node2 = parent2.nodes.get(node_key)
        if node2 is None:
            child.nodes[node_key] = gene_copy(node1)
        else:
            child.nodes[node_key] = gene_crossover(node1, node2, rng, config.crossover_bias)
            if counts is not None:
                counts.crossovers += 1
    for conn_key, conn1 in parent1.connections.items():
        conn2 = parent2.connections.get(conn_key)
        if conn2 is None:
            child.connections[conn_key] = gene_copy(conn1)
        else:
            child.connections[conn_key] = gene_crossover(conn1, conn2, rng, config.crossover_bias)
            if counts is not None:
                counts.crossovers += 1
    return child


def genome_copy(genome: Genome, key: Optional[int] = None) -> Genome:
    clone = Genome(genome.key if key is None else key)
    clone.nodes = {k: gene_copy(g) for k, g in genome.nodes.items()}
    clone.connections = {k: gene_copy(g) for k, g in genome.connections.items()}
    clone.fitness = genome.fitness
    return clone


def genome_mutate(
    genome: Genome,
    config: GenomeConfig,
    rng: random.Random,
    innovations: InnovationTracker,
    counts: Optional[MutationCounts] = None,
) -> MutationCounts:
    if counts is None:
        counts = MutationCounts()
    if config.single_structural_mutation:
        div = max(
            1e-9,
            config.node_add_prob
            + config.node_delete_prob
            + config.conn_add_prob
            + config.conn_delete_prob,
        )
        r = rng.random()
        if r < config.node_add_prob / div:
            genome.mutate_add_node(config, rng, innovations, counts)
        elif r < (config.node_add_prob + config.node_delete_prob) / div:
            genome.mutate_delete_node(config, rng, counts)
        elif r < (
            config.node_add_prob + config.node_delete_prob + config.conn_add_prob
        ) / div:
            genome.mutate_add_connection(config, rng, counts)
        else:
            genome.mutate_delete_connection(rng, counts)
    else:
        if rng.random() < config.node_add_prob:
            genome.mutate_add_node(config, rng, innovations, counts)
        if rng.random() < config.node_delete_prob:
            genome.mutate_delete_node(config, rng, counts)
        if rng.random() < config.conn_add_prob:
            genome.mutate_add_connection(config, rng, counts)
        if rng.random() < config.conn_delete_prob:
            genome.mutate_delete_connection(rng, counts)

    for node in genome.nodes.values():
        counts.perturbations += node_mutate(node, config, rng)
    for conn in genome.connections.values():
        counts.perturbations += connection_mutate(conn, config, rng)
    return counts


def genome_distance(genome: Genome, other: Genome, config: GenomeConfig) -> float:
    node_distance = 0.0
    if genome.nodes or other.nodes:
        disjoint = 0
        homologous = 0.0
        for key, node in genome.nodes.items():
            other_node = other.nodes.get(key)
            if other_node is None:
                disjoint += 1
            else:
                homologous += gene_distance(node, other_node, config)
        disjoint += sum(1 for key in other.nodes if key not in genome.nodes)
        max_nodes = max(len(genome.nodes), len(other.nodes))
        node_distance = (
            homologous + config.compatibility_disjoint_coefficient * disjoint
        ) / max(1, max_nodes)

    conn_distance = 0.0
    if genome.connections or other.connections:
        disjoint = 0
        homologous = 0.0
        for key, conn in genome.connections.items():
            other_conn = other.connections.get(key)
            if other_conn is None:
                disjoint += 1
            else:
                homologous += gene_distance(conn, other_conn, config)
        disjoint += sum(1 for key in other.connections if key not in genome.connections)
        max_conns = max(len(genome.connections), len(other.connections))
        conn_distance = (
            homologous + config.compatibility_disjoint_coefficient * disjoint
        ) / max(1, max_conns)
    return node_distance + conn_distance


# ---------------------------------------------------------------------------
# levelisation


def required_for_output(
    inputs: Sequence[int], outputs: Sequence[int], connections: Sequence[Tuple[int, int]]
) -> Set[int]:
    required = set(outputs)
    frontier = set(outputs)
    incoming: Dict[int, List[int]] = {}
    for src, dst in connections:
        incoming.setdefault(dst, []).append(src)
    while frontier:
        node = frontier.pop()
        for src in incoming.get(node, ()):
            if src not in required and src not in inputs:
                required.add(src)
                frontier.add(src)
    return required


def feed_forward_layers(
    inputs: Sequence[int], outputs: Sequence[int], connections: Sequence[Tuple[int, int]]
) -> List[List[int]]:
    required = required_for_output(inputs, outputs, connections)
    evaluated: Set[int] = set(inputs)
    pending = set(required)
    layers: List[List[int]] = []
    incoming: Dict[int, List[int]] = {}
    for src, dst in connections:
        incoming.setdefault(dst, []).append(src)
    while pending:
        ready = sorted(
            node
            for node in pending
            if all(src in evaluated for src in incoming.get(node, ()))
        )
        if not ready:
            raise ValueError("graph is cyclic or has unreachable required nodes")
        layers.append(ready)
        evaluated.update(ready)
        pending.difference_update(ready)
    return layers


def genome_levels(
    genome: Genome, config: GenomeConfig
) -> Tuple[List[List[int]], Dict[int, List[Tuple[int, float]]]]:
    """The prologue each compiler carried: enabled keys, levelise, in-links."""
    enabled = [key for key, conn in genome.connections.items() if conn.enabled]
    layers = feed_forward_layers(config.input_keys, config.output_keys, enabled)
    incoming: Dict[int, List[Tuple[int, float]]] = {}
    for (src, dst), conn in genome.connections.items():
        if conn.enabled:
            incoming.setdefault(dst, []).append((src, conn.weight))
    return layers, incoming


# ---------------------------------------------------------------------------
# population packing


def _joined(lists) -> list:
    return list(chain.from_iterable(lists))


def stack_plans(genomes: Sequence[Genome], config: GenomeConfig) -> SimpleNamespace:
    """The lanes' tables built genome by genome.

    Each genome is compiled by ``FeedForwardNetwork.create`` (its error,
    if any, is raised for the first genome in order) and set aside with
    its reason when a node of its plan has an aggregation other than sum
    or an activation outside the table.  The other plans are packed into
    the tables wave by wave, and each wave's ADAM shape ``(m, k, macs)``
    is read off the plan's layers.
    """
    plans, compiled, fallback = [], [], {}
    for index, genome in enumerate(genomes):
        plan = FeedForwardNetwork.create(genome, config)
        bad = [
            (activation, aggregation)
            for layer in plan.layers
            for activation, aggregation in zip(layer.activations, layer.aggregations)
            if aggregation != "sum" or activation not in ACTIVATIONS
        ]
        if bad:
            activation, aggregation = bad[0]
            fallback[index] = (
                f"genome {genome.key} uses activation {activation!r} with "
                f"aggregation {aggregation!r}; lanes run the activation table "
                "with sum aggregation only"
            )
        else:
            plans.append(plan)
            compiled.append(index)
    out = SimpleNamespace(compiled=compiled, fallback=fallback)
    out.macs = [p.num_macs for p in plans]
    out.depths = [len(p.layers) for p in plans]
    out.shapes = [
        [
            (layer.num_nodes,
             len({col for links in layer.links for col, _ in links}),
             sum(1 for links in layer.links for _, weight in links if weight != 0.0))
            for layer in p.layers
        ]
        for p in plans
    ]
    num_io = config.num_inputs + config.num_outputs
    zero_col = max([p.num_columns for p in plans], default=num_io)
    out.num_columns = zero_col + 2

    # Per wave: the plans reaching it, each with its layer there, and the
    # wave's first row, fan-in and node count.
    shapes = []
    row = 0
    for l in range(max(out.depths, default=0)):
        members = [(g, p.layers[l]) for g, p in enumerate(plans) if l < len(p.layers)]
        nodes = max(layer.num_nodes for _, layer in members)
        fan = max([1] + [len(links) for _, layer in members for links in layer.links])
        shapes.append((members, row, fan, nodes))
        row += (fan + 2) * nodes
    io_row = row
    ints = np.empty((io_row + num_io, len(plans)), dtype=np.intp)
    floats = np.zeros((io_row, len(plans)))
    column_rows = np.ones(len(ints), dtype=bool)
    ints[io_row:] = np.arange(num_io)[:, None]
    act_index: Dict[str, int] = {}
    for members, row, fan, nodes in shapes:
        node_row = row + fan * nodes
        code_row = node_row + nodes
        ints[row:node_row] = zero_col
        floats[row:node_row] = -0.0
        ints[node_row:code_row] = zero_col + 1
        ints[code_row : code_row + nodes] = -1
        column_rows[code_row : code_row + nodes] = False
        # One entry per (plan, node j), and one per link, whose fan slot s
        # puts it on row ``row + s * nodes + j``.
        layers = [layer for _, layer in members]
        counts = np.array([layer.num_nodes for layer in layers], dtype=np.intp)
        plan = np.repeat([g for g, _ in members], counts)
        node = np.arange(len(plan)) - np.repeat(np.cumsum(counts) - counts, counts)
        node_links = _joined(layer.links for layer in layers)
        fans = np.fromiter(map(len, node_links), dtype=np.intp, count=len(node_links))
        slot = np.arange(fans.sum()) - np.repeat(np.cumsum(fans) - fans, fans)
        link_row = row + slot * nodes + np.repeat(node, fans)
        link_plan = np.repeat(plan, fans)
        pairs = np.array(_joined(node_links), dtype=np.float64).reshape(-1, 2)
        ints[link_row, link_plan] = pairs[:, 0]
        floats[link_row, link_plan] = pairs[:, 1]
        ints[node_row + node, plan] = _joined(layer.node_cols for layer in layers)
        floats[node_row + node, plan] = _joined(layer.bias for layer in layers)
        ints[code_row + node, plan] = [
            act_index.setdefault(name, len(act_index))
            for name in _joined(layer.activations for layer in layers)
        ]
        floats[code_row + node, plan] = _joined(layer.response for layer in layers)
    out.ints, out.floats, out.column_rows = ints, floats, column_rows
    out.act_fns = [ACTIVATIONS[name][1] for name in act_index]
    out.waves = []
    for _, row, fan, nodes in shapes:
        node_row = row + fan * nodes
        codes = slice(node_row + nodes, node_row + 2 * nodes)
        used = np.unique(ints[codes][ints[codes] >= 0])
        out.waves.append((
            slice(row, node_row),
            nodes,
            [slice(at, at + nodes) for at in range(nodes, fan * nodes, nodes)],
            slice(node_row, node_row + nodes),
            codes,
            out.act_fns[used[0]] if len(used) == 1 else None,
        ))
    out.inputs = slice(io_row, io_row + config.num_inputs)
    out.outputs = slice(out.inputs.stop, out.inputs.stop + config.num_outputs)
    return out


def table_fields(stacked) -> dict:
    """What the lanes and ADAM's envelope read off a population's tables,
    floats by bit pattern: comparable between
    :class:`repro.neat.compiled.StackedPlans` and :func:`stack_plans`."""
    return {
        "compiled": list(stacked.compiled),
        "fallback": dict(stacked.fallback),
        "ints": (stacked.ints.shape, stacked.ints.tolist()),
        "floats": (stacked.floats.shape, stacked.floats.view(np.int64).tolist()),
        "column_rows": stacked.column_rows.tolist(),
        "act_fns": list(stacked.act_fns),
        "waves": list(stacked.waves),
        "num_columns": stacked.num_columns,
        "macs": [int(m) for m in stacked.macs],
        "depths": [int(d) for d in stacked.depths],
        "io": (stacked.inputs, stacked.outputs),
    }
