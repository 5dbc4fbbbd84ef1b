"""NEAT genome: a collection of genes that uniquely describes one NN.

Implements the four reproduction operations of Fig. 3(d) — crossover,
perturbation, gene addition, gene deletion — plus the compatibility
distance used for speciation.  Networks are kept feed-forward (acyclic):
the paper's inference engine processes "an acyclic directed graph"
(Section III-C2).

Every mutating entry point returns/accumulates op counts into a
:class:`MutationCounts` record; these counters drive the Fig. 5(a)
characterisation and the reproduction traces consumed by the hardware
simulators (Section VI-A: "generate a trace of reproduction operations").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .config import GenomeConfig
from .genes import ConnectionGene, NodeGene
from .innovation import InnovationTracker

ConnKey = Tuple[int, int]


@dataclass
class MutationCounts:
    """Operation counters for one reproduction event (or an aggregate).

    Field names follow the paper's op taxonomy: crossovers happen per gene
    during mating, perturbations per attribute-mutated gene, and add/delete
    per structural mutation.
    """

    crossovers: int = 0
    perturbations: int = 0
    node_additions: int = 0
    node_deletions: int = 0
    conn_additions: int = 0
    conn_deletions: int = 0

    @property
    def mutations(self) -> int:
        return (
            self.perturbations
            + self.node_additions
            + self.node_deletions
            + self.conn_additions
            + self.conn_deletions
        )

    @property
    def total(self) -> int:
        return self.crossovers + self.mutations

    def merge(self, other: "MutationCounts") -> None:
        self.crossovers += other.crossovers
        self.perturbations += other.perturbations
        self.node_additions += other.node_additions
        self.node_deletions += other.node_deletions
        self.conn_additions += other.conn_additions
        self.conn_deletions += other.conn_deletions


def creates_cycle(connections: Iterable[ConnKey], test: ConnKey) -> bool:
    """Would adding ``test`` to the existing ``connections`` create a cycle?

    Standard reachability walk: a new edge (a, b) creates a cycle iff a is
    reachable from b through existing edges (or a == b).
    """
    a, b = test
    if a == b:
        return True
    visited: Set[int] = {b}
    frontier = [b]
    adjacency: Dict[int, List[int]] = {}
    for src, dst in connections:
        adjacency.setdefault(src, []).append(dst)
    while frontier:
        node = frontier.pop()
        if node == a:
            return True
        for nxt in adjacency.get(node, ()):  # pragma: no branch
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    return False


class Genome:
    """One individual: node genes + connection genes + a fitness value.

    Input nodes use negative ids and do not own :class:`NodeGene` objects;
    outputs are ids ``0..num_outputs-1``; hidden nodes take ids assigned by
    the :class:`InnovationTracker`.
    """

    def __init__(self, key: int) -> None:
        self.key = key
        self.nodes: Dict[int, NodeGene] = {}
        self.connections: Dict[ConnKey, ConnectionGene] = {}
        self.fitness: Optional[float] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def configure_new(self, config: GenomeConfig, rng: random.Random) -> None:
        """Initialise the minimal topology of Section III-B.

        Output nodes plus (optionally) a full input->output connection mesh
        whose weights default to zero, exactly as the paper describes.
        """
        self.nodes.clear()
        self.connections.clear()
        for out_key in config.output_keys:
            self.nodes[out_key] = NodeGene.random_init(out_key, config, rng)
        if config.initial_connection == "full":
            for in_key in config.input_keys:
                for out_key in config.output_keys:
                    key = (in_key, out_key)
                    if config.initial_weight is None:
                        conn = ConnectionGene.random_init(key, config, rng)
                    else:
                        conn = ConnectionGene(key, weight=config.initial_weight, enabled=True)
                    self.connections[key] = conn

    @classmethod
    def crossover(
        cls,
        key: int,
        parent1: "Genome",
        parent2: "Genome",
        config: GenomeConfig,
        rng: random.Random,
        counts: Optional[MutationCounts] = None,
    ) -> "Genome":
        """Mate two parents; ``parent1`` must be the fitter one.

        Homologous genes (matching keys) are crossed attribute-wise with
        the configured bias; disjoint/excess genes are inherited from the
        fitter parent — the classic NEAT rule, and what the Gene Split
        block's stream alignment implements in hardware.
        """
        if (
            parent1.fitness is not None
            and parent2.fitness is not None
            and parent2.fitness > parent1.fitness
        ):
            parent1, parent2 = parent2, parent1
        bias = config.crossover_bias
        crossovers = 0
        child = cls(key)
        child_nodes = child.nodes
        other_nodes = parent2.nodes
        for node_key, node1 in parent1.nodes.items():
            node2 = other_nodes.get(node_key)
            if node2 is None:
                child_nodes[node_key] = node1.copy()
            else:
                child_nodes[node_key] = node1.crossover(node2, rng, bias)
                crossovers += 1
        child_conns = child.connections
        other_conns = parent2.connections
        for conn_key, conn1 in parent1.connections.items():
            conn2 = other_conns.get(conn_key)
            if conn2 is None:
                child_conns[conn_key] = conn1.copy()
            else:
                child_conns[conn_key] = conn1.crossover(conn2, rng, bias)
                crossovers += 1
        if counts is not None:
            counts.crossovers += crossovers
        return child

    def copy(self, key: Optional[int] = None) -> "Genome":
        clone = Genome(self.key if key is None else key)
        clone.nodes = {k: g.copy() for k, g in self.nodes.items()}
        clone.connections = {k: g.copy() for k, g in self.connections.items()}
        clone.fitness = self.fitness
        return clone

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def mutate(
        self,
        config: GenomeConfig,
        rng: random.Random,
        innovations: InnovationTracker,
        counts: Optional[MutationCounts] = None,
    ) -> MutationCounts:
        """Apply structural + attribute mutations in place."""
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
                self.mutate_add_node(config, rng, innovations, counts)
            elif r < (config.node_add_prob + config.node_delete_prob) / div:
                self.mutate_delete_node(config, rng, counts)
            elif r < (
                config.node_add_prob + config.node_delete_prob + config.conn_add_prob
            ) / div:
                self.mutate_add_connection(config, rng, counts)
            else:
                self.mutate_delete_connection(rng, counts)
        else:
            if rng.random() < config.node_add_prob:
                self.mutate_add_node(config, rng, innovations, counts)
            if rng.random() < config.node_delete_prob:
                self.mutate_delete_node(config, rng, counts)
            if rng.random() < config.conn_add_prob:
                self.mutate_add_connection(config, rng, counts)
            if rng.random() < config.conn_delete_prob:
                self.mutate_delete_connection(rng, counts)

        perturbations = 0
        for node in self.nodes.values():
            perturbations += node.mutate(config, rng)
        for conn in self.connections.values():
            perturbations += conn.mutate(config, rng)
        counts.perturbations += perturbations
        return counts

    def mutate_add_node(
        self,
        config: GenomeConfig,
        rng: random.Random,
        innovations: InnovationTracker,
        counts: Optional[MutationCounts] = None,
    ) -> Optional[int]:
        """Split an existing connection with a new node.

        Matches the hardware Add Gene engine (Section IV-C3): "the logic
        inserts a new gene with default attributes and a node ID greater
        than any other node present in the network.  Additionally two new
        connection genes are generated and the incoming connection gene is
        dropped."  (We disable rather than drop the old connection, the
        standard NEAT softening that preserves the paper's semantics.)
        """
        if not self.connections:
            return None
        conn = rng.choice(list(self.connections.values()))
        new_id = innovations.get_split_node_id(conn.source, conn.dest)
        if new_id in self.nodes:
            # Another mutation already introduced this split in this genome.
            new_id = innovations.fresh_node_id()
        node = NodeGene(
            new_id,
            bias=0.0,
            response=1.0,
            activation=config.activation_default,
            aggregation=config.aggregation_default,
        )
        self.nodes[new_id] = node
        conn.enabled = False
        self.connections[(conn.source, new_id)] = ConnectionGene(
            (conn.source, new_id), weight=1.0, enabled=True
        )
        self.connections[(new_id, conn.dest)] = ConnectionGene(
            (new_id, conn.dest), weight=conn.weight, enabled=True
        )
        if counts is not None:
            counts.node_additions += 1
        return new_id

    def mutate_delete_node(
        self,
        config: GenomeConfig,
        rng: random.Random,
        counts: Optional[MutationCounts] = None,
    ) -> Optional[int]:
        """Delete a hidden node and prune its dangling connections.

        The hardware Delete Gene engine nullifies the node, stores its id,
        and "compare[s it] with the source and destination IDs of any of
        the connection genes to ensure no dangling connection exist[s]".
        """
        output_keys = set(config.output_keys)
        candidates = [k for k in self.nodes if k not in output_keys]
        if not candidates:
            return None
        victim = rng.choice(candidates)
        del self.nodes[victim]
        dangling = [k for k in self.connections if victim in k]
        for key in dangling:
            del self.connections[key]
        if counts is not None:
            counts.node_deletions += 1
            counts.conn_deletions += len(dangling)
        return victim

    def mutate_add_connection(
        self,
        config: GenomeConfig,
        rng: random.Random,
        counts: Optional[MutationCounts] = None,
    ) -> Optional[ConnKey]:
        """Add a new feed-forward connection between existing nodes."""
        possible_sources = config.input_keys + list(self.nodes)
        possible_dests = list(self.nodes)
        if not possible_dests:
            return None
        source = rng.choice(possible_sources)
        dest = rng.choice(possible_dests)
        key = (source, dest)
        if key in self.connections:
            # Re-enable a disabled duplicate rather than duplicating genes.
            existing = self.connections[key]
            if not existing.enabled:
                existing.enabled = True
                if counts is not None:
                    counts.conn_additions += 1
                return key
            return None
        if dest in config.input_keys:
            return None
        # Every connection, disabled ones too: a disabled connection can be
        # re-enabled later, and must not close a cycle when it is.
        if creates_cycle(self.connections, key):
            return None
        self.connections[key] = ConnectionGene.random_init(key, config, rng)
        if counts is not None:
            counts.conn_additions += 1
        return key

    def mutate_delete_connection(
        self, rng: random.Random, counts: Optional[MutationCounts] = None
    ) -> Optional[ConnKey]:
        if not self.connections:
            return None
        key = rng.choice(list(self.connections))
        del self.connections[key]
        if counts is not None:
            counts.conn_deletions += 1
        return key

    # ------------------------------------------------------------------
    # compatibility distance (speciation)
    # ------------------------------------------------------------------

    def distance(self, other: "Genome", config: GenomeConfig) -> float:
        """NEAT compatibility distance between two genomes.

        Homologous gene distances are summed in ``self``'s gene order (the
        order is part of the result's bits); genes present in only one
        genome count as disjoint.
        """
        weight_coeff = config.compatibility_weight_coefficient
        disjoint_coeff = config.compatibility_disjoint_coefficient
        node_distance = 0.0
        nodes, other_nodes = self.nodes, other.nodes
        if nodes or other_nodes:
            homologous = 0.0
            matched = 0
            get = other_nodes.get
            for key, node in nodes.items():
                other_node = get(key)
                if other_node is not None:
                    matched += 1
                    d = abs(node.bias - other_node.bias) + abs(
                        node.response - other_node.response
                    )
                    if node.activation != other_node.activation:
                        d += 1.0
                    if node.aggregation != other_node.aggregation:
                        d += 1.0
                    homologous += d * weight_coeff
            disjoint = len(nodes) + len(other_nodes) - 2 * matched
            node_distance = (homologous + disjoint_coeff * disjoint) / max(
                1, len(nodes), len(other_nodes)
            )

        conn_distance = 0.0
        conns, other_conns = self.connections, other.connections
        if conns or other_conns:
            homologous = 0.0
            matched = 0
            get = other_conns.get
            for key, conn in conns.items():
                other_conn = get(key)
                if other_conn is not None:
                    matched += 1
                    d = abs(conn.weight - other_conn.weight)
                    if conn.enabled != other_conn.enabled:
                        d += 1.0
                    homologous += d * weight_coeff
            disjoint = len(conns) + len(other_conns) - 2 * matched
            conn_distance = (homologous + disjoint_coeff * disjoint) / max(
                1, len(conns), len(other_conns)
            )
        return node_distance + conn_distance

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def size(self) -> Tuple[int, int]:
        """(enabled connection count, node count) — neat-python convention."""
        enabled = sum(1 for c in self.connections.values() if c.enabled)
        return enabled, len(self.nodes)

    @property
    def num_genes(self) -> int:
        """Total gene count — the Fig. 4(b) metric."""
        return len(self.nodes) + len(self.connections)

    def validate(self, config: GenomeConfig) -> None:
        """Raise ``ValueError`` on structural invariant violations."""
        input_keys = set(config.input_keys)
        valid_endpoints = input_keys | set(self.nodes)
        for key in config.output_keys:
            if key not in self.nodes:
                raise ValueError(f"genome {self.key}: missing output node {key}")
        for (src, dst), conn in self.connections.items():
            if conn.key != (src, dst):
                raise ValueError(f"genome {self.key}: connection key mismatch at {(src, dst)}")
            if src not in valid_endpoints:
                raise ValueError(f"genome {self.key}: dangling connection source {src}")
            if dst not in self.nodes:
                raise ValueError(f"genome {self.key}: dangling connection dest {dst}")
            if dst in input_keys:
                raise ValueError(f"genome {self.key}: connection into input node {dst}")
        if self.has_cycle():
            raise ValueError(f"genome {self.key}: network is not acyclic")

    def has_cycle(self) -> bool:
        adjacency: Dict[int, List[int]] = {}
        for src, dst in self.connections:
            adjacency.setdefault(src, []).append(dst)
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[int, int] = {}

        def visit(node: int) -> bool:
            colour[node] = GREY
            for nxt in adjacency.get(node, ()):
                state = colour.get(nxt, WHITE)
                if state == GREY:
                    return True
                if state == WHITE and visit(nxt):
                    return True
            colour[node] = BLACK
            return False

        return any(
            visit(node) for node in list(adjacency) if colour.get(node, WHITE) == WHITE
        )

    def __repr__(self) -> str:
        return (
            f"Genome(key={self.key}, nodes={len(self.nodes)}, "
            f"connections={len(self.connections)}, fitness={self.fitness})"
        )
