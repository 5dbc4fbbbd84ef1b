"""HyperNEAT-style indirect genome encoding (CPPNs).

Section III-D1: "There have been other NE algorithms such as HyperNEAT
[16] which provide a mechanism to encode the genomes more efficiently,
which can be leveraged if need be."  This module provides that mechanism:

* a **CPPN** (Compositional Pattern Producing Network, Stanley 2007) is
  just a NEAT genome whose nodes may use the full mixed activation set —
  the existing :class:`repro.neat.Genome` machinery evolves it unchanged;
* a **substrate** lays out neurons at geometric coordinates; the CPPN is
  queried at (x1, y1, x2, y2) to paint every substrate connection's
  weight, so a few hundred CPPN genes encode arbitrarily dense phenotype
  networks — the compression the paper alludes to.

The decoded substrate network is a plain :class:`Genome`, so it runs on
ADAM / the software network unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .config import GenomeConfig, NEATConfig
from .genes import ConnectionGene, NodeGene
from .genome import Genome
from .network import FeedForwardNetwork

#: CPPNs get the expressive activation set of the HyperNEAT literature.
CPPN_ACTIVATIONS = ["sigmoid", "tanh", "sin", "gauss", "abs", "identity"]


def cppn_config(pop_size: int = 150) -> NEATConfig:
    """NEAT config for evolving CPPNs: 4 inputs (x1,y1,x2,y2), 1 output."""
    return NEATConfig.for_env(
        4,
        1,
        pop_size=pop_size,
        activation_options=list(CPPN_ACTIVATIONS),
        activation_mutate_rate=0.25,
        activation_default="tanh",
        initial_weight=None,  # random weights: CPPNs need signal at gen 0
    )


@dataclass(frozen=True)
class SubstrateNode:
    """A neuron at a geometric position."""

    node_id: int
    x: float
    y: float


@dataclass
class Substrate:
    """Input/hidden/output neuron layout on the unit plane.

    ``grid`` builds the standard layered sheet: inputs at y=-1, one
    optional hidden row at y=0, outputs at y=+1, x spread in [-1, 1].
    """

    inputs: List[SubstrateNode]
    hidden: List[SubstrateNode]
    outputs: List[SubstrateNode]

    @staticmethod
    def _spread(n: int) -> List[float]:
        if n == 1:
            return [0.0]
        return [-1.0 + 2.0 * i / (n - 1) for i in range(n)]

    @classmethod
    def grid(
        cls, num_inputs: int, num_outputs: int, num_hidden: int = 0
    ) -> "Substrate":
        inputs = [
            SubstrateNode(-(i + 1), x, -1.0)
            for i, x in enumerate(cls._spread(num_inputs))
        ]
        outputs = [
            SubstrateNode(i, x, 1.0) for i, x in enumerate(cls._spread(num_outputs))
        ]
        hidden = [
            SubstrateNode(num_outputs + i, x, 0.0)
            for i, x in enumerate(cls._spread(num_hidden))
        ]
        return cls(inputs=inputs, hidden=hidden, outputs=outputs)

    @property
    def phenotype_config(self) -> GenomeConfig:
        return GenomeConfig(
            num_inputs=len(self.inputs), num_outputs=len(self.outputs)
        )

    def connection_queries(self) -> List[Tuple[SubstrateNode, SubstrateNode]]:
        """Feed-forward layer-to-layer connection candidates."""
        pairs: List[Tuple[SubstrateNode, SubstrateNode]] = []
        if self.hidden:
            for a in self.inputs:
                for b in self.hidden:
                    pairs.append((a, b))
            for a in self.hidden:
                for b in self.outputs:
                    pairs.append((a, b))
        for a in self.inputs:
            for b in self.outputs:
                pairs.append((a, b))
        return pairs


class HyperNEATDecoder:
    """Decodes a CPPN genome into a substrate phenotype genome."""

    def __init__(
        self,
        substrate: Substrate,
        cppn_genome_config: GenomeConfig,
        weight_range: float = 4.0,
        expression_threshold: float = 0.2,
    ) -> None:
        if cppn_genome_config.num_inputs != 4 or cppn_genome_config.num_outputs != 1:
            raise ValueError("CPPN must map (x1, y1, x2, y2) -> weight")
        self.substrate = substrate
        self.cppn_genome_config = cppn_genome_config
        self.weight_range = weight_range
        self.expression_threshold = expression_threshold

    def decode(self, cppn_genome: Genome, phenotype_key: int = 0) -> Genome:
        """Query the CPPN over every substrate pair; build the phenotype.

        Following HyperNEAT: connections whose CPPN magnitude falls below
        the expression threshold are not expressed; the rest are scaled
        into [-weight_range, +weight_range].
        """
        cppn = FeedForwardNetwork.create(cppn_genome, self.cppn_genome_config)
        phenotype = Genome(phenotype_key)
        config = self.substrate.phenotype_config
        for node in self.substrate.outputs + self.substrate.hidden:
            phenotype.nodes[node.node_id] = NodeGene(
                node.node_id, bias=0.0, response=1.0,
                activation="tanh", aggregation="sum",
            )
        for src, dst in self.substrate.connection_queries():
            value = cppn.activate([src.x, src.y, dst.x, dst.y])[0]
            if abs(value) < self.expression_threshold:
                continue
            # rescale the post-threshold magnitude onto the weight range
            sign = 1.0 if value >= 0 else -1.0
            magnitude = (abs(value) - self.expression_threshold) / max(
                1e-9, 1.0 - self.expression_threshold
            )
            weight = sign * min(1.0, magnitude) * self.weight_range
            key = (src.node_id, dst.node_id)
            phenotype.connections[key] = ConnectionGene(key, weight=weight, enabled=True)
        return phenotype

    def compression_ratio(self, cppn_genome: Genome) -> float:
        """Phenotype genes per CPPN gene — the encoding-efficiency win."""
        phenotype = self.decode(cppn_genome)
        return phenotype.num_genes / max(1, cppn_genome.num_genes)


def evolve_hyperneat(
    substrate: Substrate,
    fitness_function,
    generations: int = 20,
    pop_size: int = 50,
    seed: int = 0,
    fitness_threshold: Optional[float] = None,
):
    """Evolve CPPNs against a phenotype-level fitness function.

    ``fitness_function(phenotype_genome, phenotype_config) -> float`` is
    evaluated on the decoded substrate network of each CPPN.

    Returns ``(best_cppn, population, decoder)``.
    """
    from .population import Population

    config = cppn_config(pop_size=pop_size)
    config.fitness_threshold = fitness_threshold
    decoder = HyperNEATDecoder(substrate, config.genome)
    population = Population(config, seed=seed)
    phenotype_config = substrate.phenotype_config

    def evaluate(genomes, _cfg):
        for genome in genomes:
            phenotype = decoder.decode(genome)
            genome.fitness = fitness_function(phenotype, phenotype_config)

    best = population.run(
        evaluate, max_generations=generations, fitness_threshold=fitness_threshold
    )
    return best, population, decoder
