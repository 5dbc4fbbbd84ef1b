"""Per-generation statistics collection.

Gathers every series the paper's characterisation plots need:

* Fig. 4(a) — best/mean fitness per generation,
* Fig. 4(b) — total gene count per generation,
* Fig. 4(c) — fittest-parent reuse per generation,
* Fig. 5(a) — crossover + mutation op counts per generation,
* Fig. 5(b) — memory footprint (bytes) per generation,
* Fig. 11(a) — node/connection gene composition.

Footprints use the 64-bit-per-gene hardware encoding (Fig. 6): the paper's
footprint metric is "the space required to store all the genes of all
genomes within a generation" (Section III-D1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .genome import Genome, MutationCounts
from .reproduction import ReproductionPlan

GENE_BYTES = 8  # 64-bit hardware gene word (Fig. 6)


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    num_species: int
    num_nodes: int
    num_connections: int
    ops: MutationCounts
    fittest_parent_reuse: int
    population_size: int

    @property
    def num_genes(self) -> int:
        return self.num_nodes + self.num_connections

    @property
    def memory_footprint_bytes(self) -> int:
        """Bytes to store every gene of every genome this generation."""
        return self.num_genes * GENE_BYTES


class StatisticsReporter:
    """Accumulates :class:`GenerationStats` across a run."""

    def __init__(self) -> None:
        self.generations: List[GenerationStats] = []

    def record(
        self,
        generation: int,
        population: Dict[int, Genome],
        num_species: int,
        plan: Optional[ReproductionPlan],
    ) -> GenerationStats:
        fitnesses = {
            key: genome.fitness
            for key, genome in population.items()
            if genome.fitness is not None
        }
        best_key = max(fitnesses, key=fitnesses.get) if fitnesses else None
        best_fitness = fitnesses[best_key] if best_key is not None else float("-inf")
        mean_fitness = sum(fitnesses.values()) / len(fitnesses) if fitnesses else 0.0
        num_nodes = sum(len(g.nodes) for g in population.values())
        num_connections = sum(len(g.connections) for g in population.values())
        ops = plan.total_counts if plan is not None else MutationCounts()
        reuse = plan.fittest_parent_reuse(fitnesses) if plan is not None else 0
        stats = GenerationStats(
            generation=generation,
            best_fitness=best_fitness,
            mean_fitness=mean_fitness,
            num_species=num_species,
            num_nodes=num_nodes,
            num_connections=num_connections,
            ops=ops,
            fittest_parent_reuse=reuse,
            population_size=len(population),
        )
        self.generations.append(stats)
        return stats

    # -- series accessors (one per figure) --------------------------------

    def best_fitness_series(self) -> List[float]:
        return [g.best_fitness for g in self.generations]

    def mean_fitness_series(self) -> List[float]:
        return [g.mean_fitness for g in self.generations]

    def gene_count_series(self) -> List[int]:
        return [g.num_genes for g in self.generations]

    def ops_series(self) -> List[int]:
        return [g.ops.total for g in self.generations]

    def footprint_series(self) -> List[int]:
        return [g.memory_footprint_bytes for g in self.generations]

    def reuse_series(self) -> List[int]:
        return [g.fittest_parent_reuse for g in self.generations]

    def composition(self) -> Dict[str, int]:
        """Final-generation node/connection split (Fig. 11a)."""
        if not self.generations:
            return {"nodes": 0, "connections": 0}
        last = self.generations[-1]
        return {"nodes": last.num_nodes, "connections": last.num_connections}
