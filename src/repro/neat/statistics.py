"""The one per-generation summary.

Every substrate describes a generation with :func:`summarise_generation`,
called right after the generation's reproduction, so a summary holds:

* Fig. 4(a) — best/mean fitness of the evaluated population,
* Fig. 4(b) — its total gene count (and Fig. 11(a)'s node/connection
  split),
* Fig. 4(c) — how often its fittest parent was reused,
* Fig. 5(a) — the crossover + mutation ops its reproduction performed,
* Fig. 5(b) — its memory footprint in bytes.

Footprints use the 64-bit-per-gene hardware encoding (Fig. 6): the paper's
footprint metric is "the space required to store all the genes of all
genomes within a generation" (Section III-D1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

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
    #: Key of the evaluated genome with the best fitness (the first in
    #: population order on a tie); ``None`` when none has a fitness.
    best_key: Optional[int]

    @property
    def num_genes(self) -> int:
        return self.num_nodes + self.num_connections

    @property
    def footprint_bytes(self) -> int:
        """Bytes to store every gene of every genome this generation."""
        return self.num_genes * GENE_BYTES


def summarise_generation(
    generation: int,
    evaluated: Dict[int, Genome],
    num_species: int,
    plan: Optional[ReproductionPlan],
) -> GenerationStats:
    """Summarise generation ``generation``: the population it evaluated,
    its species count and the reproduction ``plan`` it made (``None`` on
    an extinction re-seed).  Fittest-parent reuse judges the plan's
    parents by ``evaluated``'s fitnesses, which are theirs."""
    fitnesses = {
        key: genome.fitness
        for key, genome in evaluated.items()
        if genome.fitness is not None
    }
    best_key = max(fitnesses, key=fitnesses.get) if fitnesses else None
    return GenerationStats(
        generation=generation,
        best_fitness=fitnesses[best_key] if best_key is not None else float("-inf"),
        mean_fitness=sum(fitnesses.values()) / len(fitnesses) if fitnesses else 0.0,
        num_species=num_species,
        num_nodes=sum(len(g.nodes) for g in evaluated.values()),
        num_connections=sum(len(g.connections) for g in evaluated.values()),
        ops=plan.total_counts if plan is not None else MutationCounts(),
        fittest_parent_reuse=(
            plan.fittest_parent_reuse(fitnesses) if plan is not None else 0
        ),
        population_size=len(evaluated),
        best_key=best_key,
    )
