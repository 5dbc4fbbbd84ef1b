"""Speciation and fitness sharing (Section II-D).

"Speciation works by grouping a few individuals within the population with
a particular niche.  Within a species, the fitness of the younger
individuals is artificially increased so that they are not obliterated
when pitted against older, fitter individuals."

The partitioning below is representative-based: each species keeps a
representative genome, and individuals join the first species whose
representative lies within the compatibility threshold.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .config import NEATConfig
from .genome import Genome


class Species:
    """One niche: a representative, members, and fitness history."""

    def __init__(self, key: int, created_generation: int) -> None:
        self.key = key
        self.created = created_generation
        self.representative: Optional[Genome] = None
        self.members: Dict[int, Genome] = {}
        self.fitness: Optional[float] = None
        self.adjusted_fitness: Optional[float] = None
        self.fitness_history: List[float] = []
        self.last_improved = created_generation

    def update(self, representative: Genome, members: Dict[int, Genome]) -> None:
        self.representative = representative
        self.members = members

    def age(self, generation: int) -> int:
        return generation - self.created

    def get_fitnesses(self) -> List[float]:
        return [g.fitness for g in self.members.values() if g.fitness is not None]

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Species(key={self.key}, size={len(self.members)}, fitness={self.fitness})"


class SpeciesSet:
    """Partitions a population into species each generation."""

    def __init__(self, config: NEATConfig) -> None:
        self.config = config
        self.species: Dict[int, Species] = {}
        self.genome_to_species: Dict[int, int] = {}
        self._next_species_key = 1

    def speciate(self, population: Dict[int, Genome], generation: int) -> None:
        """Assign every genome to a species.

        Existing species first re-seed a representative (the member closest
        to the previous representative), then unassigned genomes join the
        first compatible species or found a new one.
        """
        threshold = self.config.species.compatibility_threshold
        genome_config = self.config.genome
        unspeciated = set(population)
        self.genome_to_species = {}
        new_representatives: Dict[int, Genome] = {}
        new_members: Dict[int, List[int]] = {}

        # Re-anchor surviving species on their closest current member.
        for species_key, species in self.species.items():
            if species.representative is None:
                continue
            best_key = None
            best_dist = None
            for genome_key in unspeciated:
                dist = species.representative.distance(population[genome_key], genome_config)
                if best_dist is None or dist < best_dist:
                    best_dist = dist
                    best_key = genome_key
            if best_key is not None and best_dist is not None and best_dist < threshold:
                new_representatives[species_key] = population[best_key]
                new_members[species_key] = [best_key]
                unspeciated.discard(best_key)

        for genome_key in sorted(unspeciated):
            genome = population[genome_key]
            placed = False
            for species_key, representative in new_representatives.items():
                if genome.distance(representative, genome_config) < threshold:
                    new_members[species_key].append(genome_key)
                    placed = True
                    break
            if not placed:
                species_key = self._next_species_key
                self._next_species_key += 1
                self.species[species_key] = Species(species_key, generation)
                new_representatives[species_key] = genome
                new_members[species_key] = [genome_key]

        # Commit; drop species that captured no members this generation.
        for species_key in list(self.species):
            if species_key not in new_members:
                del self.species[species_key]
        for species_key, member_keys in new_members.items():
            members = {key: population[key] for key in member_keys}
            self.species[species_key].update(new_representatives[species_key], members)
            for key in member_keys:
                self.genome_to_species[key] = species_key

    def adjust_fitnesses(self, generation: int) -> None:
        """Explicit fitness sharing with a young-species bonus.

        Each member's fitness is divided by the species size (classic
        sharing) and species younger than ``young_age_threshold`` get a
        multiplicative bonus, implementing the paper's "augmenting fitness
        of young genomes to keep them competitive".
        """
        species_cfg = self.config.species
        for species in self.species.values():
            fitnesses = species.get_fitnesses()
            if not fitnesses:
                species.adjusted_fitness = None
                continue
            mean_fitness = sum(fitnesses) / len(fitnesses)
            bonus = (
                species_cfg.young_fitness_bonus
                if species.age(generation) < species_cfg.young_age_threshold
                else 1.0
            )
            species.fitness = max(fitnesses)
            species.adjusted_fitness = bonus * mean_fitness / len(species.members)
            species.fitness_history.append(species.fitness)

    def __len__(self) -> int:
        return len(self.species)
