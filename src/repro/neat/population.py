"""The NEAT population: Fig. 3(b)'s evaluate and reproduce steps.

:meth:`Population.run_generation` evaluates the current population and
breeds the next; the generation loop around it, with the budget and the
stop rule, is :mod:`repro.api`'s.  The population is deliberately
agnostic to *how* fitness is computed: callers hand in a fitness
function, matching the paper's framing where only the fitness function
changes between workloads (Section III-B).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from .. import obs
from .config import NEATConfig
from .genome import Genome
from .innovation import InnovationTracker
from .reproduction import Reproduction, ReproductionPlan
from .species import SpeciesSet
from .statistics import GenerationStats, summarise_generation

FitnessFunction = Callable[[List[Genome], NEATConfig], None]


def meets_threshold(fitness: Optional[float], threshold: Optional[float]) -> bool:
    """The stop rule, applied to the champion's fitness.  A missing
    fitness or threshold never meets it; 0.0 is a fitness like any
    other."""
    return threshold is not None and fitness is not None and fitness >= threshold


class Population:
    """One NEAT population under a config: each :meth:`run_generation`
    evaluates it with a caller's fitness function and breeds the next,
    and ``best_genome`` is the champion so far."""

    def __init__(self, config: NEATConfig, seed: Optional[int] = None) -> None:
        self.config = config
        self.rng = random.Random(seed)
        self.innovations = InnovationTracker(next_node_id=config.genome.num_outputs)
        self.reproduction = Reproduction(config, self.innovations)
        self.species_set = SpeciesSet(config)
        self.generation = 0
        self.population: Dict[int, Genome] = self.reproduction.create_initial_population(
            self.rng
        )
        self.species_set.speciate(self.population, self.generation)
        self.best_genome: Optional[Genome] = None
        self.last_plan: Optional[ReproductionPlan] = None

    def run_generation(self, fitness_function: FitnessFunction) -> GenerationStats:
        """Evaluate the current population and breed the next one.

        Returns the summary of the generation just evaluated, taken after
        its reproduction, so it covers that reproduction too."""
        evaluated = self.population
        genomes = list(evaluated.values())
        with obs.span(
            "evaluate", generation=self.generation, genomes=len(genomes)
        ):
            fitness_function(genomes, self.config)
        missing = [g.key for g in genomes if g.fitness is None]
        if missing:
            raise RuntimeError(
                f"fitness function left genomes unevaluated: {missing[:5]}"
            )

        self.species_set.adjust_fitnesses(self.generation)
        num_species = len(self.species_set)
        with obs.span(
            "reproduce",
            generation=self.generation,
            species=num_species,
        ):
            self.innovations.new_generation()
            self.population, self.last_plan = self.reproduction.reproduce(
                self.species_set, self.generation, self.rng
            )
            self.generation += 1
            self.species_set.speciate(self.population, self.generation)
        stats = summarise_generation(
            self.generation - 1, evaluated, num_species, self.last_plan
        )
        if (
            self.best_genome is None
            or self.best_genome.fitness is None
            or stats.best_fitness > self.best_genome.fitness
        ):
            self.best_genome = evaluated[stats.best_key].copy()
        return stats

    # ------------------------------------------------------------------
    # checkpoint / resume

    def to_state(self) -> dict:
        """Snapshot the full evolution state at a generation boundary.

        The returned dict is JSON-serialisable and captures everything a
        bit-identical resume needs: genomes, speciation, innovation and
        genome-key counters, the RNG state and the champion.  See
        :func:`repro.neat.serialize.population_to_state`.
        """
        from .serialize import population_to_state

        return population_to_state(self)

    @classmethod
    def from_state(cls, state: dict, config: NEATConfig) -> "Population":
        """Rebuild a population from a :meth:`to_state` snapshot.

        ``config`` must match the one recorded in the snapshot;
        :class:`repro.neat.serialize.DeserializationError` is raised for
        a foreign config or a malformed/unsupported payload.
        """
        from .serialize import population_from_state

        return population_from_state(state, config)
