"""The NEAT outer loop (Fig. 3(b)).

Generate initial population -> evaluate fitness -> check completion ->
reproduce -> repeat.  The population object is deliberately agnostic to
*how* fitness is computed: callers hand in a fitness function, matching
the paper's framing where only the fitness function changes between
workloads (Section III-B).
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
    """The stop and convergence rule.  A missing fitness or threshold
    never meets it; 0.0 is a fitness like any other."""
    return threshold is not None and fitness is not None and fitness >= threshold


class Population:
    """Runs NEAT for a given config and fitness function."""

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

    # ------------------------------------------------------------------

    def fitness_summary(self) -> float:
        """Current population's fitness under ``config.fitness_criterion``.

        This is the quantity the stop criterion compares against the
        fitness threshold; exposing it lets external runners (the
        :mod:`repro.api` backends) reproduce :meth:`run` exactly.
        """
        fitnesses = [
            g.fitness for g in self.population.values() if g.fitness is not None
        ]
        if not fitnesses:
            return float("-inf")
        criterion = self.config.fitness_criterion
        if criterion == "max":
            return max(fitnesses)
        if criterion == "min":
            return min(fitnesses)
        return sum(fitnesses) / len(fitnesses)

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

    def run(
        self,
        fitness_function: FitnessFunction,
        max_generations: int = 100,
        fitness_threshold: Optional[float] = None,
    ) -> Genome:
        """Run until the fitness threshold is met or the budget expires.

        Returns the best genome observed (the paper's stop criterion:
        "The system stops when the CPU detects that the target fitness for
        that application has been achieved", Section IV-B).  This is the
        loop for a caller-supplied fitness function (``evolve_hyperneat``);
        environment-bound runs go through the :mod:`repro.api` loop.
        """
        threshold = (
            fitness_threshold
            if fitness_threshold is not None
            else self.config.fitness_threshold
        )
        for _ in range(max_generations):
            self.run_generation(fitness_function)
            if meets_threshold(self.fitness_summary(), threshold):
                break
        if self.best_genome is None:
            raise RuntimeError("no generations were evaluated")
        return self.best_genome

    @property
    def converged(self) -> bool:
        best = self.best_genome
        return best is not None and meets_threshold(
            best.fitness, self.config.fitness_threshold
        )

    # ------------------------------------------------------------------
    # checkpoint / resume

    def to_state(self) -> dict:
        """Snapshot the full evolution state at a generation boundary.

        The returned dict is JSON-serialisable and captures everything a
        bit-identical resume needs: genomes, speciation, innovation and
        genome-key counters, the RNG state and the last reproduction
        plan.  See :func:`repro.neat.serialize.population_to_state`.
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
