"""Selection and reproduction (Section IV-B, steps 7-10 in software).

Produces the next generation from the speciated, fitness-scored current
one: per-species offspring quotas proportional to adjusted fitness, elites
copied verbatim, parents drawn from the top ``survival_threshold``
fraction of each species, children created by crossover + mutation.

Every child is recorded as a :class:`ReproductionEvent`.  The resulting
:class:`ReproductionPlan` is simultaneously (a) the Fig. 4(c)/5(a)
characterisation source (parent reuse, op counts) and (b) the trace the
hardware simulators replay — the paper's methodology does the same thing:
"modify the code ... to generate a trace of reproduction operations"
(Section VI-A).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .config import NEATConfig
from .genome import Genome, MutationCounts
from .innovation import InnovationTracker
from .species import SpeciesSet
from .stagnation import Stagnation


@dataclass
class ReproductionEvent:
    """One child: which parents produced it and at what op cost."""

    child_key: int
    parent1_key: int
    parent2_key: int
    species_key: int
    counts: MutationCounts = field(default_factory=MutationCounts)


@dataclass
class ReproductionPlan:
    """The full record of one generation's reproduction."""

    generation: int
    events: List[ReproductionEvent] = field(default_factory=list)
    elite_keys: List[Tuple[int, int]] = field(default_factory=list)  # (old, new)

    @property
    def total_counts(self) -> MutationCounts:
        total = MutationCounts()
        for event in self.events:
            total.merge(event.counts)
        return total

    def parent_usage(self) -> Dict[int, int]:
        """How many children each parent genome contributed to."""
        usage: Dict[int, int] = {}
        for event in self.events:
            usage[event.parent1_key] = usage.get(event.parent1_key, 0) + 1
            if event.parent2_key != event.parent1_key:
                usage[event.parent2_key] = usage.get(event.parent2_key, 0) + 1
        return usage

    def fittest_parent_reuse(self, fitnesses: Dict[int, float]) -> int:
        """Reuse count of the fittest genome that acted as a parent.

        This is the Fig. 4(c) metric: "the fittest parent in every
        generation was reused close to 20 times, and for some applications
        ... up to 80".
        """
        usage = self.parent_usage()
        if not usage:
            return 0
        fittest = max(usage, key=lambda key: (fitnesses.get(key, float("-inf")), -key))
        return usage[fittest]


class CompleteExtinctionError(RuntimeError):
    """All species died and ``reset_on_extinction`` is disabled."""


class Reproduction:
    """Creates generation n+1 genomes from generation n."""

    def __init__(self, config: NEATConfig, innovations: InnovationTracker) -> None:
        self.config = config
        self.innovations = innovations
        self.stagnation = Stagnation(config)
        self._next_genome_key = 0

    def next_genome_key(self) -> int:
        key = self._next_genome_key
        self._next_genome_key += 1
        return key

    def create_initial_population(self, rng: random.Random) -> Dict[int, Genome]:
        population: Dict[int, Genome] = {}
        for _ in range(self.config.pop_size):
            genome = Genome(self.next_genome_key())
            genome.configure_new(self.config.genome, rng)
            population[genome.key] = genome
        return population

    # ------------------------------------------------------------------

    @staticmethod
    def compute_spawn_counts(
        adjusted_fitnesses: List[float], sizes: List[int], pop_size: int, min_size: int
    ) -> List[int]:
        """Apportion the next generation's slots across species.

        Proportional to adjusted fitness with a floor of ``min_size``,
        normalised to exactly ``pop_size`` total.
        """
        total_adjusted = sum(adjusted_fitnesses)
        spawns: List[float] = []
        for adjusted, size in zip(adjusted_fitnesses, sizes):
            if total_adjusted > 0:
                share = adjusted / total_adjusted * pop_size
            else:
                share = pop_size / len(sizes)
            # Damped update (half-way between old size and target share)
            # avoids oscillation, as in neat-python.
            spawns.append(max(min_size, size + round((share - size) * 0.5)))
        # Normalise to the exact population size.
        total = sum(spawns)
        counts = [max(min_size, int(round(s * pop_size / total))) for s in spawns]
        # Fix rounding drift by adjusting the largest species.
        drift = pop_size - sum(counts)
        counts[counts.index(max(counts))] += drift
        return [max(min_size, c) for c in counts]

    def _select(
        self, species_set: SpeciesSet, generation: int, rng: random.Random
    ) -> Optional[List[Tuple[object, List[Genome], List[Genome], int]]]:
        """Step 7, the selector: per-species (elites, parent pool, quota).

        Returns ``None`` on complete extinction (with reset handled by the
        caller).  Shared by the software path (:meth:`reproduce`) and the
        hardware path (:meth:`plan_generation`) so both select identically.
        """
        repro_cfg = self.config.reproduction
        remaining = []
        for key, species, is_stagnant in self.stagnation.update(species_set, generation):
            if not is_stagnant:
                remaining.append(species)
        if not remaining:
            return None

        adjusted = [s.adjusted_fitness or 0.0 for s in remaining]
        min_adjusted = min(adjusted)
        if min_adjusted < 0:
            # Shift so proportional apportioning works with negative fitness
            # environments (e.g. Acrobot rewards are always negative).
            adjusted = [a - min_adjusted + 1e-6 for a in adjusted]
        sizes = [len(s) for s in remaining]
        spawn_counts = self.compute_spawn_counts(
            adjusted, sizes, self.config.pop_size, repro_cfg.min_species_size
        )

        allotments = []
        for species, spawn in zip(remaining, spawn_counts):
            members = sorted(
                species.members.values(),
                key=lambda g: g.fitness if g.fitness is not None else float("-inf"),
                reverse=True,
            )
            elites = members[: min(repro_cfg.elitism, spawn)]
            children = spawn - len(elites)
            # Selection: only the top survival_threshold fraction breed.
            cutoff = max(2, int(round(len(members) * repro_cfg.survival_threshold)))
            parents = members[: min(cutoff, len(members))]
            allotments.append((species, elites, parents, children))
        return allotments

    def reproduce(
        self,
        species_set: SpeciesSet,
        generation: int,
        rng: random.Random,
    ) -> Tuple[Dict[int, Genome], ReproductionPlan]:
        """Produce the next population plus its reproduction trace."""
        plan = ReproductionPlan(generation=generation)
        allotments = self._select(species_set, generation, rng)
        if allotments is None:
            if self.config.reset_on_extinction:
                return self.create_initial_population(rng), plan
            raise CompleteExtinctionError("all species are stagnant")

        new_population: Dict[int, Genome] = {}
        for species, elites, parents, children in allotments:
            # Elites survive unchanged (and are *not* EvE work: no ops).
            for elite in elites:
                clone = elite.copy(self.next_genome_key())
                new_population[clone.key] = clone
                plan.elite_keys.append((elite.key, clone.key))
            for _ in range(children):
                parent1 = rng.choice(parents)
                parent2 = rng.choice(parents)
                child_key = self.next_genome_key()
                event = ReproductionEvent(
                    child_key=child_key,
                    parent1_key=parent1.key,
                    parent2_key=parent2.key,
                    species_key=species.key,
                )
                child = Genome.crossover(
                    child_key, parent1, parent2, self.config.genome, rng, event.counts
                )
                child.mutate(self.config.genome, rng, self.innovations, event.counts)
                new_population[child_key] = child
                plan.events.append(event)
        return new_population, plan

    def plan_generation(
        self,
        species_set: SpeciesSet,
        generation: int,
        rng: random.Random,
    ) -> Optional[ReproductionPlan]:
        """Select parents without materialising children (hardware path).

        The returned plan carries parent/child key assignments only; the
        EvE model executes the actual crossover/mutation on packed gene
        words (walkthrough steps 8-10).  Returns ``None`` on extinction.
        """
        plan = ReproductionPlan(generation=generation)
        allotments = self._select(species_set, generation, rng)
        if allotments is None:
            return None
        for species, elites, parents, children in allotments:
            for elite in elites:
                plan.elite_keys.append((elite.key, self.next_genome_key()))
            for _ in range(children):
                parent1 = rng.choice(parents)
                parent2 = rng.choice(parents)
                plan.events.append(
                    ReproductionEvent(
                        child_key=self.next_genome_key(),
                        parent1_key=parent1.key,
                        parent2_key=parent2.key,
                        species_key=species.key,
                    )
                )
        return plan
