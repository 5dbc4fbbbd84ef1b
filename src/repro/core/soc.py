"""The GeneSys SoC: EvE + ADAM + Genome Buffer + System CPU.

Implements the walkthrough of Section IV-B.  One call to
:meth:`GeneSysSoC.run_generation` performs:

1.  map genomes from the Genome Buffer onto ADAM,
2-5. roll out each genome against its environment instance, one packed
    matrix-vector wave at a time, until the episode completes,
6.  translate cumulative reward into fitness and augment it to the genome
    in SRAM,
7.  run the Gene Selector (software thread) to pick parents,
8-9. stream parent genes through the EvE PEs (crossover + mutations),
10. merge child genes and write the next generation back to the buffer.

All hardware counters (cycles, SRAM accesses, NoC reads, MACs) feed the
:class:`repro.hw.energy.EnergyLedger` so per-generation runtime and energy
match what the platform comparison (Fig. 9/10) reports for GENESYS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .. import obs as telemetry
from ..envs.evaluate import EvaluationTotals, Executor, reduce_outcomes
from ..envs.seeding import episode_seed
from ..hw.adam import (
    ADAM,
    AdamNetwork,
    InferencePlan,
    InferenceStats,
    StackedAdamEnvelope,
    build_inference_plan,
)
from ..hw.energy import EnergyLedger, cycles_to_seconds
from ..hw.eve import EvolutionEngine, EvolutionResult
from ..hw.gene_encoding import GeneStream, decode_genome, encode_genome
from ..hw.selector import GeneSelector
from ..hw.sram import GenomeBuffer
from ..neat.genome import Genome
from ..neat.statistics import GenerationStats, summarise_generation
from .config import GeneSysConfig


@dataclass
class GenerationReport:
    """Everything measured while producing one generation; ``stats`` is
    its summary (fitness, genes, species, footprint, reuse)."""

    generation: int
    stats: GenerationStats
    inference: InferenceStats
    evolution: EvolutionResult
    env_steps: int
    inference_cycles: int
    evolution_cycles: int
    energy: EnergyLedger
    frequency_hz: float

    @property
    def inference_seconds(self) -> float:
        return cycles_to_seconds(self.inference_cycles, self.frequency_hz)

    @property
    def evolution_seconds(self) -> float:
        return cycles_to_seconds(self.evolution_cycles, self.frequency_hz)


class GeneSysSoC:
    """Functional + cycle/energy model of the full chip."""

    def __init__(
        self,
        config: GeneSysConfig,
        env_id: str,
        episodes: int = 1,
        max_steps: Optional[int] = None,
        vectorize: bool = True,
    ) -> None:
        self.config = config
        self.env_id = env_id
        self.episodes = episodes
        self.max_steps = max_steps
        #: Population-batched evaluation: functional rollouts run as
        #: lockstep numpy lanes (:mod:`repro.neat.compiled`) and the ADAM
        #: counters are charged through one
        #: :class:`repro.hw.adam.StackedAdamEnvelope` — bit-identical to
        #: the serial per-genome walk, just vectorised.
        self.vectorize = vectorize
        self._executor = Executor(env_id, max_steps=max_steps)
        self.buffer = GenomeBuffer(config.sram)
        self.adam = ADAM(config.adam)
        self.eve = EvolutionEngine(replace(config.eve, pe=config.pe_config_from_neat()))
        self.selector = GeneSelector(config.neat, seed=config.seed)
        self.rng = random.Random(config.seed)
        self.population: Dict[int, Genome] = {}
        #: Gene Merge's writeback of each child and the genome
        #: :meth:`evolve_population` decoded from it.
        self._decoded: Dict[int, Tuple[GeneStream, Genome]] = {}
        self.generation = 0
        self.best_genome: Optional[Genome] = None
        self.reports: List[GenerationReport] = []

    # ------------------------------------------------------------------

    def initialise_population(self) -> None:
        """CPU boot: create generation 0 and load it into the buffer."""
        self.population = self.selector.reproduction.create_initial_population(self.rng)
        self.buffer.clear()
        for key, genome in self.population.items():
            self.buffer.write_genome(key, encode_genome(genome, self.config.neat.genome))

    # -- steps 1-6: inference + fitness -----------------------------------

    def evaluate_population(self) -> int:
        """Run every genome against the environment; returns env steps.

        Genomes are read from the Genome Buffer and mapped on ADAM (step
        1), then rolled out through the shared evaluation core (steps
        2-5, :class:`repro.envs.evaluate.Executor`).  A genome whose
        buffered stream is the one :meth:`evolve_population` decoded is
        not decoded again; any other stream (generation 0, an extinction
        re-seed, one written into the buffer since) is.  With
        ``vectorize`` step 1 is one :func:`build_inference_plan` call that
        compiles the whole generation in the lanes' one pass; the
        rollouts run those tables on lockstep lanes, and ADAM's counters
        are charged exactly through one :class:`StackedAdamEnvelope` read
        off the same tables (per-pass costs are static per plan, so cost
        = per-pass x steps in pure integer arithmetic).  Without it each
        resident is compiled by :meth:`InferencePlan.create` and the
        scalar walk drives each plan on ADAM itself, charging pass by
        pass.  Both compute the same plans with the same arithmetic, so
        they are bit-identical.
        """
        genome_cfg = self.config.neat.genome
        keys = sorted(self.population)
        # Step 1: genomes are read from the buffer and mapped on ADAM.
        residents = [self._resident(key) for key in keys]
        seed, generation = self.config.seed, self.generation
        tasks = [
            (g, [episode_seed(seed, generation, g.key, e)
                 for e in range(self.episodes)])
            for g in residents
        ]
        if self.vectorize:
            stacked = build_inference_plan(residents, genome_cfg)
            outcomes, _ = self._executor.lanes(tasks, genome_cfg, stacked)
            with telemetry.span("soc.envelope_charge", genomes=len(residents)):
                envelope = StackedAdamEnvelope(stacked, self.adam.config)
                envelope.charge(self.adam.stats, [steps for _, _, steps, _ in outcomes])
        else:
            plan_of = {g.key: InferencePlan.create(g, genome_cfg) for g in residents}
            outcomes = self._executor.scalar(
                tasks, genome_cfg,
                lambda genome, _config: AdamNetwork(self.adam, plan_of[genome.key]),
            )
        totals = EvaluationTotals()
        genomes = [self.population[key] for key in keys]
        reduce_outcomes(genomes, outcomes, totals)
        for genome in genomes:
            # Step 6: fitness augmented to the genome in SRAM.
            self.buffer.set_fitness(genome.key, genome.fitness)
        return totals.steps

    def _resident(self, key: int) -> Genome:
        """Read genome ``key`` from the buffer and return its decoded view."""
        stream = self.buffer.read_genome(key)
        decoded = self._decoded.get(key)
        # The buffer hands back the very tuple EvE wrote until the genome
        # is written again.
        if decoded is not None and decoded[0] is stream:
            return decoded[1]
        return decode_genome(stream, key, self.config.neat.genome)

    # -- steps 7-10: selection + evolution ------------------------------------

    def evolve_population(self) -> Optional[EvolutionResult]:
        """Select parents on the CPU, reproduce on EvE, refresh the buffer."""
        outcome = self.selector.select(self.population, self.buffer, self.generation)
        self._last_selection = outcome
        if outcome.plan is None:
            # Complete extinction: the CPU re-seeds a fresh population.
            self.initialise_population()
            return None
        result = self.eve.reproduce_generation(
            self.buffer, outcome.plan.events, outcome.plan.elite_keys
        )
        genome_cfg = self.config.neat.genome
        new_population: Dict[int, Genome] = {}
        for child_key, stream in result.children.items():
            new_population[child_key] = decode_genome(stream, child_key, genome_cfg)
        self._decoded = {
            key: (stream, new_population[key])
            for key, stream in result.children.items()
        }
        # Retire the previous generation from the buffer ("overwriting the
        # genomes from the previous generation", step 10).
        for old_key in list(self.buffer.resident_genomes()):
            if old_key not in new_population:
                self.buffer.delete_genome(old_key)
        self.population = new_population
        return result

    # -- one full generation ----------------------------------------------------

    def run_generation(self) -> GenerationReport:
        if not self.population:
            self.initialise_population()

        evaluated = self.population
        env_steps = self.evaluate_population()
        inference = self.adam.reset_stats()

        with telemetry.span("soc.evolve", generation=self.generation):
            evolution = self.evolve_population()
        if evolution is None:
            evolution = EvolutionResult()
        selection = self._last_selection
        stats = summarise_generation(
            self.generation, evaluated, selection.num_species, selection.plan
        )
        if self.best_genome is None or self.best_genome.fitness < stats.best_fitness:
            self.best_genome = evaluated[stats.best_key].copy()

        ledger = EnergyLedger(
            eve_pe_cycles=evolution.pe_stats.busy_cycles,
            adam_macs=inference.macs,
            sram_reads=self.buffer.stats.reads,
            sram_writes=self.buffer.stats.writes,
            dram_accesses=self.buffer.stats.dram_reads + self.buffer.stats.dram_writes,
            noc_gene_hops=evolution.noc_stats.genes_delivered,
            m0_cycles=selection.cpu_cycles + inference.vectorize_cycles,
        )
        self.buffer.reset_stats()

        report = GenerationReport(
            generation=self.generation,
            stats=stats,
            inference=inference,
            evolution=evolution,
            env_steps=env_steps,
            inference_cycles=inference.total_cycles,
            evolution_cycles=evolution.cycles,
            energy=ledger,
            frequency_hz=self.config.frequency_hz,
        )
        self.reports.append(report)
        self.generation += 1
        return report
