"""Trace-replay point evaluator: hardware axes at generation granularity.

The paper's Fig. 11 methodology replays one *recorded* reproduction plan
through the cycle-level EvE model under different hardware
configurations — same genomes, same reproduction events, different
silicon.  :func:`eve_replay_evaluator` packages that methodology as a
:class:`repro.dse.SweepRunner` evaluator, so the single-generation
hardware ablations (``examples/hw_design_space.py``,
``benchmarks/bench_fig11_design_space.py``) run through the same axis
expansion and tabulation as full-experiment sweeps.

The evaluator honours the unified platform axes that affect the EvE
reproduction pass (``platform.eve_pes``, ``platform.noc``,
``platform.scheduler``); ``platform.adam_shape`` parameterises
inference, which a reproduction replay does not execute.
"""

from __future__ import annotations

from typing import Any, Dict

from ..hw.energy import SRAM_ACCESS_ENERGY_PJ
from ..hw.eve import EvEConfig, EvolutionEngine
from ..hw.gene_encoding import encode_genome
from ..hw.sram import GenomeBuffer
from .runner import PointEvaluator
from .spec import SweepPoint

#: Cache identity for sweeps that want to memoise replay points.
EVE_REPLAY_EVALUATOR = "eve-replay-v1"


def eve_replay_evaluator(
    config, population, plan, eve_seed: int = 1
) -> PointEvaluator:
    """An evaluator replaying ``plan`` over ``population``'s genomes.

    ``config`` is the :class:`repro.neat.NEATConfig` the population was
    evolved under; ``plan`` a
    :meth:`repro.neat.reproduction.Reproduction.plan_generation` result.
    Each point gets a fresh :class:`GenomeBuffer` and a fresh
    :class:`EvolutionEngine` seeded with ``eve_seed``, so points are
    independent and deterministic.
    """

    def evaluate(point: SweepPoint) -> Dict[str, Any]:
        eve_kwargs = {
            eve_field: point.axes[f"platform.{field}"]
            for field, eve_field in (
                ("eve_pes", "num_pes"), ("noc", "noc"),
                ("scheduler", "scheduler"),
            )
            if point.axes.get(f"platform.{field}") is not None
        }
        buffer = GenomeBuffer()
        for key, genome in population.items():
            buffer.write_genome(key, encode_genome(genome, config.genome))
            buffer.set_fitness(key, genome.fitness)
        eve = EvolutionEngine(EvEConfig(seed=eve_seed, **eve_kwargs))
        result = eve.reproduce_generation(buffer, plan.events, plan.elite_keys)
        return {
            "waves": result.waves,
            "cycles": result.cycles,
            "sram_reads": result.sram_reads,
            "sram_writes": result.sram_writes,
            "sram_energy_uj": (result.sram_reads + result.sram_writes)
            * SRAM_ACCESS_ENERGY_PJ * 1e-6,
            "reads_per_cycle": result.noc_stats.reads_per_cycle,
            "multicast_hits": result.noc_stats.multicast_hits,
        }

    return evaluate
