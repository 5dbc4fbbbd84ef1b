"""Workload characterisation harness (Section III, Figs. 4-5 and 11a).

Runs software NEAT over the environment suite — multiple seeds per
environment, as the paper's distributions are "across all generations till
convergence and 100 separate runs" — and extracts every series/distribution
the characterisation figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api.spec import ExperimentSpec
from ..core.trace import TraceRecorder
from ..envs.registry import make
from ..neat.population import meets_threshold


@dataclass
class RunCharacterisation:
    """Per-generation series for one (env, seed) run."""

    env_id: str
    seed: int
    best_fitness: List[float] = field(default_factory=list)
    mean_fitness: List[float] = field(default_factory=list)
    num_genes: List[int] = field(default_factory=list)
    num_nodes: List[int] = field(default_factory=list)
    num_connections: List[int] = field(default_factory=list)
    ops: List[int] = field(default_factory=list)
    footprint_bytes: List[int] = field(default_factory=list)
    parent_reuse: List[int] = field(default_factory=list)
    converged_at: Optional[int] = None

    @property
    def generations(self) -> int:
        return len(self.best_fitness)


def _mean_across_runs(series: List[List[float]]) -> List[float]:
    """Per-generation mean over runs; a shorter run holds its last value."""
    return [
        sum(s[min(i, len(s) - 1)] for s in series) / len(series)
        for i in range(max(len(s) for s in series))
    ]


@dataclass
class EnvCharacterisation:
    """All runs of one environment."""

    env_id: str
    runs: List[RunCharacterisation] = field(default_factory=list)

    # -- Fig. 4(a): normalised fitness ------------------------------------

    def normalised_fitness_curves(self) -> List[List[float]]:
        """Each run's best fitness normalised to [0, 1] over its range.

        A flat run (already at its best from generation 0) normalises to
        all-ones rather than all-zeros.
        """
        curves = []
        for run in self.runs:
            lo = min(run.best_fitness)
            hi = max(run.best_fitness)
            if hi == lo:
                curves.append([1.0] * len(run.best_fitness))
                continue
            span = hi - lo
            curves.append([(f - lo) / span for f in run.best_fitness])
        return curves

    def mean_normalised_fitness(self) -> List[float]:
        return _mean_across_runs(self.normalised_fitness_curves())

    # -- Fig. 4(b)/(c), Fig. 5, Fig. 11(a) --------------------------------

    def gene_count_series(self) -> List[float]:
        return _mean_across_runs([r.num_genes for r in self.runs])

    def ops_distribution(self) -> List[int]:
        """All per-generation op counts pooled across runs (Fig. 5a)."""
        return [op for run in self.runs for op in run.ops if op > 0]

    def footprint_distribution(self) -> List[int]:
        return [fp for run in self.runs for fp in run.footprint_bytes]

    def reuse_distribution(self) -> List[int]:
        return [r for run in self.runs for r in run.parent_reuse if r > 0]

    def composition(self) -> Dict[str, float]:
        """Final node/connection split averaged over runs (Fig. 11a)."""
        nodes = [r.num_nodes[-1] for r in self.runs if r.num_nodes]
        conns = [r.num_connections[-1] for r in self.runs if r.num_connections]
        return {
            "nodes": sum(nodes) / len(nodes) if nodes else 0.0,
            "connections": sum(conns) / len(conns) if conns else 0.0,
        }


def characterise_env(
    env_id: str,
    runs: int = 3,
    generations: int = 20,
    pop_size: int = 50,
    episodes: int = 1,
    max_steps: Optional[int] = None,
    base_seed: int = 0,
) -> EnvCharacterisation:
    """Run NEAT ``runs`` times on ``env_id``, recording all Fig. 4/5 series.

    Scaled-down defaults (the paper uses pop 150 and 100 runs) keep the
    benches laptop-fast; the shapes are already stable at this scale.
    Each run is a :class:`TraceRecorder` run over the whole generation
    budget (``max_steps`` caps can make the solve threshold trivial);
    ``converged_at`` marks the first generation whose best fitness met
    the environment's solve threshold.
    """
    threshold = getattr(make(env_id), "solve_threshold", None)
    result = EnvCharacterisation(env_id=env_id)
    for run_index in range(runs):
        seed = base_seed + 1000 * run_index
        trace = TraceRecorder(ExperimentSpec(
            env_id, pop_size=pop_size, episodes=episodes,
            max_steps=max_steps, seed=seed,
        )).record(generations)
        best = [m.best_fitness for m in trace.metrics]
        workloads = trace.workloads
        result.runs.append(RunCharacterisation(
            env_id=env_id,
            seed=seed,
            best_fitness=best,
            mean_fitness=[m.mean_fitness for m in trace.metrics],
            num_genes=[w.total_genes for w in workloads],
            num_nodes=[w.total_nodes for w in workloads],
            num_connections=[w.total_connections for w in workloads],
            ops=[w.evolution_ops for w in workloads],
            footprint_bytes=[w.footprint_bytes for w in workloads],
            parent_reuse=[w.fittest_parent_reuse for w in workloads],
            converged_at=next(
                (gen for gen, fitness in enumerate(best)
                 if meets_threshold(fitness, threshold)),
                None,
            ),
        ))
    return result

