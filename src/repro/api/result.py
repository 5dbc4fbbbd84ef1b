"""The unified result record every backend returns.

Backends differ in what they can measure — the software path counts env
steps and MACs, the SoC model adds cycles and joules, the analytical
platform models add modelled runtime/energy — but they all report through
the same :class:`RunResult` so analysis code never needs to know which
substrate produced a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..neat.genome import Genome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.soc import GenerationReport, GeneSysSoC
    from ..neat.config import NEATConfig
    from ..neat.population import Population
    from ..neat.statistics import GenerationStats
    from .spec import ExperimentSpec


@dataclass
class GenerationMetrics:
    """One generation as every backend reports it.

    ``energy_j``/``cycles``/``runtime_s`` stay ``None`` on backends that
    cannot measure them (the software path has no energy model).
    """

    generation: int
    best_fitness: float
    mean_fitness: float
    num_species: int
    num_genes: int
    footprint_bytes: int
    env_steps: int = 0
    inference_macs: int = 0
    energy_j: Optional[float] = None
    cycles: Optional[int] = None
    runtime_s: Optional[float] = None
    #: Curriculum/scenario columns, set only on scenario runs: the stage
    #: this generation was evaluated under, how far the champion sits
    #: below its pre-switch best, and (once, on the generation it first
    #: happens) how many generations recovery took.
    scenario_stage: Optional[int] = None
    scenario_forgetting: Optional[float] = None
    scenario_recovery: Optional[int] = None

    @classmethod
    def from_stats(cls, stats: "GenerationStats", **measured) -> "GenerationMetrics":
        """The row of one generation: its summary (:func:`repro.neat.
        statistics.summarise_generation`) plus what the substrate
        measured (``env_steps``, ``inference_macs``, energy, ...)."""
        return cls(
            generation=stats.generation,
            best_fitness=stats.best_fitness,
            mean_fitness=stats.mean_fitness,
            num_species=stats.num_species,
            num_genes=stats.num_genes,
            footprint_bytes=stats.footprint_bytes,
            **measured,
        )

    def to_dict(self) -> Dict[str, Any]:
        # The scenario columns are left out when unset, so non-scenario
        # metrics.jsonl rows stay byte-identical to every earlier release.
        return {
            f.name: value for f in fields(self)
            if (value := getattr(self, f.name)) is not None
            or not f.name.startswith("scenario_")
        }


@dataclass
class RunResult:
    """What :meth:`repro.api.Experiment.run` returns, for every backend.

    ``population``/``soc``/``reports`` expose the substrate objects for
    callers that inspect them (hardware analyses, tests); they are not
    part of the serialisable summary.
    """

    spec: "ExperimentSpec"
    backend: str
    champion: Genome
    generations: int
    converged: bool
    metrics: List[GenerationMetrics] = field(default_factory=list)
    #: The run ended at a ``should_stop`` boundary before its budget or
    #: threshold — a cooperative preemption, not a completed run.
    stopped_early: bool = False
    neat_config: Optional["NEATConfig"] = None
    total_energy_j: Optional[float] = None
    total_cycles: Optional[int] = None
    total_runtime_s: Optional[float] = None
    reports: Optional[List["GenerationReport"]] = None
    population: Optional["Population"] = None
    soc: Optional["GeneSysSoC"] = None

    @property
    def best_fitness(self) -> float:
        return self.champion.fitness if self.champion.fitness is not None else float("-inf")

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly run summary (spec + outcomes + per-gen metrics)."""
        return {
            "spec": self.spec.to_dict(),
            "backend": self.backend,
            "generations": self.generations,
            "converged": self.converged,
            "best_fitness": self.best_fitness,
            "total_energy_j": self.total_energy_j,
            "total_cycles": self.total_cycles,
            "total_runtime_s": self.total_runtime_s,
            "metrics": [m.to_dict() for m in self.metrics],
        }
