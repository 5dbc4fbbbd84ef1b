"""Reproduction-op traces and per-generation workload records.

Section VI-A methodology: "we ... modify the code to optimize for runtime
and energy efficiency ... and to generate a trace of reproduction
operations for the various workloads ... Each line on the trace captures
the generation, the child gene and genome id, the type of operation -
mutation or crossover, and the parameters changed ... These traces serve
as proxy for our workloads when we evaluate EVE and ADAM implementations."

:class:`GenerationWorkload` is the aggregate form every platform model
consumes; :class:`TraceRecorder` instruments a software NEAT run to
produce both the per-op trace lines and the workload aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List

from ..envs.registry import make
from ..neat.config import NEATConfig
from ..neat.genome import MutationCounts
from ..neat.network import feed_forward_layers
from ..neat.population import Population
from ..neat.statistics import GENE_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..api.result import GenerationMetrics
    from ..api.spec import ExperimentSpec


@dataclass
class TraceLine:
    """One reproduction op, in the paper's trace format."""

    generation: int
    genome_id: int
    op: str  # "crossover" | "perturb" | "add_node" | "del_node" | "add_conn" | "del_conn"
    count: int

    def format(self) -> str:
        return f"{self.generation},{self.genome_id},{self.op},{self.count}"


@dataclass
class GenerationWorkload:
    """Everything a platform model needs about one generation."""

    generation: int
    population: int
    total_nodes: int
    total_connections: int
    ops: MutationCounts
    env_steps: int
    inference_macs: int
    mean_network_depth: float
    fittest_parent_reuse: int

    @property
    def total_genes(self) -> int:
        return self.total_nodes + self.total_connections

    @property
    def footprint_bytes(self) -> int:
        """Fig. 5(b): bytes to hold all genes of the generation."""
        return self.total_genes * GENE_BYTES

    @property
    def evolution_ops(self) -> int:
        return self.ops.total

    @property
    def mean_genome_genes(self) -> float:
        return self.total_genes / self.population if self.population else 0.0


@dataclass
class WorkloadTrace:
    """A full run's workloads plus op trace lines."""

    env_id: str
    workloads: List[GenerationWorkload] = field(default_factory=list)
    lines: List[TraceLine] = field(default_factory=list)
    #: the run's per-generation metrics rows (best/mean fitness and the
    #: rest); like the workloads, not persisted by :meth:`save`
    metrics: List["GenerationMetrics"] = field(default_factory=list)

    def iter_lines(self) -> Iterator[str]:
        for line in self.lines:
            yield line.format()

    @property
    def generations(self) -> int:
        return len(self.workloads)

    def save(self, path) -> None:
        """Write the op trace in the paper's line format, with a header.

        "Each line on the trace captures the generation, the child ...
        genome id, the type of operation ... These traces serve as proxy
        for our workloads" (Section VI-A).
        """
        from pathlib import Path

        out = [f"# workload trace: {self.env_id}",
               "# generation,genome_id,op,count"]
        out.extend(self.iter_lines())
        Path(path).write_text("\n".join(out) + "\n")

    @classmethod
    def load(cls, path) -> "WorkloadTrace":
        """Read back a trace file (op lines only; workload aggregates are
        not persisted — re-record for those)."""
        from pathlib import Path

        trace = cls(env_id="unknown")
        for raw in Path(path).read_text().splitlines():
            if raw.startswith("# workload trace:"):
                trace.env_id = raw.split(":", 1)[1].strip()
                continue
            if not raw or raw.startswith("#"):
                continue
            generation, genome_id, op, count = raw.split(",")
            trace.lines.append(
                TraceLine(
                    generation=int(generation),
                    genome_id=int(genome_id),
                    op=op,
                    count=int(count),
                )
            )
        return trace

    def mean_workload(self) -> GenerationWorkload:
        """Average generation (used for the per-generation bars of Fig. 9)."""
        if not self.workloads:
            raise ValueError("empty trace")
        n = len(self.workloads)
        ops = MutationCounts()
        for w in self.workloads:
            ops.merge(w.ops)
        ops = MutationCounts(
            crossovers=ops.crossovers // n,
            perturbations=ops.perturbations // n,
            node_additions=ops.node_additions // n,
            node_deletions=ops.node_deletions // n,
            conn_additions=ops.conn_additions // n,
            conn_deletions=ops.conn_deletions // n,
        )
        return GenerationWorkload(
            generation=-1,
            population=round(sum(w.population for w in self.workloads) / n),
            total_nodes=round(sum(w.total_nodes for w in self.workloads) / n),
            total_connections=round(
                sum(w.total_connections for w in self.workloads) / n
            ),
            ops=ops,
            env_steps=round(sum(w.env_steps for w in self.workloads) / n),
            inference_macs=round(sum(w.inference_macs for w in self.workloads) / n),
            mean_network_depth=sum(w.mean_network_depth for w in self.workloads) / n,
            fittest_parent_reuse=round(
                sum(w.fittest_parent_reuse for w in self.workloads) / n
            ),
        )


def _mean_depth(population, genome_config) -> float:
    """Average levelised depth across genomes (waves per forward pass)."""
    depths = []
    for genome in population.values():
        enabled = [k for k, c in genome.connections.items() if c.enabled]
        try:
            layers = feed_forward_layers(
                genome_config.input_keys, genome_config.output_keys, enabled
            )
            depths.append(len(layers))
        except ValueError:
            depths.append(1)
    return sum(depths) / len(depths) if depths else 0.0


class TraceRecorder:
    """Runs a spec's software NEAT (its scenario included), recording
    the workload trace.

    This mirrors the paper's modified neat-python: the run is the real
    algorithm; the recorder only observes.
    """

    def __init__(self, spec: ExperimentSpec) -> None:
        env = make(spec.env_id)
        # No solve-threshold fallback (unlike config_for_env): without a
        # threshold a trace covers its whole generation budget.
        self.config = NEATConfig.for_env(
            env.num_observations,
            max(2, env.num_actions),
            pop_size=spec.pop_size,
            fitness_threshold=spec.fitness_threshold,
        )
        self.spec = spec

    def record(self, generations: int) -> WorkloadTrace:
        """Run up to ``generations`` generations through the api
        generation loop, collecting each generation's metrics row and
        workload and turning each reproduction plan into op lines."""
        from ..api.backends import _run_software_loop, _SoftwareGenerations

        spec = self.spec.replace(max_generations=generations)
        trace = WorkloadTrace(env_id=spec.env_id)

        def on_state(population: Population) -> None:
            plan = population.last_plan
            for event in plan.events:
                counts = event.counts
                for op, count in (
                    ("crossover", counts.crossovers),
                    ("perturb", counts.perturbations),
                    ("add_node", counts.node_additions),
                    ("del_node", counts.node_deletions),
                    ("add_conn", counts.conn_additions),
                    ("del_conn", counts.conn_deletions),
                ):
                    if count:
                        trace.lines.append(TraceLine(
                            generation=plan.generation,
                            genome_id=event.child_key,
                            op=op,
                            count=count,
                        ))

        substrate = _SoftwareGenerations(
            spec, self.config,
            on_workload=lambda _row, workload: trace.workloads.append(workload),
        )
        _run_software_loop(
            spec, substrate, "software",
            on_generation=trace.metrics.append, on_state=on_state,
        )
        return trace
