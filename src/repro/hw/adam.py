"""ADAM — Accelerator for Dense Addition & Multiplication (Section IV-D).

ADAM evaluates the irregular NNs evolved by EvE "by posing the individual
vector-vector multiplications into a packed matrix-vector multiplication
problem" on a systolic array of MAC units (32x32 in the paper's
implementation).  The serial task of "picking the ready node values to
create input vectors" — the *vectorize* routine — runs on the System CPU.

The model here is functional plus cycle-accounted:

* :func:`build_inference_plan` compiles the genome into the one plan
  every engine runs (:func:`repro.neat.compiled.compile_network`) and
  adds each wave's systolic shape: ``m`` vertices updated from ``k``
  distinct sources, with ``macs`` nonzero weights.
* :meth:`ADAM.run` takes a forward pass's values from the plan's scalar
  walk (:meth:`repro.neat.FeedForwardNetwork.activate`), so it is
  bit-identical to the software network and the numpy lanes by
  construction, and charges systolic cycles, CPU vectorize cycles, MAC
  counts and array utilisation wave by wave.

Plans are built once per genome per generation and reused for every
environment step ("the weight matrices do not change within a given
generation, and are reused for multiple inferences, while every new vertex
evaluation requires a new input vector").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..neat.compiled import CompileError, compile_network
from ..neat.config import GenomeConfig
from ..neat.genome import Genome
from ..neat.network import FeedForwardNetwork


class UnsupportedGenomeError(ValueError):
    """Raised for genomes ADAM cannot pack (non-sum aggregation)."""


@dataclass
class ADAMConfig:
    rows: int = 32
    cols: int = 32

    @property
    def num_macs(self) -> int:
        return self.rows * self.cols


@dataclass
class WavePlan:
    """One packed matrix-vector wave: ``m`` vertices from ``k`` sources."""

    m: int
    k: int
    #: Nonzero weights: Q4.4-quantised genomes carry many zero weights,
    #: and only the nonzero ones spend a MAC's energy.
    macs: int

    @property
    def dense_macs(self) -> int:
        """MAC slots of the packed ``m x max(1, k)`` matrix."""
        return self.m * max(1, self.k)


@dataclass
class InferencePlan:
    """Per-genome execution plan (built once per generation)."""

    network: FeedForwardNetwork
    waves: List[WavePlan]

    @property
    def macs_per_pass(self) -> int:
        return sum(w.macs for w in self.waves)

    @property
    def weight_words(self) -> int:
        """64-bit words of packed weights resident for this plan."""
        return sum(w.dense_macs for w in self.waves)


@dataclass
class InferenceStats:
    """Cycle/op accounting accumulated across forward passes."""

    passes: int = 0
    macs: int = 0
    dense_macs: int = 0
    array_cycles: int = 0
    vectorize_cycles: int = 0
    waves: int = 0

    @property
    def total_cycles(self) -> int:
        """Array + CPU vectorize serial time (they alternate per wave)."""
        return self.array_cycles + self.vectorize_cycles

    @property
    def utilization(self) -> float:
        """Fraction of MAC-slots doing useful (nonzero) work."""
        if self.dense_macs == 0:
            return 0.0
        return self.macs / self.dense_macs

    def merge(self, other: "InferenceStats") -> None:
        self.passes += other.passes
        self.macs += other.macs
        self.dense_macs += other.dense_macs
        self.array_cycles += other.array_cycles
        self.vectorize_cycles += other.vectorize_cycles
        self.waves += other.waves


def build_inference_plan(genome: Genome, config: GenomeConfig) -> InferencePlan:
    """Compile the genome and take each wave's packed shape.

    Mirrors the vectorize routine: every wave's rows are the vertices
    whose inputs are all ready; its columns are the distinct upstream
    sources actually used, so the matrices are compact (the GPU_a
    strategy the paper describes, done per wave).
    """
    try:
        network = compile_network(genome, config)
    except CompileError as exc:
        raise UnsupportedGenomeError(str(exc)) from None
    waves = [
        WavePlan(
            m=layer.num_nodes,
            k=len({col for links in layer.links for col, _ in links}),
            macs=sum(1 for links in layer.links for _, weight in links if weight != 0.0),
        )
        for layer in network.layers
    ]
    return InferencePlan(network=network, waves=waves)


class StackedAdamEnvelope:
    """A population's inference plans stacked into one cost envelope.

    The serial :meth:`ADAM.run` charges cycles wave by wave, once per
    forward pass per genome — a Python loop over every (genome, step,
    wave) triple.  Because the plans do not change within a generation,
    every per-pass cost is static: this envelope stacks the population's
    wave shapes into ``(genomes, depth)`` integer arrays and evaluates
    the same systolic-tiling formula with numpy array ops, so a whole
    generation is costed in a handful of vectorised expressions.

    The arithmetic is integer end to end, therefore *exactly* equal to
    the serial accounting: ``charge(stats, passes)`` merges the same
    totals :meth:`ADAM.run` would have accumulated had it executed
    ``passes[g]`` forward passes of genome ``g``.
    """

    def __init__(
        self, plans: Sequence[InferencePlan], config: Optional[ADAMConfig] = None
    ) -> None:
        self.config = config or ADAMConfig()
        self.plans = list(plans)
        num = len(self.plans)
        depth = max((len(p.waves) for p in self.plans), default=0)
        shape = (num, max(1, depth))
        m = np.zeros(shape, dtype=np.int64)  # vertices updated per wave
        k = np.zeros(shape, dtype=np.int64)  # distinct sources per wave
        macs = np.zeros(shape, dtype=np.int64)
        dense = np.zeros(shape, dtype=np.int64)
        for g, plan in enumerate(self.plans):
            for l, wave in enumerate(plan.waves):
                m[g, l] = wave.m
                k[g, l] = wave.k
                macs[g, l] = wave.macs
                dense[g, l] = wave.dense_macs
        rows, cols = self.config.rows, self.config.cols
        # Output-stationary tiling, identical to ADAM.systolic_cycles;
        # padded slots have m == k == 0 and so tile to zero cycles.
        row_tiles = -(-m // rows)
        col_tiles = -(-k // cols)
        wave_cycles = row_tiles * col_tiles * (np.minimum(cols, k) + rows)
        #: Per genome: systolic array cycles for one forward pass.
        self.array_cycles_per_pass = wave_cycles.sum(axis=1)
        #: Per genome: CPU vectorize cycles (one per packed element).
        self.vectorize_cycles_per_pass = k.sum(axis=1)
        self.macs_per_pass = macs.sum(axis=1)
        self.dense_macs_per_pass = dense.sum(axis=1)
        self.waves_per_pass = np.array(
            [len(p.waves) for p in self.plans], dtype=np.int64
        )

    def __len__(self) -> int:
        return len(self.plans)

    def charge(self, stats: InferenceStats, passes: Sequence[int]) -> None:
        """Merge the cost of ``passes[g]`` forward passes per genome.

        Bit-identical to running :meth:`ADAM.run` that many times per
        plan: every counter is a per-pass integer scaled by an integer
        pass count.
        """
        p = np.asarray(passes, dtype=np.int64)
        if p.shape != (len(self.plans),):
            raise ValueError(
                f"expected {len(self.plans)} pass counts, got shape {p.shape}"
            )
        stats.passes += int(p.sum())
        stats.macs += int((self.macs_per_pass * p).sum())
        stats.dense_macs += int((self.dense_macs_per_pass * p).sum())
        stats.array_cycles += int((self.array_cycles_per_pass * p).sum())
        stats.vectorize_cycles += int((self.vectorize_cycles_per_pass * p).sum())
        stats.waves += int((self.waves_per_pass * p).sum())


class ADAM:
    """The systolic inference engine."""

    def __init__(self, config: Optional[ADAMConfig] = None) -> None:
        self.config = config or ADAMConfig()
        self.stats = InferenceStats()

    def systolic_cycles(self, m: int, k: int) -> int:
        """Cycles for an (m x k) @ (k,) product on the rows x cols array.

        Output-stationary tiling: each (rows x cols) tile streams its k-
        slice and drains; fill/drain overhead is rows + cols per tile.
        """
        rows, cols = self.config.rows, self.config.cols
        row_tiles = (m + rows - 1) // rows
        col_tiles = (k + cols - 1) // cols
        return row_tiles * col_tiles * (min(cols, k) + rows)

    def run(self, plan: InferencePlan, inputs: Sequence[float]) -> List[float]:
        """One forward pass (walkthrough step 3).

        The values come from the plan's scalar walk; each wave charges
        the CPU packing its input vector (one cycle per element — "a task
        with heavy serialization") and one firing of the systolic array.
        """
        outputs = plan.network.activate(inputs)
        stats = self.stats
        for wave in plan.waves:
            stats.array_cycles += self.systolic_cycles(wave.m, wave.k)
            stats.vectorize_cycles += wave.k
            stats.macs += wave.macs
            stats.dense_macs += wave.dense_macs
            stats.waves += 1
        stats.passes += 1
        return outputs

    def reset_stats(self) -> InferenceStats:
        stats = self.stats
        self.stats = InferenceStats()
        return stats


class AdamNetwork:
    """One genome's plan mapped on an :class:`ADAM`, driven like a network.

    Speaks the ``activate``/``reset``/``num_macs`` protocol of
    :class:`repro.neat.network.FeedForwardNetwork`, so the scalar episode
    loop (:func:`repro.envs.evaluate.run_episode`) runs genomes on the
    accelerator model; every forward pass charges the engine's counters.
    """

    def __init__(self, adam: ADAM, plan: InferencePlan) -> None:
        self.adam = adam
        self.plan = plan
        self.num_macs = plan.macs_per_pass

    def activate(self, inputs: Sequence[float]) -> List[float]:
        return self.adam.run(self.plan, inputs)

    def reset(self) -> None:
        """Nothing to clear: vertex values live for one pass only."""
