"""ADAM — Accelerator for Dense Addition & Multiplication (Section IV-D).

ADAM evaluates the irregular NNs evolved by EvE "by posing the individual
vector-vector multiplications into a packed matrix-vector multiplication
problem" on a systolic array of MAC units (32x32 in the paper's
implementation).  The serial task of "picking the ready node values to
create input vectors" — the *vectorize* routine — runs on the System CPU.

The model here is functional plus cycle-accounted, in two shapes:

* A generation at once.  :func:`build_inference_plan` is walkthrough step
  1: it compiles every resident genome in the lanes' one array pass
  (:class:`repro.neat.compiled.StackedPlans`), and
  :class:`StackedAdamEnvelope` reads each (plan, wave)'s systolic shape
  off those tables — ``m`` vertices updated from ``k`` distinct sources,
  with ``macs`` nonzero weights — and charges a generation's passes in a
  few array expressions.
* One genome at a time.  :meth:`InferencePlan.create` compiles a genome
  with :meth:`repro.neat.FeedForwardNetwork.create` and takes the same
  shapes from its layers; :meth:`ADAM.run` takes a forward pass's values
  from the plan's scalar walk, so it is bit-identical to the software
  network and the numpy lanes by construction, and charges systolic
  cycles, CPU vectorize cycles, MAC counts and array utilisation wave by
  wave.

Plans are built once per genome per generation and reused for every
environment step ("the weight matrices do not change within a given
generation, and are reused for multiple inferences, while every new vertex
evaluation requires a new input vector").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..neat.activations import ACTIVATIONS
from ..neat.compiled import StackedPlans, compile_network, unsupported
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
    """One genome's plan on ADAM's scalar path."""

    network: FeedForwardNetwork
    waves: List[WavePlan]

    @property
    def macs_per_pass(self) -> int:
        return sum(w.macs for w in self.waves)

    @classmethod
    def create(cls, genome: Genome, config: GenomeConfig) -> "InferencePlan":
        """Compile ``genome`` and take each wave's packed shape.

        Mirrors the vectorize routine: every wave's rows are the vertices
        whose inputs are all ready; its columns are the distinct upstream
        sources actually used, so the matrices are compact (the GPU_a
        strategy the paper describes, done per wave).
        """
        network = FeedForwardNetwork.create(genome, config)
        for layer in network.layers:
            for activation, aggregation in zip(layer.activations, layer.aggregations):
                if aggregation != "sum" or activation not in ACTIVATIONS:
                    raise UnsupportedGenomeError(
                        unsupported(genome.key, activation, aggregation)
                    )
        waves = [
            WavePlan(
                m=layer.num_nodes,
                k=len({col for links in layer.links for col, _ in links}),
                macs=sum(1 for links in layer.links for _, weight in links if weight != 0.0),
            )
            for layer in network.layers
        ]
        return cls(network=network, waves=waves)


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


def build_inference_plan(
    genomes: Sequence[Genome], config: GenomeConfig
) -> StackedPlans:
    """Walkthrough step 1 for a generation: map every genome on ADAM.

    The genomes are compiled in the lanes' one pass, so the tables the
    lanes roll out are the ones :class:`StackedAdamEnvelope` costs.
    Raises :class:`UnsupportedGenomeError` for the first genome with a
    required node ADAM cannot pack.
    """
    stacked = StackedPlans([compile_network(genome, config) for genome in genomes], config)
    for reason in stacked.fallback.values():
        raise UnsupportedGenomeError(reason)
    return stacked


class StackedAdamEnvelope:
    """A generation's plans stacked into one cost envelope.

    The serial :meth:`ADAM.run` charges cycles wave by wave, once per
    forward pass per genome — a Python loop over every (genome, step,
    wave) triple.  Because the plans do not change within a generation,
    every per-pass cost is static: this envelope reads each (plan, wave)'s
    shape off the lanes' tables into ``(plans, depth)`` integer arrays
    and evaluates the same systolic-tiling formula with numpy array ops,
    so a whole generation is costed in a handful of vectorised
    expressions.  A wave's ``m`` is its code rows that hold a code, its
    ``k`` the distinct columns its link rows read other than the zero
    column, and its ``macs`` its nonzero weights (padding weighs
    ``-0.0``).

    The arithmetic is integer end to end, therefore *exactly* equal to
    the serial accounting: ``charge(stats, passes)`` merges the same
    totals :meth:`ADAM.run` would have accumulated had it executed
    ``passes[g]`` forward passes of plan ``g``.
    """

    def __init__(
        self, stacked: StackedPlans, config: Optional[ADAMConfig] = None
    ) -> None:
        self.config = config or ADAMConfig()
        ints, floats = stacked.ints, stacked.floats
        zero_col = stacked.num_columns - 2
        self.num_plans = ints.shape[1]
        shape = (self.num_plans, max(1, len(stacked.waves)))
        m = np.zeros(shape, dtype=np.int64)  # vertices updated per wave
        k = np.zeros(shape, dtype=np.int64)  # distinct sources per wave
        macs = np.zeros(shape, dtype=np.int64)
        for l, (links, _nodes, _slots, _targets, codes, _act) in enumerate(stacked.waves):
            m[:, l] = np.count_nonzero(ints[codes] >= 0, axis=0)
            sources = np.sort(ints[links], axis=0)
            k[:, l] = (
                1 + np.count_nonzero(sources[1:] != sources[:-1], axis=0)
                - (sources[-1] == zero_col)
            )
            macs[:, l] = np.count_nonzero(floats[links], axis=0)
        rows, cols = self.config.rows, self.config.cols
        # Output-stationary tiling, identical to ADAM.systolic_cycles;
        # padded slots have m == k == 0 and so tile to zero cycles.
        row_tiles = -(-m // rows)
        col_tiles = -(-k // cols)
        wave_cycles = row_tiles * col_tiles * (np.minimum(cols, k) + rows)
        #: Per plan: systolic array cycles for one forward pass.
        self.array_cycles_per_pass = wave_cycles.sum(axis=1)
        #: Per plan: CPU vectorize cycles (one per packed element).
        self.vectorize_cycles_per_pass = k.sum(axis=1)
        self.macs_per_pass = macs.sum(axis=1)
        self.dense_macs_per_pass = (m * np.maximum(1, k)).sum(axis=1)
        self.waves_per_pass = stacked.depths.astype(np.int64)

    def __len__(self) -> int:
        return self.num_plans

    def charge(self, stats: InferenceStats, passes: Sequence[int]) -> None:
        """Merge the cost of ``passes[g]`` forward passes per plan.

        Bit-identical to running :meth:`ADAM.run` that many times per
        plan: every counter is a per-pass integer scaled by an integer
        pass count.
        """
        p = np.asarray(passes, dtype=np.int64)
        if p.shape != (self.num_plans,):
            raise ValueError(
                f"expected {self.num_plans} pass counts, got shape {p.shape}"
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
