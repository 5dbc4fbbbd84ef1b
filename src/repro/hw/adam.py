"""ADAM — Accelerator for Dense Addition & Multiplication (Section IV-D).

ADAM evaluates the irregular NNs evolved by EvE "by posing the individual
vector-vector multiplications into a packed matrix-vector multiplication
problem" on a systolic array of MAC units (32x32 in the paper's
implementation).  The serial task of "picking the ready node values to
create input vectors" — the *vectorize* routine — runs on the System CPU.

The model here is functional plus cycle-accounted, a generation at a
time.  :func:`build_inference_plan` is walkthrough step 1: it compiles
every resident genome in the lanes' one array pass
(:class:`repro.neat.compiled.StackedPlans`), and the lanes that roll
those tables out give ADAM's forward-pass values.
:class:`StackedAdamEnvelope` reads each (plan, wave)'s systolic shape off
the same tables — ``m`` vertices updated from ``k`` distinct sources,
with ``macs`` nonzero weights — and charges a generation's systolic
cycles (:func:`systolic_cycles`), CPU vectorize cycles, MAC counts and
array utilisation in a few array expressions.

Every pass of a plan costs the same, because "the weight matrices do not
change within a given generation, and are reused for multiple
inferences, while every new vertex evaluation requires a new input
vector".  ``tests/neat_reference.py`` keeps the walkthrough genome by
genome as a test oracle, charging ADAM pass by pass in plain integers,
and the soc's counters are pinned to it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..neat.compiled import StackedPlans, compile_network
from ..neat.config import GenomeConfig
from ..neat.genome import Genome


class UnsupportedGenomeError(ValueError):
    """Raised for genomes ADAM cannot pack (non-sum aggregation)."""


@dataclass
class ADAMConfig:
    rows: int = 32
    cols: int = 32

    @property
    def num_macs(self) -> int:
        return self.rows * self.cols


def systolic_cycles(m, k, config: ADAMConfig):
    """Cycles for an (m x k) @ (k,) product on the rows x cols array.

    Output-stationary tiling: each (rows x cols) tile streams its k-
    slice and drains; fill/drain overhead is rows + cols per tile.
    ``m`` and ``k`` are integers or integer arrays of one shape; an
    empty wave (``m == k == 0``) tiles to zero cycles.
    """
    rows, cols = config.rows, config.cols
    return -(-m // rows) * -(-k // cols) * (np.minimum(cols, k) + rows)


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

    Because the plans do not change within a generation, every per-pass
    cost is static: this envelope reads each (plan, wave)'s shape off the
    lanes' tables into ``(plans, depth)`` integer arrays and tiles them
    with :func:`systolic_cycles`, so a whole generation is costed in a
    handful of vectorised expressions.  A wave's ``m`` is its code rows
    that hold a code, its ``k`` the distinct columns its link rows read
    other than the zero column, and its ``macs`` its nonzero weights
    (padding weighs ``-0.0``).

    The arithmetic is integer end to end: ``charge(stats, passes)``
    merges exactly the totals that ``passes[g]`` forward passes of plan
    ``g``, charged one by one, would accumulate.
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
        #: Per plan: systolic array cycles for one forward pass.
        self.array_cycles_per_pass = systolic_cycles(m, k, self.config).sum(axis=1)
        #: Per plan: CPU vectorize cycles (one per packed element).
        self.vectorize_cycles_per_pass = k.sum(axis=1)
        self.macs_per_pass = macs.sum(axis=1)
        self.dense_macs_per_pass = (m * np.maximum(1, k)).sum(axis=1)
        self.waves_per_pass = stacked.depths.astype(np.int64)

    def __len__(self) -> int:
        return self.num_plans

    def charge(self, stats: InferenceStats, passes: Sequence[int]) -> None:
        """Merge the cost of ``passes[g]`` forward passes per plan.

        Every counter is a per-pass integer scaled by an integer pass
        count, so the totals are exact.
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
    """The systolic inference engine: its array shape and the counters a
    generation's forward passes accumulate."""

    def __init__(self, config: Optional[ADAMConfig] = None) -> None:
        self.config = config or ADAMConfig()
        self.stats = InferenceStats()

    def reset_stats(self) -> InferenceStats:
        stats = self.stats
        self.stats = InferenceStats()
        return stats
