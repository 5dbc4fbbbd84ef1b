"""Alternative dataflow: spreading one genome across multiple PEs.

Footnote 2 of the paper: "It is possible to spread the genome across
multiple PEs as well but might lead to different genes of a genome
arriving out-of-order at the Gene Merge block complicating its
implementation."  The shipped design assigns one PE per child; this
module models the alternative analytically so the trade-off can be
quantified (an ablation the paper alludes to but does not plot).

Model: the child's aligned parent stream of ``L`` gene pairs is cut into
``k`` contiguous segments processed on ``k`` PEs concurrently.

* segment time: ``ceil(L / k)`` cycles (+ the same 2-cycle config and
  4-stage drain per PE),
* Gene Merge must re-establish global order across segments: a reorder
  buffer charges ``reorder_cost_per_gene`` extra cycles per gene for
  ``k > 1``,
* a generation fits ``num_pes // k`` children at a time, so waves grow
  as ``k`` grows — per-child *latency* falls, generation *throughput*
  can fall too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .pe import CONFIG_LOAD_CYCLES, PIPELINE_DEPTH

#: Extra merge cycles per gene once segments arrive out of order.
DEFAULT_REORDER_COST_PER_GENE = 0.25


@dataclass
class SplitDataflowEstimate:
    pes_per_child: int
    child_latency_cycles: int
    merge_overhead_cycles: int
    generation_cycles: int
    waves: int
    pe_slots_wasted: int


def child_latency(
    stream_length: int,
    pes_per_child: int,
    reorder_cost_per_gene: float = DEFAULT_REORDER_COST_PER_GENE,
) -> SplitDataflowEstimate:
    """Latency of producing one child with ``pes_per_child`` PEs."""
    if pes_per_child < 1:
        raise ValueError("pes_per_child must be >= 1")
    segment = math.ceil(stream_length / pes_per_child)
    latency = CONFIG_LOAD_CYCLES + segment + PIPELINE_DEPTH
    merge = (
        math.ceil(stream_length * reorder_cost_per_gene)
        if pes_per_child > 1
        else 0
    )
    return SplitDataflowEstimate(
        pes_per_child=pes_per_child,
        child_latency_cycles=latency,
        merge_overhead_cycles=merge,
        generation_cycles=latency + merge,
        waves=1,
        pe_slots_wasted=0,
    )


def generation_estimate(
    stream_lengths: Sequence[int],
    num_pes: int,
    pes_per_child: int,
    reorder_cost_per_gene: float = DEFAULT_REORDER_COST_PER_GENE,
) -> SplitDataflowEstimate:
    """Makespan of a whole generation under the split dataflow.

    Children are packed ``num_pes // pes_per_child`` at a time (longest
    first); each wave's time is its slowest child's latency + merge.
    """
    if pes_per_child < 1 or num_pes < 1:
        raise ValueError("num_pes and pes_per_child must be >= 1")
    if pes_per_child > num_pes:
        raise ValueError("pes_per_child cannot exceed num_pes")
    slots = num_pes // pes_per_child
    ordered = sorted(stream_lengths, reverse=True)
    waves = [ordered[i : i + slots] for i in range(0, len(ordered), slots)]
    total = 0
    latency_max = 0
    merge_total = 0
    for wave in waves:
        worst = child_latency(wave[0], pes_per_child, reorder_cost_per_gene)
        total += worst.generation_cycles
        latency_max = max(latency_max, worst.child_latency_cycles)
        merge_total += worst.merge_overhead_cycles
    wasted = 0
    if waves:
        wasted = slots * len(waves) - len(ordered)
    return SplitDataflowEstimate(
        pes_per_child=pes_per_child,
        child_latency_cycles=latency_max,
        merge_overhead_cycles=merge_total,
        generation_cycles=total,
        waves=len(waves),
        pe_slots_wasted=wasted * pes_per_child,
    )


def sweep_pes_per_child(
    stream_lengths: Sequence[int],
    num_pes: int,
    k_values: Sequence[int] = (1, 2, 4, 8),
    reorder_cost_per_gene: float = DEFAULT_REORDER_COST_PER_GENE,
):
    """The footnote-2 trade-off sweep: one row per pes_per_child."""
    return [
        generation_estimate(stream_lengths, num_pes, k, reorder_cost_per_gene)
        for k in k_values
        if k <= num_pes
    ]
