"""PE allocation policy for EvE.

Section IV-C5: "The PE allocation is done with a greedy policy, such that
maximum number of children can be created from the parents currently in
the SRAM.  This is done to exploit the reuse opportunity provided by the
reproduction algorithm and minimize SRAM reads."  One PE produces one
child genome (the paper's implementation choice).

The scheduler partitions the generation's reproduction events into waves
of at most ``num_pes`` children.  The greedy policy packs children that
share parents into the *same* wave so the multicast NoC can serve them
with single reads; the round-robin baseline ignores sharing (the ablation
of Fig. 11b/c).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from ..neat.reproduction import ReproductionEvent

Wave = List[ReproductionEvent]


def greedy_reuse_schedule(
    events: Sequence[ReproductionEvent], num_pes: int
) -> List[Wave]:
    """Pack children sharing parents into the same wave (GLR-aware).

    Children are grouped by their parent pair, groups are ordered by size
    (largest first — the fittest parent's offspring dominate, Fig. 4c),
    and each wave is filled group-by-group so co-scheduled children
    overwhelmingly share parent streams.
    """
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    groups: Dict[tuple, List[ReproductionEvent]] = defaultdict(list)
    for event in events:
        pair = tuple(sorted((event.parent1_key, event.parent2_key)))
        groups[pair].append(event)
    ordered: List[ReproductionEvent] = []
    for pair in sorted(groups, key=lambda p: (-len(groups[p]), p)):
        ordered.extend(groups[pair])
    return [ordered[i : i + num_pes] for i in range(0, len(ordered), num_pes)]


def round_robin_schedule(
    events: Sequence[ReproductionEvent], num_pes: int
) -> List[Wave]:
    """Naive baseline: events in arrival order, no sharing awareness."""
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    events = list(events)
    return [events[i : i + num_pes] for i in range(0, len(events), num_pes)]


SCHEDULERS = {
    "greedy": greedy_reuse_schedule,
    "round-robin": round_robin_schedule,
}


def make_scheduler(name: str):
    if name not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r}; use {sorted(SCHEDULERS)}")
    return SCHEDULERS[name]
