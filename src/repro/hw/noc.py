"""Network-on-chip models for gene distribution and collection.

Section IV-C4: "Our base design is separate high-bandwidth buses, one for
the distribution and one for the collection.  However ... we also consider
a tree-based network with multicast support and evaluate the savings in
SRAM reads" (Fig. 11b).

Both models answer the same question for each distribution cycle: given
the set of (pe, parent_genome, word_index) demands in flight, how many
SRAM reads are issued?  EvE accounts a whole wave's cycles in one call.

* :class:`PointToPointNoC` — every consuming PE receives its own copy, so
  every demand is one read.
* :class:`MulticastTreeNoC` — PEs demanding the *same* genome word in the
  same cycle are served by a single read multicast down the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NoCStats:
    cycles: int = 0
    sram_reads: int = 0
    genes_delivered: int = 0
    multicast_hits: int = 0  # demands satisfied by sharing another PE's read

    @property
    def reads_per_cycle(self) -> float:
        return self.sram_reads / self.cycles if self.cycles else 0.0


class BaseNoC:
    """Common interface: account distribution cycles of demands."""

    def __init__(self) -> None:
        self.stats = NoCStats()

    def distribute(self, demands, cycles: int = 1) -> int:
        """Account ``cycles`` distribution cycles; returns SRAM reads issued.

        ``demands`` has an entry (a key or a (genome, word) row) per PE's
        demand, equal for demands of one genome word in one cycle.
        """
        reads = self._reads(demands)
        self.stats.cycles += cycles
        self.stats.sram_reads += reads
        self.stats.genes_delivered += len(demands)
        self.stats.multicast_hits += len(demands) - reads
        return reads

    def _reads(self, demands) -> int:
        raise NotImplementedError

    def reset_stats(self) -> NoCStats:
        stats = self.stats
        self.stats = NoCStats()
        return stats


class PointToPointNoC(BaseNoC):
    """Dedicated bus per transfer: one SRAM read per consuming PE."""

    def _reads(self, demands) -> int:
        return len(demands)


class MulticastTreeNoC(BaseNoC):
    """Tree with multicast: one read per *distinct* genome word per cycle.

    This is the genome-level-reuse (GLR) win: children sharing a parent
    receive the same gene stream from a single read (Section III-D3).
    """

    def _reads(self, demands) -> int:
        return len(np.unique(demands, axis=0))


#: NoC kind -> model.  These names are the only spellings: the SoC design
#: point (:class:`repro.hw.eve.EvEConfig`), platform specs and sweep axes
#: all take them, checked by exact name like
#: :data:`repro.hw.allocator.SCHEDULERS`.
NOCS = {
    "p2p": PointToPointNoC,
    "multicast": MulticastTreeNoC,
}


def make_noc(kind: str) -> BaseNoC:
    if kind not in NOCS:
        raise ValueError(f"unknown NoC kind {kind!r}; use {sorted(NOCS)}")
    return NOCS[kind]()
