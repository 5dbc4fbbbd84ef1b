"""Network-on-chip models for gene distribution and collection.

Section IV-C4: "Our base design is separate high-bandwidth buses, one for
the distribution and one for the collection.  However ... we also consider
a tree-based network with multicast support and evaluate the savings in
SRAM reads" (Fig. 11b).

Both models answer the same question for each distribution cycle: given
the set of (pe, parent_genome, word_index) demands in flight, how many
SRAM reads are issued?

* :class:`PointToPointNoC` — every consuming PE receives its own copy, so
  every demand is one read.
* :class:`MulticastTreeNoC` — PEs demanding the *same* genome word in the
  same cycle are served by a single read multicast down the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

#: One in-flight demand: (pe_index, genome_id, word_index)
Demand = Tuple[int, int, int]


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
    """Common interface: account one distribution cycle of demands."""

    name = "base"

    def __init__(self) -> None:
        self.stats = NoCStats()

    def distribute_cycle(self, demands: Sequence[Demand]) -> int:
        """Account one cycle; returns SRAM reads issued this cycle."""
        raise NotImplementedError

    def reset_stats(self) -> NoCStats:
        stats = self.stats
        self.stats = NoCStats()
        return stats


class PointToPointNoC(BaseNoC):
    """Dedicated bus per transfer: one SRAM read per consuming PE."""

    name = "point-to-point"

    def distribute_cycle(self, demands: Sequence[Demand]) -> int:
        reads = len(demands)
        self.stats.cycles += 1
        self.stats.sram_reads += reads
        self.stats.genes_delivered += len(demands)
        return reads


class MulticastTreeNoC(BaseNoC):
    """Tree with multicast: one read per *distinct* genome word per cycle.

    This is the genome-level-reuse (GLR) win: children sharing a parent
    receive the same gene stream from a single read (Section III-D3).
    """

    name = "multicast-tree"

    def distribute_cycle(self, demands: Sequence[Demand]) -> int:
        distinct = {(genome_id, word_index) for _pe, genome_id, word_index in demands}
        reads = len(distinct)
        self.stats.cycles += 1
        self.stats.sram_reads += reads
        self.stats.genes_delivered += len(demands)
        self.stats.multicast_hits += len(demands) - reads
        return reads


#: Canonical NoC kinds every layer agrees on — the SoC design point
#: (:class:`repro.hw.eve.EvEConfig`), the ``soc`` backend's options, the
#: DSE axes and :class:`repro.platforms.PlatformSpec` validation.
NOC_KINDS = ("p2p", "multicast")

#: Accepted spellings -> canonical kind.  The table is the single place
#: spellings are recognised; anything else is rejected with the full
#: list rather than fuzzily matched.
_NOC_SPELLINGS = {
    "p2p": "p2p",
    "pointtopoint": "p2p",
    "bus": "p2p",
    "multicast": "multicast",
    "multicasttree": "multicast",
    "tree": "multicast",
}


def canonical_noc_kind(kind: str) -> str:
    """Normalise a NoC-kind spelling to ``"p2p"`` or ``"multicast"``.

    Case, ``-``/``_``/space separators and the long-form names
    (``point-to-point``, ``multicast-tree``, ``bus``, ``tree``) are
    accepted; any other spelling raises :class:`ValueError` naming the
    canonical kinds.  Every layer that takes a NoC kind — ``make_noc``,
    the ``soc`` backend, sweep axes, platform specs — validates through
    this one function.
    """
    if not isinstance(kind, str):
        raise ValueError(
            f"NoC kind must be a string, got {kind!r}; "
            f"canonical kinds: {list(NOC_KINDS)}"
        )
    key = kind.lower().replace("-", "").replace("_", "").replace(" ", "")
    try:
        return _NOC_SPELLINGS[key]
    except KeyError:
        raise ValueError(
            f"unknown NoC kind {kind!r}; canonical kinds: {list(NOC_KINDS)} "
            f"(accepted spellings: {sorted(_NOC_SPELLINGS)})"
        ) from None


def make_noc(kind: str) -> BaseNoC:
    """Factory keyed by :func:`canonical_noc_kind` (``p2p``/``multicast``)."""
    canonical = canonical_noc_kind(kind)
    if canonical == "p2p":
        return PointToPointNoC()
    return MulticastTreeNoC()
