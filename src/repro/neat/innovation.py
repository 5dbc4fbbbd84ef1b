"""Node-id (innovation) tracking.

NEAT aligns genes across genomes by id: homologous genes share keys so
crossover can cherry-pick attributes gene-by-gene.  In hardware this is
what lets the Gene Split block stream aligned parent gene pairs to the PEs
(Section IV-C4).  Two policies are supported:

* a population-global :class:`InnovationTracker` that reuses the same new
  node id for the same split ``(source, dest)`` within one generation —
  classic NEAT innovation numbering; and
* the per-genome fallback used by the Add Gene engine in hardware, which
  simply assigns "a node ID greater than any other node present in the
  network" (Section IV-C3).
"""

from __future__ import annotations

from typing import Dict, Tuple


class InnovationTracker:
    """Assigns new node ids, deduplicating identical splits per generation."""

    def __init__(self, next_node_id: int = 0) -> None:
        self._next_node_id = next_node_id
        self._split_cache: Dict[Tuple[int, int], int] = {}

    @property
    def next_node_id(self) -> int:
        return self._next_node_id

    def get_split_node_id(self, source: int, dest: int) -> int:
        """Node id for splitting connection (source, dest).

        The same split requested twice in one generation returns the same
        id, so independently-evolved identical structures stay homologous.
        """
        key = (source, dest)
        if key not in self._split_cache:
            self._split_cache[key] = self._next_node_id
            self._next_node_id += 1
        return self._split_cache[key]

    def fresh_node_id(self) -> int:
        """An unconditionally new node id (no split deduplication)."""
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def new_generation(self) -> None:
        """Clear the split cache; ids keep increasing monotonically."""
        self._split_cache.clear()
