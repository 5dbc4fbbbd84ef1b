"""Cross-platform memory footprint comparison (Fig. 10d).

"GENESYS stores entire population in memory, thus we see 100x more
footprint than GPU_a, which is expected as we have a population size of
150.  GENESYS has 100x less footprint than GPU_b as genomes rather than
sparse-matrices are stored on chip."
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.trace import GenerationWorkload
from .base import Platform


def footprint_comparison(
    workload: GenerationWorkload, platforms: Sequence[Platform]
) -> Dict[str, int]:
    """Bytes required on each platform for one generation's working set."""
    return {p.name: p.memory_footprint_bytes(workload) for p in platforms}
