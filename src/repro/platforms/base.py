"""Platform model interface (Table III).

The paper measures NEAT's per-generation inference and evolution phases on
eight CPU/GPU configurations plus GENESYS.  Real hardware and power meters
are unavailable offline, so each platform is an analytical model: runtime
and energy are computed from a :class:`repro.core.trace.GenerationWorkload`
(the same op/step/MAC aggregates the paper's traces carry) using published
platform characteristics (clock, power, launch/transfer overheads).

The reproduction targets are the paper's *relative* claims — who wins, by
roughly what factor, and how time splits between transfer and compute —
not absolute milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.trace import GenerationWorkload


@dataclass
class PhaseCost:
    """Runtime/energy of one phase (inference or evolution) per generation."""

    runtime_s: float
    energy_j: float
    transfer_s: float = 0.0  # memory-movement share of runtime_s

    @property
    def compute_s(self) -> float:
        return max(0.0, self.runtime_s - self.transfer_s)

    @property
    def transfer_fraction(self) -> float:
        return self.transfer_s / self.runtime_s if self.runtime_s > 0 else 0.0


class Platform:
    """One row of Table III."""

    #: short id used in the paper's figures, e.g. "CPU_a"
    name: str = "base"
    #: legend fields of Table III
    inference_strategy: str = ""
    evolution_strategy: str = ""
    platform_desc: str = ""

    def inference_cost(self, workload: GenerationWorkload) -> PhaseCost:
        raise NotImplementedError

    def evolution_cost(self, workload: GenerationWorkload) -> PhaseCost:
        raise NotImplementedError

    def memory_footprint_bytes(self, workload: GenerationWorkload) -> int:
        """Bytes one generation's working set needs on this platform.

        Fig. 10(d): "GENESYS stores entire population in memory, thus we
        see 100x more footprint than GPU_a, which is expected as we have a
        population size of 150.  GENESYS has 100x less footprint than
        GPU_b as genomes rather than sparse-matrices are stored on chip."
        """
        raise NotImplementedError

    def table3_row(self) -> Dict[str, str]:
        return {
            "Legend": self.name,
            "Inference": self.inference_strategy,
            "Evolution": self.evolution_strategy,
            "Platform": self.platform_desc,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
