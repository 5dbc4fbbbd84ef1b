"""CPU platform models: desktop i7 and embedded Cortex-A57 (Table III).

Per the paper's methodology: "In CPU, evolution happens sequentially while
we try to exploit PLP in inference by using multithreading, running 4
concurrent threads (CPU b and CPU d).  Parallel inference on CPU is 3.5
times faster than the serial counterpart."

Cost model: the evolution phase executes one interpreted reproduction op
at a time (neat-python-style object manipulation, microseconds per op);
the inference phase pays a per-environment-step bookkeeping overhead plus
per-MAC arithmetic.  Energy is runtime x package power, matching the
paper's measurement method (Intel power gadget / INA3221 sampling).
"""

from __future__ import annotations

from ..core.trace import GenerationWorkload
from ..neat.statistics import GENE_BYTES
from .base import PhaseCost, Platform
from .spec import CPUPlatformParams


#: 6th-gen Intel i7 (desktop), ~4 GHz, measured-package-power class.
I7_PARAMS = CPUPlatformParams(
    evolution_op_time_s=2.0e-6,
    mac_time_s=25e-9,
    step_overhead_s=12e-6,
    power_w=45.0,
    desc="6th gen i7",
)

#: ARM Cortex-A57 on the Jetson TX2 (embedded), ~2 GHz.
A57_PARAMS = CPUPlatformParams(
    evolution_op_time_s=9.0e-6,
    mac_time_s=110e-9,
    step_overhead_s=55e-6,
    power_w=5.0,
    desc="ARM Cortex A57",
)


class CPUPlatform(Platform):
    """Serial or PLP-threaded CPU execution of NEAT."""

    evolution_strategy = "Serial"

    def __init__(self, name: str, params: CPUPlatformParams) -> None:
        self.name = name
        self.params = params
        self.inference_strategy = "PLP" if params.parallel_inference else "Serial"
        self.platform_desc = params.desc

    def inference_cost(self, workload: GenerationWorkload) -> PhaseCost:
        params = self.params
        serial = (
            workload.env_steps * params.step_overhead_s
            + workload.inference_macs * params.mac_time_s
        )
        speedup = params.inference_speedup if params.parallel_inference else 1.0
        runtime = serial / speedup
        return PhaseCost(runtime_s=runtime, energy_j=runtime * params.power_w)

    def evolution_cost(self, workload: GenerationWorkload) -> PhaseCost:
        runtime = workload.evolution_ops * self.params.evolution_op_time_s
        return PhaseCost(runtime_s=runtime, energy_j=runtime * self.params.power_w)

    def memory_footprint_bytes(self, workload: GenerationWorkload) -> int:
        # Host DRAM holds the full population's gene objects; Python object
        # overhead is ~8x the packed 64-bit representation.
        return workload.total_genes * GENE_BYTES * 8
