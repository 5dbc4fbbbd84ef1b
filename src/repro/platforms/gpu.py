"""GPU platform models: GTX 1080 (desktop) and Tegra/TX2 (embedded).

Section VI-B "GPU deep dive": "GPU_a exploits GLP by forming compaction on
input vectors serially and evaluating multiple vertices in parallel for
each genome.  In GPU_b, multiple vertices across genomes are evaluated in
parallel thus exploiting both GLP and PLP.  However the inputs and weights
could no longer be compacted resulting in large sparse tensors."

Calibration targets from the paper:

* memory transfers are ~70 % of GPU_a inference runtime and ~20 % of
  GPU_b's (Fig. 10a/b);
* GPU_b is the fastest GPU config but stores dense/sparse tensors for the
  whole population (Fig. 10d);
* evolution maps poorly: per-generation genome copies in/out plus
  divergent mutation kernels leave the GPU 4-5 orders of magnitude less
  energy-efficient than EvE (Fig. 9d).
"""

from __future__ import annotations

from ..core.trace import GenerationWorkload
from ..neat.statistics import GENE_BYTES
from .base import PhaseCost, Platform
from .spec import GPUPlatformParams


#: NVIDIA GTX 1080: 9 TFLOP/s peak, but tiny irregular kernels reach a
#: sliver of it; PCIe 3.0 x16 ~12 GB/s effective.
GTX1080_PARAMS = GPUPlatformParams(
    launch_overhead_s=10.0e-6,
    transfer_overhead_s=12.0e-6,
    bandwidth_bytes_per_s=12e9,
    compact_mac_rate=5e9,
    sparse_mac_rate=5e9,
    evolution_op_time_s=0.25e-6,
    power_w=180.0,
    desc="Nvidia GTX 1080",
)

#: NVIDIA Tegra (Pascal, Jetson TX2): lower clocks, shared LPDDR4 (~20 GB/s
#: raw, ~6 GB/s effective for small copies), ~10 W GPU rail.
TEGRA_PARAMS = GPUPlatformParams(
    launch_overhead_s=20.0e-6,
    transfer_overhead_s=25.0e-6,
    bandwidth_bytes_per_s=6e9,
    compact_mac_rate=1e9,
    sparse_mac_rate=1.5e9,
    evolution_op_time_s=1.0e-6,
    power_w=10.0,
    desc="Nvidia Tegra",
)

_FLOAT_BYTES = 4


def _nodes_per_genome(workload: GenerationWorkload) -> float:
    """Vertex count per genome including the (implicit) input nodes.

    GPU_b's uncompacted tensors are sized by the full vertex set; the
    node-gene count excludes inputs, which for RAM workloads dominate, so
    we approximate inputs from the connection structure (each input feeds
    >= 1 output in the initial mesh and stays in the adjacency forever).
    """
    if workload.population == 0:
        return 1.0
    nodes = workload.total_nodes / workload.population
    conns = workload.total_connections / workload.population
    # inputs ~ initial dense mesh size / outputs; bounded by connections.
    return max(nodes + conns / max(1.0, nodes), nodes + 1)


class GPUPlatform(Platform):
    evolution_strategy = "PLP"

    def __init__(self, name: str, params: GPUPlatformParams) -> None:
        self.name = name
        self.params = params
        self.inference_strategy = "BSP + PLP" if params.batch_population else "BSP"
        self.platform_desc = params.desc

    # -- inference ------------------------------------------------------

    def inference_cost(self, workload: GenerationWorkload) -> PhaseCost:
        params = self.params
        depth = max(1.0, workload.mean_network_depth)
        if not params.batch_population:
            # GPU_a/c: one genome at a time; every env step pays its own
            # wave-kernel launches and its own small HtoD/DtoH copies.
            kernel_s = (
                workload.env_steps * depth * params.launch_overhead_s
                + workload.inference_macs / params.compact_mac_rate
            )
            transfer_s = workload.env_steps * 2 * params.transfer_overhead_s
            # weights HtoD once per genome per generation
            weight_bytes = workload.total_connections * _FLOAT_BYTES
            transfer_s += weight_bytes / params.bandwidth_bytes_per_s
        else:
            # GPU_b/d: the whole population steps together, so launches are
            # paid once per (episode step x wave) — but the tensors are the
            # *uncompacted* per-population sparse matrices.
            mean_steps = workload.env_steps / max(1, workload.population)
            kernel_launches = mean_steps * depth
            nodes = _nodes_per_genome(workload)
            dense_macs = (
                workload.population * nodes * nodes * depth * mean_steps
            )
            kernel_s = (
                kernel_launches * params.launch_overhead_s
                + dense_macs / params.sparse_mac_rate
            )
            tensor_bytes = (
                workload.population * nodes * nodes * _FLOAT_BYTES * 2
            )
            transfer_s = (
                tensor_bytes / params.bandwidth_bytes_per_s
                + mean_steps * 2 * params.transfer_overhead_s
            )
        runtime = kernel_s + transfer_s
        return PhaseCost(
            runtime_s=runtime,
            energy_j=runtime * params.power_w,
            transfer_s=transfer_s,
        )

    # -- evolution --------------------------------------------------------

    def evolution_cost(self, workload: GenerationWorkload) -> PhaseCost:
        params = self.params
        # Genomes out to device, children back: the "extensive memory
        # copies" of the paper's conclusion.
        genome_bytes = workload.total_genes * GENE_BYTES
        transfer_s = (
            2 * genome_bytes / params.bandwidth_bytes_per_s
            + 4 * params.transfer_overhead_s
        )
        kernel_s = (
            workload.evolution_ops * params.evolution_op_time_s
            + 6 * params.launch_overhead_s  # one kernel per op class
        )
        runtime = kernel_s + transfer_s
        return PhaseCost(
            runtime_s=runtime,
            energy_j=runtime * params.power_w,
            transfer_s=transfer_s,
        )

    def memory_footprint_bytes(self, workload: GenerationWorkload) -> int:
        if not self.params.batch_population:
            # Compact matrices for one genome at a time (Fig. 10d GPU_a).
            per_genome = workload.total_connections / max(1, workload.population)
            return int(per_genome * _FLOAT_BYTES * 2 + 1024)
        # Sparse/uncompacted weight+input matrices for all genomes.
        nodes = _nodes_per_genome(workload)
        return int(workload.population * nodes * nodes * _FLOAT_BYTES * 2)

