"""GENESYS platform model: the chip at one ``soc``-kind design point.

One model serves both fidelities of the paper's chip.  As a Table III
row it is the analytical counterpart of the cycle-level simulators in
:mod:`repro.hw`, so the Fig. 9/10 platform sweeps can run from workload
aggregates alone: inference exploits PLP by batching the population's
vertex updates per environment step onto the ADAM array; evolution
exploits PLP + GLP by spreading children over the EvE PEs in waves.  For
the ``soc`` backend, :meth:`GenesysPlatform.genesys_config` resolves the
same design point into the cycle-level :class:`repro.core.GeneSysConfig`.

Energy is built from the same per-op constants as the detailed model
(:mod:`repro.hw.energy`): MAC energy for ADAM, PE-cycle energy for EvE,
SRAM word energy for genome traffic, plus the always-on SRAM+M0 share of
the roofline power for the active window.  On-chip staging (genome buffer
to/from the engines) accounts for ~15 % of runtime, matching Fig. 10(c).
"""

from __future__ import annotations

from ..core.config import GeneSysConfig
from ..core.trace import GenerationWorkload
from ..hw.adam import ADAMConfig
from ..hw.energy import (
    ADAM_MAC_ENERGY_PJ,
    EVE_OP_ENERGY_PJ,
    PAPER_TOTAL_POWER_MW,
    SRAM_ACCESS_ENERGY_PJ,
)
from ..hw.eve import EvEConfig
from ..hw.pe import CONFIG_LOAD_CYCLES, PIPELINE_DEPTH
from ..neat.config import NEATConfig
from ..neat.statistics import GENE_BYTES
from .base import PhaseCost, Platform
from .spec import SoCPlatformParams

#: fraction of runtime spent staging data between SRAM and the engines
ONCHIP_TRANSFER_FRACTION = 0.15
#: The paper's power methodology is measured chip power x time; we use the
#: roofline power (947.5 mW, Section V) for the active window, which is
#: deliberately pessimistic for GENESYS ("actual power will be much lower").
_ACTIVE_POWER_W = PAPER_TOTAL_POWER_MW / 1e3


class GenesysPlatform(Platform):
    inference_strategy = "PLP"
    evolution_strategy = "PLP + GLP"
    platform_desc = "GENESYS"

    def __init__(self, name: str, params: SoCPlatformParams) -> None:
        self.name = name
        self.params = params

    # -- the cycle-level design point -------------------------------------

    def genesys_config(self, neat: NEATConfig, seed: int = 0) -> GeneSysConfig:
        """The :class:`repro.core.GeneSysConfig` the cycle-level
        :class:`repro.core.GeneSysSoC` runs at this design point; SRAM
        geometry and PE registers keep their defaults."""
        params = self.params
        return GeneSysConfig(
            neat=neat,
            eve=EvEConfig(
                num_pes=params.eve_pes,
                noc=params.noc,
                scheduler=params.scheduler,
            ),
            adam=ADAMConfig(rows=params.adam_rows, cols=params.adam_cols),
            frequency_hz=params.frequency_hz,
            seed=seed,
        )

    # -- inference ------------------------------------------------------

    def inference_cost(self, workload: GenerationWorkload) -> PhaseCost:
        params = self.params
        depth = max(1.0, workload.mean_network_depth)
        mean_steps = workload.env_steps / max(1, workload.population)
        num_macs = params.adam_rows * params.adam_cols
        fill_drain = params.adam_rows + params.adam_cols
        # Population-batched waves: each episode step fires `depth` packed
        # matrix-vector products covering all genomes' ready vertices.
        array_cycles = (
            workload.inference_macs / num_macs + mean_steps * depth * fill_drain
        )
        vectorize_cycles = mean_steps * depth * params.adam_cols  # CPU packing
        cycles = array_cycles + vectorize_cycles
        compute = cycles / params.frequency_hz
        # staging is the Fig. 10(c) share of *total* runtime
        transfer = compute * ONCHIP_TRANSFER_FRACTION / (1 - ONCHIP_TRANSFER_FRACTION)
        runtime = compute + transfer
        energy = (
            workload.inference_macs * ADAM_MAC_ENERGY_PJ * 1e-12
            + runtime * _ACTIVE_POWER_W
        )
        return PhaseCost(runtime_s=runtime, energy_j=energy, transfer_s=transfer)

    # -- evolution --------------------------------------------------------

    def evolution_cost(self, workload: GenerationWorkload) -> PhaseCost:
        num_pes = self.params.eve_pes
        mean_genes = workload.mean_genome_genes
        children = max(1, workload.population)
        waves = -(-children // num_pes)  # ceil
        # One gene pair per cycle per PE, plus the config load and the
        # pipeline drain, as the cycle-level PE counts them.
        cycles = waves * (mean_genes + (CONFIG_LOAD_CYCLES + PIPELINE_DEPTH))
        compute = cycles / self.params.frequency_hz
        transfer = compute * ONCHIP_TRANSFER_FRACTION / (1 - ONCHIP_TRANSFER_FRACTION)
        runtime = compute + transfer

        genes_streamed = workload.total_genes  # every child's stream
        # Multicast reuse: concurrent children sharing the fit parents are
        # served by single reads; the sharing factor saturates at the PE
        # count or the observed parent reuse, whichever is smaller.
        sharing = max(1, min(num_pes, workload.fittest_parent_reuse or 1))
        sram_reads = 2 * genes_streamed / sharing
        sram_writes = genes_streamed
        energy = (
            genes_streamed * EVE_OP_ENERGY_PJ * 1e-12
            + (sram_reads + sram_writes) * SRAM_ACCESS_ENERGY_PJ * 1e-12
            + runtime * _ACTIVE_POWER_W
        )
        return PhaseCost(runtime_s=runtime, energy_j=energy, transfer_s=transfer)

    def memory_footprint_bytes(self, workload: GenerationWorkload) -> int:
        """The whole generation's genomes, 64 bits per gene (Fig. 10d)."""
        return workload.total_genes * GENE_BYTES

