"""Area, power and energy model of the GeneSys SoC (Section V, Fig. 8).

The paper implements GeneSys in Nangate 15 nm FreePDK and reports
post-synthesis numbers; those published points calibrate the analytical
model here:

* EvE PE:   59 um x 59 um  -> 0.003481 mm^2/PE; 256 PEs = 0.891 mm^2
  (paper: "EvE Area 0.89 mm^2")
* ADAM MAC: 15 um x 15 um  -> 0.000225 mm^2/MAC; 1024 MACs = 0.230 mm^2
  (paper: "ADAM Area 0.25 mm^2" including array control)
* Total SoC at the chosen design point: 2.45 mm^2, 947.5 mW roofline,
  200 MHz, 1.0 V, 1.5 MB SRAM in 48 banks.

Component power constants are back-derived so the roofline at 256 EvE PEs
reproduces the paper's 947.5 mW ("roofline because the numbers here are
calculated on the assumption that GENESYS is always computing").
Per-op energies follow from power / throughput at 200 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: The paper's implementation parameters (Fig. 8a table).
TECH_NODE_NM = 15
FREQUENCY_HZ = 200e6
VOLTAGE_V = 1.0
DEFAULT_NUM_EVE_PES = 256
DEFAULT_NUM_ADAM_MACS = 1024
DEFAULT_SRAM_BANKS = 48
DEFAULT_SRAM_DEPTH = 4096
PAPER_TOTAL_AREA_MM2 = 2.45
PAPER_TOTAL_POWER_MW = 947.5

# -- area constants (mm^2) ------------------------------------------------
EVE_PE_AREA_MM2 = 0.059 * 0.059          # 59 um x 59 um (Fig. 8a)
ADAM_MAC_AREA_MM2 = 0.015 * 0.015        # 15 um x 15 um (Fig. 8a)
ADAM_CONTROL_AREA_MM2 = 0.02             # array control/IO -> 0.25 mm^2 total
SRAM_AREA_MM2 = 1.26                     # 1.5 MB, 48 banks @ 15 nm
M0_AREA_MM2 = 0.01                       # ARM Cortex M0
NOC_AREA_MM2 = 0.049                     # distribution + collection buses
# check: 0.891 + 0.250 + 1.26 + 0.01 + 0.049 = 2.46 ~ paper's 2.45 mm^2

# -- power constants (mW, roofline @ 200 MHz) ------------------------------------
EVE_PE_POWER_MW = 2.197                  # => 256 PEs = 562.4 mW
ADAM_POWER_MW = 230.0                    # 1024 MACs + control
SRAM_POWER_MW = 150.0                    # 1.5 MB active banks
M0_POWER_MW = 5.0
# check: 562.4 + 230 + 150 + 5 = 947.4 mW ~ paper's 947.5 mW @ 256 PEs

# -- per-op energies (pJ), derived at 200 MHz ---------------------------------
EVE_OP_ENERGY_PJ = EVE_PE_POWER_MW / (FREQUENCY_HZ / 1e9)  # ~11 pJ / PE-cycle
ADAM_MAC_ENERGY_PJ = ADAM_POWER_MW / DEFAULT_NUM_ADAM_MACS / (FREQUENCY_HZ / 1e9)
SRAM_ACCESS_ENERGY_PJ = 25.0             # one 64-bit word read/write
DRAM_ACCESS_ENERGY_PJ = 2560.0           # ~100x SRAM, per 64-bit word
NOC_HOP_ENERGY_PJ = 1.5                  # per gene word per link traversal
M0_CYCLE_ENERGY_PJ = M0_POWER_MW / (FREQUENCY_HZ / 1e9)


@dataclass
class AreaBreakdown:
    eve_mm2: float
    adam_mm2: float
    sram_mm2: float
    m0_mm2: float
    noc_mm2: float

    @property
    def total_mm2(self) -> float:
        return self.eve_mm2 + self.adam_mm2 + self.sram_mm2 + self.m0_mm2 + self.noc_mm2


@dataclass
class PowerBreakdown:
    eve_mw: float
    adam_mw: float
    sram_mw: float
    m0_mw: float

    @property
    def total_mw(self) -> float:
        return self.eve_mw + self.adam_mw + self.sram_mw + self.m0_mw


def area_breakdown(
    num_eve_pes: int = DEFAULT_NUM_EVE_PES,
    num_adam_macs: int = DEFAULT_NUM_ADAM_MACS,
) -> AreaBreakdown:
    """Fig. 8(c): SoC area as a function of EvE PE count."""
    return AreaBreakdown(
        eve_mm2=num_eve_pes * EVE_PE_AREA_MM2,
        adam_mm2=num_adam_macs * ADAM_MAC_AREA_MM2 + ADAM_CONTROL_AREA_MM2,
        sram_mm2=SRAM_AREA_MM2,
        m0_mm2=M0_AREA_MM2,
        noc_mm2=NOC_AREA_MM2,
    )


def roofline_power(
    num_eve_pes: int = DEFAULT_NUM_EVE_PES,
    num_adam_macs: int = DEFAULT_NUM_ADAM_MACS,
) -> PowerBreakdown:
    """Fig. 8(b): always-computing power as a function of EvE PE count."""
    return PowerBreakdown(
        eve_mw=num_eve_pes * EVE_PE_POWER_MW,
        adam_mw=ADAM_POWER_MW * num_adam_macs / DEFAULT_NUM_ADAM_MACS,
        sram_mw=SRAM_POWER_MW,
        m0_mw=M0_POWER_MW,
    )


def pe_sweep(pe_counts: List[int] = None) -> List[Dict[str, float]]:
    """The Fig. 8(b)/(c) sweep rows: 2..512 EvE PEs."""
    pe_counts = pe_counts or [2, 4, 8, 16, 32, 64, 128, 256, 512]
    rows = []
    for n in pe_counts:
        power = roofline_power(n)
        area = area_breakdown(n)
        rows.append(
            {
                "num_eve_pe": n,
                "power_mw": power.total_mw,
                "eve_power_mw": power.eve_mw,
                "area_mm2": area.total_mm2,
                "eve_area_mm2": area.eve_mm2,
            }
        )
    return rows


@dataclass
class EnergyLedger:
    """Accumulates op counts and converts them to energy (Joules)."""

    eve_pe_cycles: int = 0
    adam_macs: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    dram_accesses: int = 0
    noc_gene_hops: int = 0
    m0_cycles: int = 0

    @property
    def eve_energy_j(self) -> float:
        return self.eve_pe_cycles * EVE_OP_ENERGY_PJ * 1e-12

    @property
    def adam_energy_j(self) -> float:
        return self.adam_macs * ADAM_MAC_ENERGY_PJ * 1e-12

    @property
    def sram_energy_j(self) -> float:
        return (self.sram_reads + self.sram_writes) * SRAM_ACCESS_ENERGY_PJ * 1e-12

    @property
    def dram_energy_j(self) -> float:
        return self.dram_accesses * DRAM_ACCESS_ENERGY_PJ * 1e-12

    @property
    def noc_energy_j(self) -> float:
        return self.noc_gene_hops * NOC_HOP_ENERGY_PJ * 1e-12

    @property
    def m0_energy_j(self) -> float:
        return self.m0_cycles * M0_CYCLE_ENERGY_PJ * 1e-12

    @property
    def total_energy_j(self) -> float:
        return (
            self.eve_energy_j
            + self.adam_energy_j
            + self.sram_energy_j
            + self.dram_energy_j
            + self.noc_energy_j
            + self.m0_energy_j
        )


def cycles_to_seconds(cycles: int, frequency_hz: float = FREQUENCY_HZ) -> float:
    return cycles / frequency_hz


# ---------------------------------------------------------------------------
# Clock / power gating (Section VI-D)
# ---------------------------------------------------------------------------

#: Fraction of a clock-gated component's active power still burned while
#: gated (clock tree off, state retained).  Power gating drops further to
#: the leakage floor.
CLOCK_GATED_POWER_FRACTION = 0.30
POWER_GATED_POWER_FRACTION = 0.05


@dataclass
class GatedPowerEstimate:
    """Average power once environment interaction gates the compute.

    "For real life workloads, the interactions will be much slower.  This
    enables us to use circuit level techniques like clock and power gating
    to save even more power.  The lower the compute window for GENESYS the
    more time is used to interact with the environment thus saving more
    energy" (Section VI-D).
    """

    compute_seconds: float
    interaction_seconds: float
    roofline_mw: float
    gated_fraction: float

    @property
    def duty_cycle(self) -> float:
        total = self.compute_seconds + self.interaction_seconds
        return self.compute_seconds / total if total > 0 else 1.0

    @property
    def average_power_mw(self) -> float:
        idle = self.roofline_mw * self.gated_fraction
        return self.duty_cycle * self.roofline_mw + (1 - self.duty_cycle) * idle


def gated_power(
    compute_seconds: float,
    interaction_seconds: float,
    num_eve_pes: int = DEFAULT_NUM_EVE_PES,
    mode: str = "clock",
) -> GatedPowerEstimate:
    """Average SoC power with clock ("clock") or power ("power") gating."""
    fractions = {
        "clock": CLOCK_GATED_POWER_FRACTION,
        "power": POWER_GATED_POWER_FRACTION,
        "none": 1.0,
    }
    if mode not in fractions:
        raise ValueError(f"unknown gating mode {mode!r}; use {sorted(fractions)}")
    return GatedPowerEstimate(
        compute_seconds=compute_seconds,
        interaction_seconds=interaction_seconds,
        roofline_mw=roofline_power(num_eve_pes).total_mw,
        gated_fraction=fractions[mode],
    )
