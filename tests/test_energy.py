"""Unit tests for the area/power/energy model (Section V, Fig. 8)."""

import pytest

from repro.hw.energy import (
    DEFAULT_NUM_EVE_PES,
    EVE_PE_AREA_MM2,
    PAPER_TOTAL_AREA_MM2,
    PAPER_TOTAL_POWER_MW,
    EnergyLedger,
    area_breakdown,
    cycles_to_seconds,
    pe_sweep,
    roofline_power,
)


class TestPaperCalibration:
    def test_eve_pe_area_matches_fig8a(self):
        # 59 um x 59 um PE; 256 of them = 0.89 mm^2 (paper table).
        assert 256 * EVE_PE_AREA_MM2 == pytest.approx(0.89, abs=0.01)

    def test_adam_area_matches_fig8a(self):
        area = area_breakdown(num_eve_pes=256)
        assert area.adam_mm2 == pytest.approx(0.25, abs=0.01)

    def test_total_area_matches_paper(self):
        area = area_breakdown(num_eve_pes=DEFAULT_NUM_EVE_PES)
        assert area.total_mm2 == pytest.approx(PAPER_TOTAL_AREA_MM2, rel=0.01)

    def test_roofline_power_matches_paper(self):
        power = roofline_power(num_eve_pes=256)
        assert power.total_mw == pytest.approx(PAPER_TOTAL_POWER_MW, rel=0.005)

    def test_under_one_watt_at_256(self):
        # "With 256 PEs, we comfortably blanket under 1W" (Section V).
        assert roofline_power(256).total_mw < 1000.0


class TestSweeps:
    def test_power_monotonic_in_pes(self):
        rows = pe_sweep()
        powers = [r["power_mw"] for r in rows]
        assert powers == sorted(powers)
        assert [r["num_eve_pe"] for r in rows] == [2, 4, 8, 16, 32, 64, 128, 256, 512]

    def test_area_monotonic_in_pes(self):
        rows = pe_sweep()
        areas = [r["area_mm2"] for r in rows]
        assert areas == sorted(areas)

    def test_non_eve_power_constant(self):
        p2 = roofline_power(2)
        p512 = roofline_power(512)
        assert p2.adam_mw == p512.adam_mw
        assert p2.sram_mw == p512.sram_mw
        delta = p512.total_mw - p2.total_mw
        assert delta == pytest.approx(p512.eve_mw - p2.eve_mw)


class TestEnergyLedger:
    def test_zero_ledger(self):
        assert EnergyLedger().total_energy_j == 0.0

    def test_component_sums(self):
        ledger = EnergyLedger(
            eve_pe_cycles=1000,
            adam_macs=1000,
            sram_reads=100,
            sram_writes=100,
            dram_accesses=10,
            noc_gene_hops=50,
            m0_cycles=20,
        )
        total = (
            ledger.eve_energy_j
            + ledger.adam_energy_j
            + ledger.sram_energy_j
            + ledger.dram_energy_j
            + ledger.noc_energy_j
            + ledger.m0_energy_j
        )
        assert ledger.total_energy_j == pytest.approx(total)
        assert ledger.total_energy_j > 0

    def test_dram_much_pricier_than_sram(self):
        sram = EnergyLedger(sram_reads=100)
        dram = EnergyLedger(dram_accesses=100)
        assert dram.total_energy_j > 50 * sram.total_energy_j


def test_cycles_to_seconds_at_200mhz():
    assert cycles_to_seconds(200_000_000) == pytest.approx(1.0)
    assert cycles_to_seconds(200) == pytest.approx(1e-6)
