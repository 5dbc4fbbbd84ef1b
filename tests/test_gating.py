"""Unit tests for the clock/power gating model (Section VI-D)."""

import pytest

from repro.hw.energy import (
    CLOCK_GATED_POWER_FRACTION,
    POWER_GATED_POWER_FRACTION,
    gated_power,
    roofline_power,
)


def test_always_computing_equals_roofline():
    est = gated_power(compute_seconds=1.0, interaction_seconds=0.0)
    assert est.duty_cycle == 1.0
    assert est.average_power_mw == pytest.approx(roofline_power(256).total_mw)


def test_mostly_idle_approaches_gated_floor():
    est = gated_power(compute_seconds=1e-6, interaction_seconds=1.0, mode="clock")
    floor = roofline_power(256).total_mw * CLOCK_GATED_POWER_FRACTION
    assert est.average_power_mw == pytest.approx(floor, rel=0.01)


def test_power_gating_beats_clock_gating():
    clock = gated_power(0.001, 0.099, mode="clock")
    power = gated_power(0.001, 0.099, mode="power")
    none = gated_power(0.001, 0.099, mode="none")
    assert power.average_power_mw < clock.average_power_mw < none.average_power_mw


def test_lower_compute_window_saves_energy_rate():
    """Section VI-D: 'The lower the compute window for GENESYS the more
    time is used to interact with the environment thus saving more
    energy' — average power falls as the compute window shrinks."""
    slow_compute = gated_power(0.010, 0.090)
    fast_compute = gated_power(0.001, 0.099)
    assert fast_compute.average_power_mw < slow_compute.average_power_mw


def test_scales_with_pe_count():
    small = gated_power(0.001, 0.099, num_eve_pes=16)
    large = gated_power(0.001, 0.099, num_eve_pes=512)
    assert small.average_power_mw < large.average_power_mw


def test_unknown_mode_raises():
    with pytest.raises(ValueError):
        gated_power(1.0, 1.0, mode="quantum")


def test_none_mode_duty_independent():
    a = gated_power(0.5, 0.5, mode="none")
    b = gated_power(0.1, 0.9, mode="none")
    assert a.average_power_mw == pytest.approx(b.average_power_mw)
