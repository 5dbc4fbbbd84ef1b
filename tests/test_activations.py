"""Unit tests for repro.neat.activations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.neat.activations import (
    ACTIVATION_CODES,
    ACTIVATION_NAMES,
    ACTIVATIONS,
    clamped_activation,
    gauss_activation,
    identity_activation,
    relu_activation,
    sigmoid_activation,
    tanh_activation,
)


def test_sigmoid_range():
    for z in (-100.0, -1.0, 0.0, 1.0, 100.0):
        assert 0.0 <= sigmoid_activation(z) <= 1.0


def test_sigmoid_midpoint():
    assert sigmoid_activation(0.0) == pytest.approx(0.5)


def test_sigmoid_is_steepened():
    # NEAT's sigmoid uses slope 4.9-ish; at z=1 it should be near saturated.
    assert sigmoid_activation(1.0) > 0.99


def test_tanh_symmetry():
    assert tanh_activation(0.7) == pytest.approx(-tanh_activation(-0.7))


def test_relu():
    assert relu_activation(-3.0) == 0.0
    assert relu_activation(4.5) == 4.5


def test_clamped():
    assert clamped_activation(-9.0) == -1.0
    assert clamped_activation(0.25) == 0.25
    assert clamped_activation(9.0) == 1.0


def test_gauss_peak_at_zero():
    assert gauss_activation(0.0) == pytest.approx(1.0)
    assert gauss_activation(2.0) < gauss_activation(0.0)


def test_identity():
    assert identity_activation(3.3) == 3.3


def test_no_overflow_on_extreme_inputs():
    for name, (fn, _array) in ACTIVATIONS.items():
        for z in (-1e9, -60.0, 0.0, 60.0, 1e9):
            value = fn(z)
            assert math.isfinite(value), f"{name}({z}) not finite"


def test_registry_contains_builtins():
    for name in ("sigmoid", "tanh", "relu", "identity"):
        assert name in ACTIVATIONS


def test_codes_are_stable_and_bijective():
    assert len(ACTIVATION_CODES) == len(ACTIVATION_NAMES)
    for name, code in ACTIVATION_CODES.items():
        assert ACTIVATION_NAMES[code] == name
    # codes must fit the 4-bit hardware field (Fig. 6)
    assert max(ACTIVATION_CODES.values()) < 16


def test_registry_len_matches_codes():
    assert len(ACTIVATIONS) == len(ACTIVATION_CODES)


# ---------------------------------------------------------------------------
# the one table: float form == array form, bit for bit

#: Where each activation's clamps (or branches) switch, in units of its
#: input ``z``.
CLAMP_EDGES = {
    "sigmoid": [-12.0, 12.0],  # 5z at +-60
    "tanh": [-24.0, 24.0],  # 2.5z at +-60
    "sin": [-12.0, 12.0],
    "gauss": [-3.4, 3.4],
    "relu": [0.0],
    "elu": [-60.0, 0.0],
    "lelu": [0.0],
    "identity": [],
    "clamped": [-1.0, 1.0],
    "inv": [-1e-7, 1e-7],
    "log": [1e-7],
    "exp": [-60.0, 60.0],
    "abs": [0.0],
    "hat": [-1.0, 0.0, 1.0],
    "square": [-1e8, 1e8],
    "cube": [-1e6, 1e6],
}
SPECIAL_POINTS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300]


def edge_points(name):
    points = list(SPECIAL_POINTS)
    for edge in CLAMP_EDGES[name]:
        points += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return points


def test_every_activation_has_clamp_edges():
    assert set(CLAMP_EDGES) == set(ACTIVATIONS)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_float_and_array_forms_agree_at_edges(name):
    """NaN passes every clamp in both forms, and each side of every clamp
    edge gives the same bits one value at a time and as an array."""
    scalar, array = ACTIVATIONS[name]
    points = edge_points(name)
    with np.errstate(all="ignore"):
        lanes = array(np.array(points))
    for z, lane in zip(points, lanes):
        assert float(scalar(z)).hex() == float(lane).hex(), (name, z)


@given(z=st.floats(allow_nan=True, allow_infinity=True))
def test_float_and_array_forms_agree_anywhere(z):
    for name, (scalar, array) in ACTIVATIONS.items():
        with np.errstate(all="ignore"):
            lane = array(np.array([z, z, z]))[1]
        assert float(scalar(z)).hex() == float(lane).hex(), (name, z)
