"""Activation functions for NEAT node genes: the one activation table.

NEAT node genes carry an ``activation`` attribute (Section II-D of the
paper; Fig. 6 reserves a gene field for it).  The table below mirrors
the set shipped by neat-python, which the paper used as its software
baseline.  Inputs are clamped before a kernel call, since evolved
networks routinely produce large pre-activation sums before weights are
tuned.

Every entry comes in two forms: a float form (one node on the scalar
walk) and an array form (a block of lanes).  Both call the same numpy
kernel (``np.tanh``, ``np.exp``, ``np.sin``, ``np.log``) after the same
clamps in the same order, and numpy gives a Python float the bits it
gives the same value as an array element, so the two forms agree bit
for bit.  The float forms stay plain Python around one kernel call: a
numpy call per clamp would cost microseconds per node.

Clamps let NaN through in both forms (``if z < lo`` / ``elif z > hi`` is
false for NaN, and ``np.maximum``/``np.minimum`` propagate it), so a NaN
pre-activation
gives the kernel's NaN result on every path instead of a clamp edge.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

ActivationFunction = Callable[[float], float]
ArrayActivation = Callable[[np.ndarray], np.ndarray]

_tanh, _exp, _sin, _log = np.tanh, np.exp, np.sin, np.log


def _clip(z, lo, hi):
    """``np.clip`` without its Python-level dispatch: the lanes call it
    once per wave per step."""
    return np.minimum(np.maximum(z, lo), hi)


# Each float form is followed by its array form.  A float clamp is
# ``lo if z < lo else hi if z > hi else z``, which ``_clip`` mirrors.


def sigmoid_activation(z: float) -> float:
    """Steepened logistic sigmoid used by stock NEAT (slope 4.9 in [6])."""
    z = 5.0 * z
    z = -60.0 if z < -60.0 else 60.0 if z > 60.0 else z
    return 1.0 / (1.0 + float(_exp(-z)))


def _sigmoid_array(z):
    return 1.0 / (1.0 + np.exp(-_clip(5.0 * z, -60.0, 60.0)))


def tanh_activation(z: float) -> float:
    z = 2.5 * z
    return float(_tanh(-60.0 if z < -60.0 else 60.0 if z > 60.0 else z))


def _tanh_array(z):
    return np.tanh(_clip(2.5 * z, -60.0, 60.0))


def sin_activation(z: float) -> float:
    z = 5.0 * z
    return float(_sin(-60.0 if z < -60.0 else 60.0 if z > 60.0 else z))


def _sin_array(z):
    return np.sin(_clip(5.0 * z, -60.0, 60.0))


def gauss_activation(z: float) -> float:
    z = -3.4 if z < -3.4 else 3.4 if z > 3.4 else z
    return float(_exp(-5.0 * z * z))


def _gauss_array(z):
    z = _clip(z, -3.4, 3.4)
    return np.exp(-5.0 * z * z)


def relu_activation(z: float) -> float:
    return z if z > 0.0 else 0.0


def _relu_array(z):
    return np.where(z > 0.0, z, 0.0)


def elu_activation(z: float) -> float:
    return z if z > 0.0 else float(_exp(-60.0 if z < -60.0 else z)) - 1.0


def _elu_array(z):
    # The upper clamp only keeps the unselected positive half of the
    # where() from overflowing; exp(+-0.0) is 1.0 either way.
    return np.where(z > 0.0, z, np.exp(_clip(z, -60.0, 0.0)) - 1.0)


def leaky_relu_activation(z: float) -> float:
    return z if z > 0.0 else 0.005 * z


def _lelu_array(z):
    return np.where(z > 0.0, z, 0.005 * z)


def identity_activation(z: float) -> float:
    return z


def _identity_array(z):
    return z


def clamped_activation(z: float) -> float:
    return -1.0 if z < -1.0 else 1.0 if z > 1.0 else z


def _clamped_array(z):
    return _clip(z, -1.0, 1.0)


def inv_activation(z: float) -> float:
    return 0.0 if abs(z) < 1e-7 else 1.0 / z


def _inv_array(z):
    small = np.abs(z) < 1e-7
    return np.where(small, 0.0, 1.0 / np.where(small, 1.0, z))


def log_activation(z: float) -> float:
    return float(_log(1e-7 if z < 1e-7 else z))


def _log_array(z):
    return np.log(np.maximum(1e-7, z))


def exp_activation(z: float) -> float:
    return float(_exp(-60.0 if z < -60.0 else 60.0 if z > 60.0 else z))


def _exp_array(z):
    return np.exp(_clip(z, -60.0, 60.0))


def abs_activation(z: float) -> float:
    return abs(z)


def _abs_array(z):
    return np.abs(z)


def hat_activation(z: float) -> float:
    z = 1.0 - abs(z)
    return 0.0 if z < 0.0 else z


def _hat_array(z):
    return np.maximum(0.0, 1.0 - np.abs(z))


def square_activation(z: float) -> float:
    z = -1e8 if z < -1e8 else 1e8 if z > 1e8 else z
    return z * z


def _square_array(z):
    z = _clip(z, -1e8, 1e8)
    return z * z


def cube_activation(z: float) -> float:
    z = -1e6 if z < -1e6 else 1e6 if z > 1e6 else z
    return z * z * z


def _cube_array(z):
    z = _clip(z, -1e6, 1e6)
    return z * z * z


#: The one activation table: name -> (float form, array form).
ACTIVATIONS: Dict[str, Tuple[ActivationFunction, ArrayActivation]] = {
    "sigmoid": (sigmoid_activation, _sigmoid_array),
    "tanh": (tanh_activation, _tanh_array),
    "sin": (sin_activation, _sin_array),
    "gauss": (gauss_activation, _gauss_array),
    "relu": (relu_activation, _relu_array),
    "elu": (elu_activation, _elu_array),
    "lelu": (leaky_relu_activation, _lelu_array),
    "identity": (identity_activation, _identity_array),
    "clamped": (clamped_activation, _clamped_array),
    "inv": (inv_activation, _inv_array),
    "log": (log_activation, _log_array),
    "exp": (exp_activation, _exp_array),
    "abs": (abs_activation, _abs_array),
    "hat": (hat_activation, _hat_array),
    "square": (square_activation, _square_array),
    "cube": (cube_activation, _cube_array),
}

#: Stable integer codes for the hardware gene encoding (Fig. 6 reserves an
#: "Activation" attribute field in the 64-bit node gene).  Order must never
#: change once genomes have been serialised to hardware words.
ACTIVATION_CODES: Dict[str, int] = {name: i for i, name in enumerate(sorted(ACTIVATIONS))}
ACTIVATION_NAMES: Dict[int, str] = {i: name for name, i in ACTIVATION_CODES.items()}
