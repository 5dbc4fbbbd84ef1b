"""XOR-WOW pseudo-random number generator.

"The PRNG feeds a 8-bit random numbers every cycle to all the PEs ... We
use the XOR-WOW algorithm, also used within NVIDIA GPUs" (Section IV-C4).

This is Marsaglia's xorwow (Journal of Statistical Software 2003), the
exact generator cuRAND's ``XORWOW`` implements: a 5-word xorshift core
with a Weyl-sequence counter added on output, of which the hardware
delivers the low 8 bits per cycle.  :func:`xorwow_bytes` steps one
generator per PE lane (:mod:`.pe`), all lanes at once; ``XorWow`` in
``tests/eve_reference.py`` steps one generator a byte at a time and is
the reference these are tested against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Weyl counter increment, and its start (Marsaglia's choice).
WEYL_STEP = 362437


def splitmix_states(seeds: Sequence[int]) -> np.ndarray:
    """The 5-word xorshift states of ``seeds``, (5, n) ``uint32``.

    A splitmix64 expansion of each 64-bit seed, all seeds in one pass.
    """
    z = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)
    words = np.empty((5, len(z)), dtype=np.uint32)
    for row in words:
        z += np.uint64(0x9E3779B97F4A7C15)
        mixed = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        mixed = (mixed ^ (mixed >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        row[:] = mixed ^ (mixed >> np.uint64(31))  # keeps the low 32 bits
        row[row == 0] = 1  # avoid an all-zero xorshift state
    return words


def xorwow_bytes(state: np.ndarray, count: int) -> np.ndarray:
    """Step every generator of ``state`` ``count`` times, in place, and
    return their 8-bit outputs, (n, count) ``uint8``.  ``state`` is (6, n)
    ``uint32``, a generator per column: five xorshift words oldest first,
    then the Weyl counter."""
    n = state.shape[1]
    # Row k + 5 is the word step k appends (rows 0-4: the start state).
    seq = np.empty((count + 5, n), dtype=np.uint32)
    seq[:5] = state[:5]
    t = np.empty(n, dtype=np.uint32)
    u = np.empty(n, dtype=np.uint32)
    for k in range(count):
        np.right_shift(seq[k], 2, out=t)
        t ^= seq[k]
        np.left_shift(t, 1, out=u)
        t ^= u
        np.left_shift(seq[k + 4], 4, out=u)
        u ^= seq[k + 4]
        np.bitwise_xor(u, t, out=seq[k + 5])
    state[:5] = seq[count:]
    steps = np.arange(1, count + 1, dtype=np.uint32) * np.uint32(WEYL_STEP)
    out = seq[5:]
    out += steps[:, None]
    out += state[5]
    state[5] += np.uint32(count * WEYL_STEP & _MASK32)
    return out.astype(np.uint8).T
