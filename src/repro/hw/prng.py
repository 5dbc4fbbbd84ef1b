"""XOR-WOW pseudo-random number generator.

"The PRNG feeds a 8-bit random numbers every cycle to all the PEs ... We
use the XOR-WOW algorithm, also used within NVIDIA GPUs" (Section IV-C4).

This is Marsaglia's xorwow (Journal of Statistical Software 2003), the
exact generator cuRAND's ``XORWOW`` implements: a 5-word xorshift core
with a Weyl-sequence counter added on output.  The hardware delivers one
8-bit value per cycle; :meth:`next_byte` models that port, and the other
helpers derive the comparison/perturbation values the PE stages consume.
"""

from __future__ import annotations

from typing import Iterator, List

_MASK32 = 0xFFFFFFFF


class XorWow:
    """32-bit xorwow; deterministic for a given 5-word seed state."""

    def __init__(self, seed: int = 0xDEADBEEF) -> None:
        self.seed(seed)

    def seed(self, seed: int) -> None:
        """Initialise the 5-word state via a splitmix-style expansion."""
        state: List[int] = []
        z = seed & 0xFFFFFFFFFFFFFFFF
        for _ in range(5):
            z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            mixed = z
            mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            word = (mixed ^ (mixed >> 31)) & _MASK32
            state.append(word if word else 1)  # avoid an all-zero xorshift state
        self._x, self._y, self._z, self._w, self._v = state
        self._d = 362437  # Weyl counter increment start (Marsaglia's choice)

    def next_u32(self) -> int:
        """One xorwow step: period 2^192 - 2^32."""
        t = self._x ^ ((self._x >> 2) & _MASK32)
        self._x, self._y, self._z, self._w = self._y, self._z, self._w, self._v
        v = self._v
        v = (v ^ ((v << 4) & _MASK32)) ^ (t ^ ((t << 1) & _MASK32))
        self._v = v & _MASK32
        self._d = (self._d + 362437) & _MASK32
        return (self._v + self._d) & _MASK32

    def next_byte(self) -> int:
        """The 8-bit per-cycle output port feeding the PEs."""
        return self.next_u32() & 0xFF

    def next_unit(self) -> float:
        """Uniform in [0, 1) from the 8-bit port (probability compares)."""
        return self.next_byte() / 256.0

    def next_signed_byte(self) -> int:
        """Two's-complement interpretation of the 8-bit port, [-128, 127]."""
        byte = self.next_byte()
        return byte - 256 if byte >= 128 else byte

    def bytes(self, count: int) -> List[int]:
        """The next ``count`` values of the 8-bit port, in one call.

        The same sequence as ``count`` calls of :meth:`next_byte`, stepped
        with the state held in locals.
        """
        # The state words stay below 2**32, so one mask over the xor drops
        # what next_u32's per-term masks drop; the Weyl counter is reduced
        # once at the end, as only its low byte is output.
        x, y, z, w, v, d = self._x, self._y, self._z, self._w, self._v, self._d
        out: List[int] = []
        append = out.append
        for _ in range(count):
            t = x ^ (x >> 2)
            x = y
            y = z
            z = w
            w = v
            v = (v ^ (v << 4) ^ t ^ (t << 1)) & _MASK32
            d += 362437
            append((v + d) & 0xFF)
        self._x, self._y, self._z, self._w, self._v = x, y, z, w, v
        self._d = d & _MASK32
        return out

    def stream(self) -> Iterator[int]:
        while True:
            yield self.next_byte()

    @property
    def state(self) -> tuple:
        return (self._x, self._y, self._z, self._w, self._v, self._d)
