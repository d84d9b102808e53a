"""The uniform draws of ``numpy.random.default_rng(0)``, without ``numpy.random``.

The residual checks default to test vectors from ``default_rng(0)``.  Importing
``numpy.random`` for them costs a process about 12 ms and 6 MB of peak memory
(numpy 2.4 on x86_64), so :class:`Seed0Stream` replays that generator instead:
PCG64 (XSL-RR 128/64) from the state and increment that ``SeedSequence(0)``
gives it.  Each step sets state <- state * M + inc mod 2^128 and outputs
rotr64(hi ^ lo, state >> 122) of the new state; a draw in [low, high) is
low + (high - low) * ((out >> 11) * 2^-53), which is how ``Generator.uniform``
turns an output into a double.

The 128-bit steps run as Python integers in object arrays: j + 1 steps from a
state s reach A_j * s + C_j, with A_j = M^(j+1) and C_j the state j + 1 steps
from 0, so a block of steps is one multiply-add; only the rotation runs in
uint64.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: The PCG64 multiplier.
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
#: ``default_rng(0).bit_generator.state["state"]``: its state and increment.
SEED0_STATE = 35399562948360463058890781895381311971
SEED0_INC = 87136372517582989555478159403783844777

_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
#: Steps taken from one state with one multiply-add of object arrays.
_BLOCK = 1024


@cache
def _jump_table() -> tuple[np.ndarray, np.ndarray]:
    """Object arrays A, C with state_{j+1} = A[j] * state_0 + C[j] mod 2^128, j < ``_BLOCK``."""
    a = np.empty(_BLOCK, dtype=object)
    c = np.empty(_BLOCK, dtype=object)
    mult, inc = 1, 0
    for j in range(_BLOCK):
        mult = mult * MULTIPLIER & _MASK128
        inc = (inc * MULTIPLIER + SEED0_INC) & _MASK128
        a[j], c[j] = mult, inc
    return a, c


class Seed0Stream:
    """``numpy.random.default_rng(0)`` restricted to ``uniform``, draw for draw.

    Successive calls continue the stream, so k calls give bitwise what k
    calls of ``default_rng(0).uniform`` with the same arguments give.
    """

    def __init__(self):
        self._state = SEED0_STATE

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        a, c = _jump_table()
        unit = np.empty(size)
        for start in range(0, size, _BLOCK):
            k = min(size - start, _BLOCK)
            states = (a[:k] * self._state + c[:k]) & _MASK128
            self._state = states[-1]
            hi = (states >> 64).astype(np.uint64)
            out = hi ^ (states & _MASK64).astype(np.uint64)
            turn = hi >> np.uint64(58)
            out = (out >> turn) | (out << ((np.uint64(64) - turn) & np.uint64(63)))
            unit[start:start + k] = out >> np.uint64(11)
        unit *= 2.0 ** -53
        return low + (high - low) * unit
