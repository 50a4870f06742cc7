"""A fixed reference loop that measures how fast the host is right now.

On a shared host the speed of one core moves by 20-40 % within a minute
(other tenants' load on sibling hyperthreads, clock changes), so an
absolute rate drifts between runs of the same code far more than any
gain a change is likely to make. The benchmark times this loop next to
every round of CLI children and reports the work per reference time,
which cancels most of that drift.

The loop shares no code with demgranulo, so no change to the program
can move it. It mixes the kinds of work the pure build spends its time
on: interpreter arithmetic, numpy scalar indexing in Python loops, numpy
calls on small arrays, and ``Fraction`` arithmetic. It does no file I/O:
on this kind of host a burst of small writes now and then stalls for
seconds, which would swamp the loop. The benchmark pins itself and its
children to one CPU, so the loop and the rounds run on the same core.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_LOOP_INTS = 1_200_000
_SCALAR_CELLS = 400_000
_SMALL_CALLS = 30_000
_SMALL_SIDE = 48
_FRACTIONS = 25_000


class Reference:
    """The reference loop, with its inputs built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._scalar = rng.integers(0, 1000, _SCALAR_CELLS).astype(np.int64)
        self._out = np.empty_like(self._scalar)
        self._small = rng.integers(0, 100, _SMALL_SIDE).astype(np.int64)

    def _interpreter(self) -> int:
        s = 0
        for i in range(_LOOP_INTS):
            s += i * i
        return s

    def _scalar_indexing(self) -> int:
        a, out = self._scalar, self._out
        acc = a[0]
        for i in range(a.shape[0]):
            v = a[i]
            if v < acc:
                acc = v
            out[i] = acc
        return int(out[-1])

    def _small_arrays(self) -> int:
        total = 0
        for i in range(_SMALL_CALLS):
            a = np.zeros(_SMALL_SIDE, dtype=np.int64)
            a[i % _SMALL_SIDE] = i
            np.minimum(a, self._small, out=a)
            total += int(a.sum())
        return total

    def _fractions(self) -> int:
        total = 0
        for i in range(1, _FRACTIONS):
            total += (Fraction(i % 97, i) + Fraction(i % 13, i + 1)).numerator
        return total

    def seconds(self) -> float:
        """Wall time of one pass of the loop."""
        t0 = time.perf_counter()
        self._interpreter()
        self._scalar_indexing()
        self._small_arrays()
        self._fractions()
        return time.perf_counter() - t0
