"""Host-speed correction of the benchmark's timings.

The shared host this benchmark was built on runs the same Python code at
speeds up to 1.7x apart, drifting over seconds to minutes, so raw wall
times of the same work spread past any useful bound from one run to the
next.  While a timed run is going, an interval timer interrupts the
process every INTERVAL_S and runs a fixed slice of interpreter work (dict
lookups on tuple keys and integer arithmetic, no allocation of objects the
garbage collector tracks) in the same thread.  Its duration measures the
host's speed at that moment.

A timed call's raw time is its wall time minus the time spent in slices
during it.  Its corrected time is the raw time multiplied by the mean of
REFERENCE_SLICE_S / slice time over the slices taken during the calls of
the same phase: the time the call would have taken at the speed at which
a slice takes REFERENCE_SLICE_S (its median on a 2-vCPU Intel Xeon
2.0 GHz VM with CPython 3.11, with the host at its usual load).  The
correction is the same for every commit of the program, since the slice
runs no code of the package.
"""

from __future__ import annotations

import array
import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.02
SLICE_REPS = 2000
REFERENCE_SLICE_S = 4.0e-4

_TABLE = {(i, i >> 3): i for i in range(256)}
_KEYS = tuple(_TABLE)

clock = time.perf_counter


def _slice() -> int:
    table, keys, s = _TABLE, _KEYS, 0
    for i in range(SLICE_REPS):
        s += table[keys[i & 255]] ^ (i >> 2)
    return s


class Phase:
    """The timed calls of one phase of a round: raw seconds and the speed
    factors of the slices taken during them."""

    def __init__(self):
        self.raw = 0.0
        self.factor_sum = 0.0
        self.samples = 0

    def add(self, raw: float, factors) -> None:
        self.raw += raw
        self.factor_sum += sum(factors)
        self.samples += len(factors)

    def corrected(self, fallback: float) -> float:
        """Raw time at the reference speed; `fallback` is the factor used
        when no slice fell inside the phase's calls."""
        factor = self.factor_sum / self.samples if self.samples else fallback
        return self.raw * factor


class Meter:
    """The slices taken while `running`, one speed factor each."""

    def __init__(self):
        self.factors = array.array("d")
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        _slice()
        d = clock() - t0
        self.spent += d
        self.factors.append(REFERENCE_SLICE_S / d)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_factor(self, start: int) -> float:
        """Mean factor of the slices taken since `len(factors)` was
        `start` (1 if none was)."""
        seg = self.factors[start:]
        return sum(seg) / len(seg) if seg else 1.0

    @contextmanager
    def measure(self, phase: Phase):
        """Adds the enclosed block's raw time and slices to `phase`."""
        n0, s0, t0 = len(self.factors), self.spent, clock()
        try:
            yield
        finally:
            t1 = clock()
            phase.add(t1 - t0 - (self.spent - s0), self.factors[n0:])


METER = Meter()
