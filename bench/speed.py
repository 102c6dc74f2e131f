"""The machine's speed, measured beside the program to take its drift out.

The benchmark's host is a shared virtual machine whose speed drifts by up
to 1.5 times over seconds to minutes, for every process alike: the same
round of operations took from 3.1 s to 5.5 s within two minutes, and the
process's CPU time followed its wall-clock time, so the drift is not time
spent descheduled but slower execution.  Raw times of the same operations
then spread more between runs than any change worth detecting.

``Speedometer.time`` times a call and, beside it, a fixed piece of
pure-Python work (``reference``) that shares no code with divflag: once
just before the call, once just after it, and every
``SAMPLE_INTERVAL_S`` during it, from a timer signal.  The call's time,
less the time of the samples taken during it, is divided by the mean
sample and multiplied by ``NOMINAL_S``: the time the call would take on
the machine at the speed at which one reference takes ``NOMINAL_S``.  A
change to divflag moves the call's time and not the reference's, so it
shows in full.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# a typical time of one reference on the 2-vCPU Xeon virtual machine of the
# reference figures in README.md (0.8 to 1.6 ms there), so that scaled times
# read close to that machine's raw ones; a fixed unit, never measured anew
NOMINAL_S = 0.00125
SAMPLE_INTERVAL_S = 0.1

_MATRIX = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(7)]
           for i in range(6)]


def reference() -> int:
    """Exact elimination over Q, tuple hashing and big-integer arithmetic:
    the kinds of work divflag's time goes to."""
    rows = [row[:] for row in _MATRIX]
    seen = {}
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        seen[tuple(rows[c])] = c
    total = 0
    for a in range(100):
        key = tuple(range(a % 17, a % 17 + 8))
        seen[key] = seen.get(key, 0) + 1
        total += (a * 1234567891) ** 3 % 1000003
    return total


class Speedometer:
    """Times calls in machine-speed-independent seconds.  After ``time``,
    ``seconds`` holds the call's own wall-clock time and ``scaled`` that
    time at the nominal speed.  Uses SIGALRM, so it lives in the main
    thread and one at a time."""

    def __init__(self):
        self.seconds = 0.0
        self.scaled = 0.0
        self._samples: list[float] = []
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> None:
        """One reference, with the garbage collector off, so that a
        collection the program's allocations have made due does not land
        in it."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        seconds = time.perf_counter() - start
        if enabled:
            gc.enable()
        self._samples.append(seconds)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self._stolen += time.perf_counter() - start

    def time(self, fn):
        """``fn()``, timed; an exception from it passes through, after the
        timing is recorded."""
        self._samples = []
        self._sample()
        self._stolen = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.seconds = time.perf_counter() - start - self._stolen
            self._sample()
            self.scaled = self.seconds * NOMINAL_S / statistics.mean(self._samples)
