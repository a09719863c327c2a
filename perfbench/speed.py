"""Host-speed probe for timings on a shared machine.

On a host whose other tenants come and go, the same pass can take twice as
long from one minute to the next.  :class:`SpeedProbe` runs a small fixed
kernel every few milliseconds (from a ``SIGALRM`` handler, so it interleaves
with the workload in the same thread) and records how long each run took.
An operation's time is then reported at reference speed: its wall time,
minus the probe's own share, times ``REFERENCE_KERNEL_S`` over the mean
kernel time seen while the operation ran.  The kernel mixes interpreter
work and small numpy calls, like the package does.
"""
from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np

# kernel duration that defines "reference speed"; a quiet run of this
# benchmark's host measures roughly this
REFERENCE_KERNEL_S = 1.4e-4
INTERVAL_S = 0.01
NEAREST = 20

_SOURCE = np.random.default_rng(0).integers(0, 1 << 30, size=2000)
_BUFFER = np.empty_like(_SOURCE)
_SMALL = np.random.default_rng(1).random(64)
_SMALL_SORTED = np.sort(_SMALL)
_SCRATCH = np.empty(64)


class _Holder:
    __slots__ = ("x",)


_HOLDER = _Holder()
_HOLDER.x = 0.5


def _step(a: float, b: float) -> float:
    return a * 0.5 + b


def kernel() -> int:
    """Fixed work that allocates no containers, so it never triggers the
    garbage collector and does not depend on the workload's heap.

    It mixes an integer loop, function calls and attribute reads, small
    numpy calls written into a preallocated buffer, and a 2,000-element sort.
    """
    x = 0
    for i in range(300):
        x = (x * 31 + i) & 0xFFFF
    s = 0.0
    for i in range(40):
        s = _step(s, _HOLDER.x) % 7.0 + math.sqrt(i + 1.0)
        np.multiply(_SMALL, s, out=_SCRATCH)
        np.add(_SCRATCH, _SMALL, out=_SCRATCH)
    np.copyto(_BUFFER, _SOURCE)
    _BUFFER.sort()
    return x + int(np.searchsorted(_SMALL_SORTED, s % 1.0))


class SpeedProbe:
    """Samples kernel durations while active; normalizes intervals by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.speeds: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()  # warms caches the workload evicted; only the second run is timed
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.speeds.append(end - timed)

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``INTERVAL_S`` while the block runs in this thread."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed_factor(self) -> float:
        """Reference kernel time over the median kernel time of all samples."""
        return REFERENCE_KERNEL_S / statistics.median(self.speeds)

    def normalize(self, start: float, end: float) -> float:
        """Seconds the interval [start, end) would take at reference speed.

        Uses the samples inside the interval, or when there are fewer than
        ``NEAREST`` of them, also up to ``NEAREST`` on either side.  The
        probe's own time inside the interval is taken out.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.durations[lo:hi])
        if hi - lo >= NEAREST:
            window = self.speeds[lo:hi]
        else:
            window = self.speeds[max(lo - NEAREST, 0):hi + NEAREST]
        if not window:
            raise RuntimeError("no speed samples near the interval")
        return (end - start - own) * REFERENCE_KERNEL_S / (sum(window) / len(window))
