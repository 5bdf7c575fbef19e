"""Host-speed calibration for time metrics on a shared machine.

The machine this benchmark was written on (an Intel Xeon with 2 vCPUs,
shared with other tenants) switches between speed states within seconds:
the python kernel below took 18-20 ms in one state and 30-36 ms in the
other, and 15-second runs of small-mix at one seed read 49 to 70 ops/s.
So a fixed kernel shaped like the workload's hot path is timed every
INTERVAL_S seconds while operations run; the reference time of the kernel
over its measured time is the host speed, and time metrics are reported
at the reference speed: raw time x host speed. On those same runs this
read 31.8 to 34.3 ops/s. The kernels call nothing in the code under test,
so a change to the library moves the reported numbers as it moves the
raw ones; the raw numbers are printed as well.

Only operations timed in the measuring process are calibrated. Work in
other processes (set-up, and the cli-cold processes, which spend most of
their time importing) is reported raw: the kernel does not track it, and
scaling cli-cold latencies by kernel timings taken between the processes
widened their spread over six seeds from 0.07 to 0.18 of the median.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.25

_P = np.random.default_rng(1).random(6)
_P /= _P.sum()
_X = np.random.default_rng(2).normal(size=6)
_ROW = np.random.default_rng(3).random(20000)
_ROWS = [_ROW] * 30


def _tiny_modular(lam):
    pos = _P > 0.0
    if not np.any(pos):
        return 0.0
    v = np.abs(_X[pos]) / lam
    return float(np.dot(_P[pos], v ** 2.0))


def python_kernel():
    """Scalar bisection over tiny arrays: interpreter and call overhead."""
    lo, hi = 1e-3, 1e3
    for _ in range(2000):
        mid = (lo * hi) ** 0.5
        if _tiny_modular(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            lo, hi = 1e-3, 1e3


def array_kernel():
    """Stacking and powers of 20 000-entry rows: memory traffic."""
    for _ in range(3):
        np.max(np.stack(_ROWS), axis=0)
        v = np.abs(np.stack(_ROWS[:10])) / 1.7
        float(np.dot(_ROW, (v ** 7.0)[3]))


# kernel time at the reference speed: its median on the machine above
KERNELS = {"python": (python_kernel, 0.025), "array": (array_kernel, 0.012)}


class HostSampler:
    """Times the kernel from a SIGALRM handler every INTERVAL_S seconds.

    Used as a context manager around in-process operations; `measure`
    turns an operation's start and end into its own time (the handler's
    time removed) and the host speed sampled around it.
    """

    def __init__(self, kind):
        self.kernel, self.reference_s = KERNELS[kind]
        self.starts, self.ends = [], []

    def _tick(self, *_):
        if len(self.starts) != len(self.ends):
            return  # a tick that arrives during a tick is dropped
        self.starts.append(time.perf_counter())
        self.kernel()
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0, t1):
        """(seconds of the operation's own work, host speed) for [t0, t1],
        from the ticks within one interval either side of it (or the
        latest tick before it)."""
        done = len(self.ends)
        first = bisect.bisect_left(self.starts, t0, hi=done)
        last = bisect.bisect_right(self.starts, t1, hi=done)
        inside = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S, hi=done)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S, hi=done)
        window = range(lo, hi) if hi > lo else range(lo - 1, lo)
        mean_kernel = sum(self.ends[i] - self.starts[i] for i in window) / len(window)
        return t1 - t0 - inside, self.reference_s / mean_kernel
