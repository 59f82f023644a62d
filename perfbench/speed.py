"""Host-speed probe: rescales measured times to a nominal host speed.

On a shared machine the same code runs at a speed that depends on what
other tenants do.  On a shared 2-vCPU Intel Xeon host, a fixed
pure-Python loop took anywhere from 0.07 to 0.15 s, in phases lasting
seconds to minutes, and the same robots synthesis took 22 s in one run
and 32 s in the next.  Rescaling by the probe brought that spread down
to a few percent.

The probe times a tiny fixed kernel (about 2 ms, independent of sttube)
from a SIGALRM handler every ``INTERVAL_S`` while an operation runs, once
when it starts and once when it stops.  ``scale()`` turns a measured time
into the time at nominal speed: ``NOMINAL_KERNEL_S`` over the mean kernel
time.  ``clock()`` is ``perf_counter()`` minus the probe's own time, so
the handler's work is not charged to the operation.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

NOMINAL_KERNEL_S = 2.0e-3  # the kernel's time at nominal speed
INTERVAL_S = 0.25


def kernel() -> float:
    s = 0.0
    for i in range(20000):
        s += math.sin(i * 1e-3)
    return s


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        kernel()
        d = perf_counter() - t0
        self.samples.append(d)
        self.busy_s += d

    def clock(self) -> float:
        """``perf_counter()`` minus the time the probe itself has taken."""
        return perf_counter() - self.busy_s

    def scale(self) -> float:
        """Factor from measured seconds to seconds at nominal speed."""
        return NOMINAL_KERNEL_S / statistics.fmean(self.samples)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
