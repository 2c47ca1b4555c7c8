"""Times at a fixed host speed, from a reference kernel sampled during the op.

On a shared host the same op runs up to 2x slower while other tenants load
the cores, in bursts of a fraction of a second and in phases of minutes, so
neither the median nor the fastest of a run's ops is steady from run to run.
A ``Sampler`` interrupts the region it wraps every ``INTERVAL_S`` seconds
(``SIGALRM``) and times ``kernel``, a fixed piece of interpreted Python and
small numpy calls that belongs to the benchmark, not to the program.  The
kernel's mean time in the region says how fast the host ran there, and::

    time at reference speed = (region time - time spent sampling)
                              * REFERENCE_S / mean kernel time

so an op that does the same work reads about the same under any load (to
the extent the op slows as the kernel does), while a program that does
less work reads less.  The kernel runs twice per sample
and only the second run is timed, so that the op's working set evicting the
kernel's does not read as a slow host.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
# The kernel's time per sample on a quiet 2-vCPU Intel Xeon host (the fastest
# twentieth of samples; loaded phases there read 60-70 us), so that an op's
# time at reference speed reads about its wall time on that host when quiet.
REFERENCE_S = 40e-6

_V = np.arange(64.0)


def kernel() -> float:
    """The reference work: an interpreted loop and small numpy reductions."""
    s = 0
    for i in range(300):
        s += i * 3 % 7
    for i in range(10):
        s += float(np.exp(-_V[i:]) @ _V[i:])
    return s


class Sampler:
    """Samples the kernel's time while the ``with`` block runs, and once
    each at its start and end, so that even a short block has samples.

    ``spent_s`` and ``spent_cpu_s`` are the wall and process CPU time that
    sampling took inside the block, to be taken off the block's own times."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = self.spent_cpu_s = 0.0
        self._armed = False

    def _sample(self) -> None:
        kernel()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        if not self._armed:  # late, or landing inside a sample
            return
        self._armed = False
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            self._sample()
        finally:
            self.spent_s += time.perf_counter() - w0
            self.spent_cpu_s += time.process_time() - c0
            self._armed = True

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._armed = False
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def slowdown(self) -> float:
        """The kernel's mean time in the block over ``REFERENCE_S``."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def at_reference(self, elapsed: float, cpu: bool = False) -> float:
        """``elapsed`` (wall, or process CPU with ``cpu``), timed inside the
        block, less the sampling, at reference speed."""
        spent = self.spent_cpu_s if cpu else self.spent_s
        return (elapsed - spent) / self.slowdown
