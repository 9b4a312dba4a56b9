"""Host-speed calibration for timings on a shared machine.

The cores under the benchmark are shared, and the speed of the same
pure-Python loop drifts by about ±30 % over a few seconds. A raw timing
therefore measures the neighbours as much as the program. ``HostClock`` times
a fixed reference kernel every ``PERIOD`` seconds from a SIGALRM handler, so
samples fall inside long ops too. A span of program time is then scaled by
how slow the kernel ran around it:

    calibrated = raw * NOMINAL_KERNEL_S / (mean kernel time near the span)

Calibrated seconds are the seconds the span would have taken with the host at
the speed where the kernel takes ``NOMINAL_KERNEL_S``. On a shared 2-vCPU VM this
cut the quartile spread of one op's time from 25-38 % to 7-9 %. The handler's
own time is tracked as ``stolen`` and subtracted from the raw span.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.1
# median kernel time on the shared 2-vCPU x86-64 VM (CPython 3.11) where the
# benchmark was defined; it only sets the scale of calibrated seconds
NOMINAL_KERNEL_S = 1.3e-3


def reference_kernel() -> int:
    """Integer, bit and list work like the package's inner loops."""
    acc = 0
    table = [0] * 64
    for i in range(4000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc += (m & -m).bit_length() + (m >> 7 & 63)
        table[i & 63] ^= acc
    return acc


class HostClock:
    def __init__(self):
        self.at: list[float] = []  # midpoint of each kernel sample
        self.took: list[float] = []  # its duration
        self.stolen = 0.0  # seconds spent in the handler so far

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.stolen

    def busy(self, since: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, program seconds) from a ``mark`` until now."""
        end, stolen = self.mark()
        return since[0], end, end - since[0] - (stolen - since[1])

    def calibrate(self, start: float, end: float, seconds: float) -> float:
        """Scale ``seconds`` spent in [start, end] by the kernel samples taken
        inside that window plus the nearest one on each side."""
        lo = max(0, bisect.bisect_left(self.at, start) - 1)
        hi = min(len(self.at), bisect.bisect_right(self.at, end) + 1)
        near = self.took[lo:hi]
        if not near:  # no sample at all yet: leave the time as measured
            return seconds
        return seconds * NOMINAL_KERNEL_S * len(near) / sum(near)
