"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by a third or more over
minutes: another tenant on the same physical core slows every instruction,
and the loss shows as the program's own CPU time, not as steal. A fixed
reference kernel, run for DUTY of the time between rows and in short blocks
between passes and set-ups, tracks that drift. Its trimmed mean time over a
stretch of the run, divided by its time on the reference machine, is that
stretch's slowdown factor; run.py divides each pass's times, and the set-up
times, by the factor measured during them, so a metric reads as it would on
the reference machine. Time spent in the kernel is subtracted from the pass
that contained it.

The kernel is the operations and resolution of the optical-flow update: a
bilinear gather (scipy.ndimage.map_coordinates), a 1-D correlation, a box
filter and masked elementwise arithmetic on 270x480 float64 planes, into
preallocated outputs. A shared core slows different code by different
amounts, and the slow spells differ in kind, so the kernel was chosen by
how well its time tracked pass times on the host the benchmark was written
on, in several spells. Pass time against kernel time, log-log, over 40 to
130 passes per spell:

| workload | kernel | correlation | slope | spread of ratio over runs of passes |
|---|---|---|---|---|
| frames | this kernel | 0.93 | 0.82 | 0.024 |
| frames | gather and filters only | 0.88-0.98 | 0.71-0.79 | 0.024-0.035 |
| frames | JSON round trip and dict work | 0.89-0.96 | 0.65-0.79 | 0.025-0.078 |
| replay | this kernel | 0.81 | 0.83 | 0.026 |
| replay | gather and filters only | 0.95 | 1.01 | 0.029 |
| replay | JSON round trip and dict work | 0.70-0.93 | 0.62-0.85 | 0.016-0.073 |
| replay | the same over a cache-cold 12000-row list | 0.70 | 0.49 | 0.056 |

Undivided, the same runs of passes spread 0.08-0.09. A streaming numpy
stencil and a random gather from a 16 MB array tracked worse still. The
kernel is the benchmark's own code on numpy and scipy, so a change to the
program does not change it.
"""

from __future__ import annotations

import array
import functools
import gc
import time

import numpy as np
from scipy import ndimage

clock = time.perf_counter

# Kernel time on the reference machine: about its median on the two-core
# Xeon host the benchmark was written on.
REFERENCE_S = 0.011
DUTY = 0.05  # share of the time between rows spent in kernel samples
TRIM = 0.05  # share of the slowest samples left out of the mean (preemptions)


@functools.cache
def _planes():
    """The kernel's planes (about 6 MB), made on first use rather than at import."""
    plane = np.random.default_rng(0).random((270, 480))
    y, x = np.mgrid[0:270, 0:480].astype(np.float64)
    coords = np.stack([y + 0.3 * np.sin(x / 7.0), x + 0.4 * np.cos(y / 5.0)])
    taps = np.exp(-np.arange(-3.0, 4.0) ** 2 / 4.0)
    return plane, plane > 0.1, coords, taps, tuple(np.empty_like(plane) for _ in range(3))


def kernel() -> float:
    """One unit of reference work, into preallocated outputs so that the
    allocator's state does not enter the time."""
    plane, mask, coords, taps, (a, b, c) = _planes()
    ndimage.map_coordinates(plane, coords, order=1, mode="nearest", output=a)
    ndimage.correlate1d(a, taps, axis=1, mode="nearest", output=b)
    ndimage.uniform_filter(b, size=5, mode="nearest", output=a)
    for _ in range(3):
        np.multiply(a, plane, out=b)
        np.add(b, a, out=c)
        np.copyto(c, plane, where=mask)
        np.multiply(c, 0.5, out=a)
        np.subtract(a, plane, out=b)
    return float(b[0, 0])


class Calibrator:
    """Kernel times per phase of a run, and the time spent taking them."""

    def __init__(self) -> None:
        self.samples: dict[str, array.array] = {}
        self.spent = 0.0
        self.phase = "setup"
        self._owed = 0.0
        self._last = clock()

    def sample(self, n: int = 1) -> None:
        t0 = clock()
        samples = self.samples.setdefault(self.phase, array.array("d"))
        for _ in range(n):
            gc.disable()  # a collection would time the program's heap, not the machine
            t = clock()
            kernel()
            samples.append(clock() - t)
            gc.enable()
        self._last = clock()
        self.spent += self._last - t0

    def between_rows(self) -> None:
        """Sample for DUTY of the time since the last sample, spread over the rows."""
        now = clock()
        self._owed += DUTY * (now - self._last)
        self._last = now
        while self._owed > 0.0:
            t0 = clock()
            self.sample()
            self._owed -= self._last - t0

    def count(self) -> int:
        """Samples taken so far in the current phase."""
        return len(self.samples.get(self.phase, ()))

    def slowdown(self, first: int = 0) -> float:
        """Trimmed-mean kernel time of the current phase's samples from `first`
        on, over the reference time (1.0 on the reference machine)."""
        xs = sorted(self.samples[self.phase][first:])
        keep = xs[: max(1, len(xs) - int(TRIM * len(xs)))]
        return sum(keep) / len(keep) / REFERENCE_S
