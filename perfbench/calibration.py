"""A reference-speed clock for timing on shared, contended hosts.

Other tenants on a shared host can slow this process by up to 2x, switching
within fractions of a second, which is far more than the regressions the
benchmark's bounds must catch. While a `Calibration` is active, a SIGALRM
handler runs a fixed kernel every INTERVAL_S seconds and records how long it
took. `since(mark)` turns a measured interval into reference seconds: the
interval minus the kernel's own time, times REFERENCE_S over the kernel's
mean time within the interval. Slowdowns that hit the kernel and the
measured code alike cancel out.

The kernel is part of the benchmark's definition: changing it, or the
constants below, changes every time the benchmark reports.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

STEPS = 100
INTERVAL_S = 0.05
REFERENCE_S = 0.001


def kernel() -> float:
    """Interpreter work around small NumPy calls, like the package's inner loops."""
    table = np.random.default_rng(12345).random((10, 100))
    acc = 0.0
    for i in range(STEPS):
        acc += float((table[:, i % 80 : i % 80 + 20] * 1.5).min(axis=0).sum())
        acc += sum(j * 1e-9 for j in range(8))
    return acc


class Calibration:
    """Kernel samples taken while active, as a context manager; only one
    may be active at a time, in the main thread."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Wall-clock seconds, less those spent in the kernel."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:  # no tick landed between the two reads
                return t - spent

    def mark(self) -> tuple[float, int]:
        return self.now(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> float:
        """Reference seconds of work since `mark`."""
        start, first = mark
        return (self.now() - start) * self.scale(first)

    def scale(self, first: int = 0) -> float:
        """REFERENCE_S over the mean kernel time from sample `first` on. The
        latest sample stands in for an interval too short to hold one; with
        no sample at all, times stay as measured."""
        window = self.samples[first:] or self.samples[-1:]
        return REFERENCE_S / statistics.fmean(window) if window else 1.0
