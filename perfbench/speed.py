"""A fixed pure-Python kernel that tracks how fast the host runs right now.

On a shared host the CPU's speed swings by up to 2x within seconds, and the
library's jobs swing with it.  On a 2-core VM, the kernel and a batch of
`qk_series` jobs timed alternately for 60 s gave a correlation of 0.96.  Their
ratio varied 5.5% against 22% for the raw time.  So every time the benchmark
reports for library work and for command-line runs is a wall time scaled to
the speed at which the kernel takes REFERENCE_S: ``wall * REFERENCE_S /
kernel time measured during it``.  A single command-line run follows the
kernel less closely than library work does, because much of its start-up
does not slow with the CPU; but over eight runs of rational-series (seeds
201-208), the median command-line time spread 23% raw and 10% scaled, since
the host's speed also drifts from run to run.  Set-up up to
``import orbiform`` is reported raw.  The kernel uses only the standard
library, so no change to orbiform moves it.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 0.0005  # one kernel run at the nominal speed


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 90):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return s


def sample() -> float:
    """Seconds for one kernel run, best of three (a preemption hits only one)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall: float, kernel_s: float) -> float:
    """A wall time at the nominal speed, given the kernel's time measured during it."""
    return wall * REFERENCE_S / kernel_s


class Sampler:
    """Kernel samples taken every `every` seconds by a thread, while in use.

    A job of a few seconds sees the host change speed while it runs, so a
    sample on each side of it is not enough.  The thread holds the GIL while
    it samples, so the main thread is paused then; `scaled` takes that time
    out of the interval it scales.  Within `paused()` no sample is taken.
    """

    def __init__(self, every: float):
        self.every = every
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _take(self) -> None:
        t0 = time.perf_counter()
        k = sample()
        self.samples.append((t0, time.perf_counter(), k))

    def _loop(self) -> None:
        while not self._stop.wait(self.every):
            with self._lock:
                self._take()

    def __enter__(self):
        self._take()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._take()
        return False

    @contextlib.contextmanager
    def paused(self):
        with self._lock:
            yield

    def scaled(self, t0: float, t1: float) -> float:
        """The interval's wall time, less sampling, at the nominal speed: scaled
        by the samples taken in it and the nearest one on each side."""
        starts = [s[0] for s in self.samples]
        i = max(0, bisect_right(starts, t0) - 1)
        j = bisect_left(starts, t1)
        chosen = self.samples[i:j + 1]
        busy = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e, _ in chosen)
        return scaled(t1 - t0 - busy, statistics.fmean(k for _, _, k in chosen))
