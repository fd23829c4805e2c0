"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of the CPU a run gets drifts by tens of
percent within seconds and over minutes, as neighbours come and go: the
same pass of the same code takes 0.72 s in one minute and 0.99 s a few
minutes later.  A fixed kernel slows down with it, and every time is
rescaled to a machine on which the kernel takes ``REFERENCE_S``:

    seconds = raw seconds * REFERENCE_S / kernel seconds

A pass gets its kernel seconds from a ``Probe``: a timer signal runs the
kernel every ``INTERVAL_S`` seconds during the pass, and the kernel's
own time is taken out of the pass and, through ``Probe.clock``, out of
every span a traced pass records.  A set-up interpreter, too short for
the timer, calls ``factor`` right after its work instead.

The kernel is part of the benchmark, not of nlchern, so a change to the
engine cannot move it.  It mixes the two kinds of work the engine does:
interpreted scalar complex arithmetic and small NumPy calls.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.003
INTERVAL_S = 0.1
FACTOR_RUNS = 5


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed calibration kernel (about 3 ms)."""
    t0 = perf_counter()
    a, b, acc = complex(0.6, 0.1), complex(0.2, -0.7), 0.0
    for i in range(2000):
        t = i * 1e-3
        h = math.sin(t) * a + math.cos(t) * b
        a, b = a - 1e-3j * h, b - 1e-3j * h.conjugate()
        acc += a.real * a.real + a.imag * a.imag
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    for i in range(150):
        m[0, 0] = i * 1e-3
        acc += np.linalg.eigvals(m)[0].real
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return perf_counter() - t0


def factor() -> float:
    """Rescaling factor from the median of FACTOR_RUNS back-to-back kernel runs."""
    return REFERENCE_S / statistics.median(kernel_seconds() for _ in range(FACTOR_RUNS))


class Probe:
    """Runs the kernel from SIGALRM every INTERVAL_S seconds between start and stop."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0   # seconds of every kernel run so far
        self._spent_at_start = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += perf_counter() - t0

    def clock(self) -> float:
        """perf_counter without the kernel runs, so an interval timed on it leaves them out."""
        while True:
            spent = self.spent
            now = perf_counter()
            if self.spent == spent:   # no kernel run between the two reads
                return now - spent

    def start(self) -> None:
        self._spent_at_start = self.spent
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop ticking; returns the seconds the kernel took since start."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.spent - self._spent_at_start

    def take_factor(self) -> float:
        """Rescaling factor of the samples gathered since the last call.

        A pass shorter than the interval gets one kernel run after it.
        """
        samples = self.samples or [kernel_seconds()]
        self.samples = []
        return REFERENCE_S * len(samples) / sum(samples)

