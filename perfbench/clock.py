"""Call timing corrected for drift in the host's speed.

On a shared host the speed of one core drifts by 10-20% over seconds to
minutes, and raw timings drift with it.  So a fixed calibration loop is
timed before and after every measured call and, through a SIGALRM
interval timer, every ``CAL_PERIOD_S`` during it.  The call's time, less
the time spent in those samples, is scaled by ``CAL_REFERENCE_S`` over
the mean sample: it reads in seconds of the reference host (2 vCPUs at
2.1 GHz) whatever the host's current speed.  The loop mixes the kinds of
work waylab spends its time in, and runs no waylab code: scalar
arithmetic on 4-vectors driven from Python, and eigendecompositions,
Kronecker products and products of 8- to 16-dimensional matrices.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Callable

import numpy as np

CAL_SMALL = 400
CAL_DENSE = 20
CAL_PERIOD_S = 0.25
# Typical time of calibrate() on the reference host.
CAL_REFERENCE_S = 0.0048

_A = np.exp(1j * np.arange(16.0)).reshape(4, 4)
_V = np.ones(4, dtype=np.complex128)
_H = np.cos(np.add.outer(np.arange(8.0), np.arange(8.0)))
_M = np.exp(1j * np.arange(256.0)).reshape(16, 16) / 16.0
_EYE = np.eye(4)


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop now."""
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(CAL_SMALL):
        y = _A @ _V
        total += math.sqrt(float(np.real(np.vdot(y, y))))
    for _ in range(CAL_DENSE):
        np.linalg.eigh(_H)
        k = np.kron(_A, _EYE)
        total += float(np.linalg.norm(_M @ k @ _M.conj().T, ord=2))
    return time.perf_counter() - t0


def corrected(seconds: float, samples: int = 5) -> float:
    """``seconds`` just measured, in reference-host seconds."""
    return seconds * CAL_REFERENCE_S / statistics.median(calibrate() for _ in range(samples))


class Clock:
    """Times calls in reference-host seconds; owns the SIGALRM handler."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last = calibrate()

    def _sample(self, signum: int, frame: object) -> None:
        t0 = time.perf_counter()
        self._samples.append(calibrate())
        self._stolen += time.perf_counter() - t0

    def measure(self, fn: Callable[[], None]) -> float:
        """Run ``fn`` and return its corrected duration."""
        self._samples = [self._last]
        self._stolen = 0.0
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - t0
        self._last = calibrate()
        self._samples.append(self._last)
        return (elapsed - self._stolen) * CAL_REFERENCE_S / statistics.mean(self._samples)

    def close(self) -> None:
        signal.signal(signal.SIGALRM, self._previous)
