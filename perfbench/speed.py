"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the same command with the same inputs runs up to 1.7
times slower for stretches of a few seconds, and the share of slow time
changes from minute to minute (see NOTES.md, "Speed scaling").  The
benchmark therefore samples the speed while it times a command: a
``Meter`` runs the kernel when the block starts, every ``PERIOD_S``
seconds from a SIGALRM handler, and when it ends.  The time spent in the
kernel inside the block is taken off the command's time, and the rest
is scaled by the mean of ``NOMINAL_S / kernel time`` over the samples.
Samples evenly spaced in time make that the time the command would have
taken at the speed at which the kernel takes ``NOMINAL_S``.  The kernel
is numpy and scipy work of the kind geostop does, and does not use
geostop, so a change to the package moves the scaled times and leaves
the kernel alone.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy import special

# Kernel seconds at the reference speed: about its median over a 180-s
# trace on a 2-vCPU Xeon virtual machine.  Only ratios between runs matter.
NOMINAL_S = 0.0035
PERIOD_S = 0.2
REPEATS = 5

_X = np.linspace(-3.0, 3.0, 20000)
_SMALL = np.array([0.1, 0.2, 0.3])


def kernel() -> float:
    """Vectorised special functions, then many calls on tiny arrays."""
    total = 0.0
    for _ in range(5):
        total += float(np.sum(special.ndtr(_X) * np.exp(-0.5 * _X * _X)))
    for _ in range(100):
        total += float(np.max(_SMALL - _SMALL.min()))
    return total


def _timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def sample(repeats: int = REPEATS) -> list[float]:
    """Seconds of ``repeats`` back-to-back kernel runs."""
    return [_timed_kernel() for _ in range(repeats)]


def factor(samples: list[float]) -> float:
    """Scale for a time over which the kernel took ``samples`` seconds."""
    return statistics.fmean(NOMINAL_S / s for s in samples)


class Meter:
    """Kernel samples at the start, every PERIOD_S seconds, and the end of
    a block.  ``spent`` is the kernel time inside the block, which the
    caller takes off its own timing.  Main thread only (SIGALRM)."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        seconds = _timed_kernel()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "Meter":
        self.samples.append(_timed_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_timed_kernel())

    def factor(self) -> float:
        return factor(self.samples)
