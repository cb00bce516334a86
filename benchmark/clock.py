"""Timing in units of a fixed calibration kernel.

A shared virtual machine runs the same code at different speeds for tens
of seconds at a time (a fixed loop took from 6.7 to 10.3 ms in 5 s
windows), and it does not slow all code alike.  The benchmark therefore
runs a small kernel that does not touch ostwave but does its kinds of
work -- scipy root finds and bounded minimisations of a scalar numpy
function, a loop of small Python method calls, small numpy calls and a
dense complex eigen-solve -- every ``EVERY_S`` seconds, and scales each
timed operation by

    NOMINAL_S / (median kernel time within WINDOW_S, or the operation's
                 own duration if longer, of the operation).

A scaled time is the operation's time on a machine that runs the kernel
in ``NOMINAL_S``: the machine's slow and fast phases largely cancel,
while a change to ostwave moves the scaled time by the same factor as
the raw one.
On the machine of the README's reference figures the kernel takes about
``NOMINAL_S``, so scaled and raw times are close there.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy import optimize

NOMINAL_S = 0.005
EVERY_S = 0.25
WINDOW_S = 1.0

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_X = np.linspace(0.1, 2.0, 64)


class _Symbol:
    def __init__(self, b, g):
        self.b, self.g = b, g

    def m(self, k):
        return 1.0 - self.b * k * k + self.g / (k * k)


def _root_fn(x, c):
    return np.tanh(x) / x - c + 0.01 * np.sqrt(x)


def _min_fn(x):
    return (x - 1.3) ** 2 + 0.1 * np.cos(x)


def kernel() -> None:
    """About 5 ms of the kinds of work ostwave does, without ostwave."""
    for c in (0.2, 0.4, 0.6, 0.8):
        optimize.brentq(_root_fn, 0.05, 20.0, args=(c,))
    for _ in range(2):
        optimize.minimize_scalar(_min_fn, bounds=(0.1, 5.0), method="bounded")
    sym, t = _Symbol(0.3, 0.7), 0.0
    for i in range(1, 1500):
        k = 0.01 * i
        t += sym.m(k) * sym.m(2 * k) - sym.m(k) ** 2
    for _ in range(150):
        np.sin(_X) * _X + np.sqrt(_X)
    np.linalg.eigvals(_A)


class Span:
    """One timed operation; ``seconds`` is its scaled duration."""

    __slots__ = ("clock", "t0", "t1")

    def __init__(self, clock):
        self.clock, self.t0, self.t1 = clock, 0.0, 0.0

    def __enter__(self):
        self.clock.tick()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        self.clock.tick()
        return False

    @property
    def seconds(self) -> float:
        return (self.t1 - self.t0) * self.clock.scale(self.t0, self.t1)


class Clock:
    def __init__(self, every: float = EVERY_S):
        self.every = every  # infinite: no calibration, for runs whose spans are never scaled
        self.stamps, self.kernel_s = [], []  # midpoints and durations of kernel runs
        self.last = -float("inf")
        kernel()  # warm-up: first calls pay for lazy set-up in numpy

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(0.5 * (t0 + t1))
        self.kernel_s.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        """Runs the kernel if its last run is older than ``every`` seconds."""
        if time.perf_counter() - self.last >= self.every:
            self.sample()

    def span(self) -> Span:
        return Span(self)

    def scale(self, t0: float, t1: float) -> float:
        # a long span (a CLI child, while this process waits) has no kernel
        # runs inside it: it takes as many on each side as it lasts
        window = max(WINDOW_S, t1 - t0)
        lo = bisect.bisect_left(self.stamps, t0 - window)
        hi = bisect.bisect_right(self.stamps, t1 + window)
        return NOMINAL_S / statistics.median(self.kernel_s[lo:hi])
