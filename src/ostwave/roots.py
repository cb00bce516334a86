"""Root finding and minimisation on numpy alone.

``_brent`` is a line-for-line transcription of scipy's C ``brentq``
(same relative tolerance, iteration cap, step rules and stopping test)
written as a generator that yields each x and is sent f(x).  Two
functions step it: ``brentq`` runs one, so it returns the same float as
``scipy.optimize.brentq`` without importing scipy, and ``brentq_lanes``
runs one per bracket in lockstep, calling f once per step on the
brackets still open.  ``cells`` is the sign-change rule that ``scan``
and the stability-diagram lattice share; ``scan`` finds every root of a
function on a probe grid; ``minimize_scalar`` finds a bounded minimum
by zooming a grid.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["brentq", "brentq_lanes", "cells", "scan", "minimize_scalar"]

_RTOL = 4.0 * float(np.finfo(float).eps)  # a float, so a Brent step keeps x a float
_MAXITER = 100
_ZOOMS, _ZOOM_POINTS = 6, 33


def _checked(x, y) -> float:
    y = float(y)
    if math.isnan(y):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return y


def _brent(a, b, xtol):
    """Brent's recurrence on [a, b] as a generator: it yields each x and is sent f(x).

    It returns (through StopIteration) the root, and raises ValueError if
    f(a) and f(b) do not differ in sign or a value is NaN, and
    RuntimeError if 100 iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(xpre, (yield xpre))
    fcur = _checked(xcur, (yield xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _checked(xcur, (yield xcur))
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur}")


def brentq(f, a, b, xtol=2e-12) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Raises ValueError if they do not differ in sign or f returns NaN,
    and RuntimeError if 100 iterations do not converge.
    """
    solver = _brent(a, b, xtol)
    x = next(solver)
    try:
        while True:
            x = solver.send(f(x))
    except StopIteration as stop:
        return stop.value


def brentq_lanes(f, a, b, xtol=2e-12) -> np.ndarray:
    """A root of f in each bracket [a[i], b[i]], every one the float ``brentq`` returns.

    One Brent recurrence runs per bracket (a lane), and the lanes step
    together: each step makes one call ``f(x, lanes)``, where ``lanes``
    are the indices of the lanes still running and ``x`` their current
    points, and f returns its values there as an array.  A lane raises
    what ``brentq`` would raise on its bracket.
    """
    solvers = [_brent(lo, hi, xtol) for lo, hi in zip(np.ravel(a).tolist(), np.ravel(b).tolist())]
    out = np.empty(len(solvers))
    lanes = list(range(len(solvers)))
    xs = [next(solver) for solver in solvers]
    while lanes:
        vals = np.asarray(f(np.array(xs), np.array(lanes)), dtype=float).tolist()
        live, xs = [], []
        for lane, y in zip(lanes, vals):
            try:
                xs.append(solvers[lane].send(y))
                live.append(lane)
            except StopIteration as stop:
                out[lane] = stop.value
        lanes = live
    return out


def cells(vals):
    """Where roots start along the last axis of a grid of values.

    Returns (zero, start): zero marks grid points where the value is
    exactly 0; start marks those and every point whose cell to the next
    point has ends of opposite sign.  A NaN value starts no cell.
    """
    vals = np.asarray(vals, dtype=float)
    zero = vals == 0.0
    change = np.zeros_like(zero)
    change[..., :-1] = vals[..., :-1] * vals[..., 1:] < 0
    return zero, zero | change


def scan(f, grid, vals=None, xtol=1e-12, solve=brentq):
    """Yield the roots of f on an ascending grid, in ascending order.

    A root is a grid point where f is exactly 0, or the ``solve`` root of
    a grid cell whose ends differ in sign.  ``vals`` are the values of f
    on the grid (f is called on the whole grid when they are not given);
    a NaN value starts no cell.  Roots are refined only as they are
    consumed, so ``next(scan(...), None)`` refines only the first.
    """
    zero, start = cells(f(grid) if vals is None else vals)
    for i in np.flatnonzero(start):
        yield float(grid[i]) if zero[i] else solve(f, grid[i], grid[i + 1], xtol=xtol)


def minimize_scalar(f, grid) -> float:
    """Smallest value of f found on a grid and on 6 zooms into it.

    Each zoom lays 33 points over the two cells beside the current
    argmin, so it narrows the search 16-fold; f is called on whole arrays.
    """
    x = np.asarray(grid, dtype=float)
    v = np.asarray(f(x), dtype=float)
    best = float(v.min())
    for _ in range(_ZOOMS):
        i = int(np.argmin(v))
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)]
        if not lo < hi:
            break
        x = np.linspace(lo, hi, _ZOOM_POINTS)
        v = np.asarray(f(x), dtype=float)
        best = min(best, float(v.min()))
    return best
