"""Root finding and minimisation on numpy alone.

``_brent`` is a line-for-line transcription of scipy's C ``brentq``
(same relative tolerance, iteration cap, step rules and stopping test)
written as a generator: it is handed f(a) and f(b), yields each interior
x and is sent f(x).  Two functions step it: ``brentq`` runs one, so it
returns the same float as ``scipy.optimize.brentq`` without importing
scipy, and ``brentq_lanes`` runs one per bracket in lockstep, calling f
once per step on the brackets still open.  Both evaluate a bracket end
only when the caller does not hand them its value, so a caller that has
evaluated f on a grid pays nothing twice.  ``cells`` is the sign-change
rule that ``scan`` and the stability-diagram lattice share; ``scan``
finds every root of a function on a probe grid, refining each cell from
its grid values; ``minimize_scalar`` finds a bounded minimum by zooming
a grid.
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


def _brent(a, b, fa, fb, xtol):
    """Brent's recurrence on [a, b] from fa = f(a) and fb = f(b), as a generator.

    Started by ``send(None)``, it yields each interior x and is sent f(x).
    It returns (through StopIteration) the root, and raises ValueError if
    fa and fb do not differ in sign or a value is NaN, and RuntimeError
    if 100 iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _checked(xpre, fa), _checked(xcur, fb)
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


def brentq(f, a, b, xtol=2e-12, fa=None, fb=None) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    ``fa`` and ``fb`` are f(a) and f(b) when the caller has them; f is
    called at an end only when its value is not given.  Raises ValueError
    if they do not differ in sign or f returns NaN, and RuntimeError if
    100 iterations do not converge.
    """
    a, b = float(a), float(b)
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    solver = _brent(a, b, fa, fb, xtol)
    try:
        x = solver.send(None)
        while True:
            x = solver.send(f(x))
    except StopIteration as stop:
        return stop.value


def brentq_lanes(f, a, b, xtol=2e-12, fa=None, fb=None) -> np.ndarray:
    """A root of f in each bracket [a[i], b[i]], every one the float ``brentq`` returns.

    One Brent recurrence runs per bracket (a lane), and the lanes step
    together: each step makes one call ``f(x, lanes)``, where ``lanes``
    are the indices of the lanes still running and ``x`` their current
    points, and f returns its values there as an array.  ``fa`` and
    ``fb`` are the values at every a and every b when the caller has
    them; an end whose values are not given takes one call on all lanes,
    the a ends first.  A lane raises what ``brentq`` would raise on its
    bracket; a, b, fa and fb of different lengths raise ValueError.
    """
    a, b = (np.ravel(np.asarray(x, dtype=float)) for x in (a, b))
    if any(v is not None and np.size(v) != a.size for v in (b, fa, fb)):
        raise ValueError("brentq_lanes takes a, b, fa and fb of one length")
    if not a.size:
        return np.empty(0)
    every = np.arange(a.size)
    fa, fb = (np.ravel(np.asarray(f(x, every) if v is None else v, dtype=float)) for x, v in ((a, fa), (b, fb)))
    solvers = [_brent(*bracket, xtol) for bracket in zip(a.tolist(), b.tolist(), fa.tolist(), fb.tolist())]
    out = np.empty(len(solvers))
    lanes, vals = range(len(solvers)), [None] * len(solvers)  # send(None) starts a solver
    while True:
        live, xs = [], []
        for lane, y in zip(lanes, vals):
            try:
                xs.append(solvers[lane].send(y))
                live.append(lane)
            except StopIteration as stop:
                out[lane] = stop.value
        if not live:
            return out
        lanes = live
        vals = np.asarray(f(np.array(xs), np.array(lanes)), dtype=float).tolist()


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
    a NaN value starts no cell.  Each cell is refined from its two grid
    values, so f is called only inside it.  Roots are refined only as they
    are consumed, so ``next(scan(...), None)`` refines only the first.
    """
    vals = f(grid) if vals is None else vals
    zero, start = cells(vals)
    for i in np.flatnonzero(start):
        yield float(grid[i]) if zero[i] else solve(f, grid[i], grid[i + 1], xtol=xtol, fa=vals[i], fb=vals[i + 1])


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
