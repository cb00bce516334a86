"""Scalar root finding and minimisation on numpy alone.

``brentq`` is a line-for-line transcription of scipy's C ``brentq``
(same relative tolerance, iteration cap, step rules and stopping test),
so it returns the same float as ``scipy.optimize.brentq`` without
importing scipy.  ``scan`` finds every root of a function on a probe
grid; ``minimize_scalar`` finds a bounded minimum by zooming a grid.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["brentq", "scan", "minimize_scalar"]

_RTOL = 4.0 * np.finfo(float).eps
_MAXITER = 100
_ZOOMS, _ZOOM_POINTS = 6, 33


def brentq(f, a, b, xtol=2e-12) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Raises ValueError if they do not differ in sign or f returns NaN,
    and RuntimeError if 100 iterations do not converge.
    """

    def fx(x):
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
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
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur}")


def scan(f, grid, vals=None, xtol=1e-12, solve=brentq):
    """Yield the roots of f on an ascending grid, in ascending order.

    A root is a grid point where f is exactly 0, or the ``solve`` root of
    a grid cell whose ends differ in sign.  ``vals`` are the values of f
    on the grid (f is called on the whole grid when they are not given);
    a NaN value starts no cell.  Roots are refined only as they are
    consumed, so ``next(scan(...), None)`` refines only the first.
    """
    vals = np.asarray(f(grid) if vals is None else vals, dtype=float)
    zero = vals == 0.0
    change = np.append(vals[:-1] * vals[1:] < 0, False)
    for i in np.flatnonzero(zero | change):
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
