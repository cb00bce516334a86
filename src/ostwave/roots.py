"""Root finding and minimisation on numpy alone.

``brentq`` is a line-for-line transcription of scipy's C ``brentq``
(same relative tolerance, iteration cap, step rules and stopping test),
so it returns the same float as ``scipy.optimize.brentq`` without
importing scipy.  ``falsi_lanes`` refines many brackets at once by
Anderson–Björck false position on numpy arrays, one call of f per step
for every bracket, and bisects any still open after 16 steps.  Both
evaluate a bracket end only when the caller does not hand them its value,
so a caller that has evaluated f on a grid pays nothing twice.  ``cells``
marks where roots start, the rule that ``scan`` and the stability-diagram
lattice share; ``scan`` finds every root of a function on a probe grid,
refining each from its grid values; ``minimize_scalar`` finds a bounded
minimum by zooming a grid.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = ["brentq", "falsi_lanes", "cells", "scan", "minimize_scalar"]

_RTOL = 4.0 * float(np.finfo(float).eps)  # a float, so a Brent step keeps x a float
_MAXITER = 100
_FALSI_STEPS = 16
_ZOOMS, _ZOOM_POINTS = 6, 33


def _checked(x, y) -> float:
    y = float(y)
    if math.isnan(y):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return y


def brentq(f, a, b, xtol=2e-12, fa=None, fb=None) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    ``fa`` and ``fb`` are f(a) and f(b) when the caller has them; f is
    called at an end only when its value is not given.  Raises ValueError
    if they do not differ in sign or f returns NaN, and RuntimeError if
    100 iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(xpre, f(xpre) if fa is None else fa)
    fcur = _checked(xcur, f(xcur) if fb is None else fb)
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
        fcur = _checked(xcur, f(xcur))
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur}")


def falsi_lanes(f, a, b, xtol=2e-12, fa=None, fb=None) -> np.ndarray:
    """A root of f in each bracket [a[i], b[i]] (a lane), every lane stepped at once.

    Anderson–Björck false position (Anderson & Björck, BIT 13 (1973)) on
    numpy arrays: each step makes one call ``f(x)`` with a point for every
    lane, a finished lane holding its root, and f returns its values there
    as an array.  A point is at least half the tolerance inside its
    bracket.  A lane finishes at an exact zero (a lane with fa = 0 returns
    a at once) or once its bracket is at most xtol + 4 eps |x| wide, x its
    latest point and its root, as ``brentq`` stops; a lane open after 16
    steps bisects, and one open after 100 raises RuntimeError.  Where a
    lane's value depends on its point alone, its root is the float a
    one-lane call on its bracket returns.

    ``fa`` and ``fb`` are the values at every a and every b when the
    caller has them; an end whose values are not given takes one call on
    all lanes, the a ends first.  A NaN value or ends of one sign raise
    ``brentq``'s ValueError; a, b, fa and fb of different lengths raise
    ValueError.
    """
    a, b = (np.ravel(np.asarray(x, dtype=float)) for x in (a, b))
    if any(v is not None and np.size(v) != a.size for v in (b, fa, fb)):
        raise ValueError("falsi_lanes takes a, b, fa and fb of one length")
    fa, fb = (np.ravel(np.asarray(f(x) if v is None else v, dtype=float)) for x, v in ((a, fa), (b, fb)))
    for i in np.flatnonzero(~(np.sign(fa) * np.sign(fb) <= 0))[:1]:  # NaN, or no sign change
        _checked(a[i], fa[i])
        _checked(b[i], fb[i])
        raise ValueError("f(a) and f(b) must have different signs")
    # x1 is each lane's latest point, x0 the end across the sign change, and f0 is scaled as the method asks
    x0, f0, x1, f1 = a, fa, np.where(fa == 0, a, b), np.where(fa == 0, fa, fb)
    with np.errstate(divide="ignore", invalid="ignore"):  # a finished lane may divide 0 by 0
        for step in range(_MAXITER + 1):
            tol = xtol + _RTOL * np.abs(x1)
            d = x0 - x1
            width = np.abs(d)
            live = (width > tol) & (f1 != 0)
            if not live.any():
                return x1
            if step == _MAXITER:
                raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {x1[live][0]}")
            r = 0.5 * tol / width  # half the tolerance, as a fraction of the bracket
            t = np.minimum(np.maximum(f1 / (f1 - f0), r), 1.0 - r) if step < _FALSI_STEPS else 0.5
            c = np.where(live, x1 + d * t, x1)
            fc = np.asarray(f(c), dtype=float)
            for i in np.flatnonzero(np.isnan(fc))[:1]:
                _checked(c[i], fc[i])
            flip = (fc < 0) != (f1 < 0)
            m = 1.0 - fc / f1
            x0, f0 = np.where(flip, x1, x0), np.where(flip, f1, f0 * np.where(m > 0, m, 0.5))
            x1, f1 = c, fc


def cells(vals):
    """Where roots start along the last axis of a grid of values.

    Marks every point where the value is exactly 0, a root's zero-width
    bracket, and every point whose cell to the next point has ends of
    opposite sign.  A NaN value starts no cell.
    """
    vals = np.asarray(vals, dtype=float)
    start = vals == 0.0
    start[..., :-1] |= vals[..., :-1] * vals[..., 1:] < 0
    return start


def scan(f, grid, vals=None, xtol=1e-12, solve=brentq):
    """Yield the roots of f on an ascending grid, in ascending order.

    A root is the ``solve`` root of a start ``cells`` marks: a grid cell
    whose ends differ in sign, or a grid point where f is exactly 0, the
    zero-width bracket the solvers return as the point's float.  ``vals``
    are the values of f on the grid (f is called on the whole grid when
    they are not given).  A NaN value starts no cell: where the finite
    values on either side of non-finite ones differ in sign, a
    RuntimeWarning names the interval.  Each root is refined from its
    grid values, so f is called only inside its cell.  Roots are refined
    only as they are consumed: ``next(scan(...), None)`` refines the first.
    """
    vals = np.asarray(f(grid) if vals is None else vals, dtype=float)
    ends = () if math.isfinite(vals.sum()) else np.flatnonzero(np.isfinite(vals))  # a finite sum: all finite
    for i, j in zip(ends[:-1], ends[1:]):
        if j > i + 1 and vals[i] * vals[j] < 0:
            where = f"({grid[i]:.6g}, {grid[j]:.6g})"
            warnings.warn(f"f changes sign across non-finite values in {where}; no root sought there", RuntimeWarning)
    for i in np.flatnonzero(cells(vals)):
        j = i + (vals[i] != 0)
        yield solve(f, grid[i], grid[j], xtol=xtol, fa=vals[i], fb=vals[j])


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
