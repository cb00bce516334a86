"""Critical wavenumbers, tension thresholds, and stability diagrams.

A critical wavenumber is a sign change of the index delta = f1 * f2.
Because each factor vanishes on its own smooth locus, every critical
point is owned by exactly one mechanism:

- ``group_velocity_extremum``:       f2 = dc_g/dk = 0,
- ``phase_velocity_coincidence``:    f1 = c_p(k) - c_p(2k) = 0.

For the polynomial-symbol models the zeros have closed forms; for the
nonlocal models they are bracketed on a log grid and refined with
Brent's method (``roots.brentq``).  The surface-tension families
additionally exhibit a threshold T_c at which a pair of critical
wavenumbers merges and disappears, dropping the count from three to
one; ``tc_of_alpha`` locates it by Brent's method on the pair owner's
minimum over k.  ``diagram`` sweeps a (k, T) lattice into stable/unstable cells
plus the two zero-locus curves: it evaluates the whole lattice at once
and refines the zero-locus points of each factor in one lockstep solve
(``roots.brentq_lanes``); where the curves cross (T_s), one 2x2 Newton
solve of both numerators in (k, T), seeded from the curves, finds the
point.  ``spot_check`` re-validates random cells against the
independent spectral oracle: it screens cells in batches, each
eligibility test one array evaluation over a batch (the expansion
``stokes._stokes``, the pencil growth, the detuning ratio and the
unperturbed eigenvalues), and runs the Hill solve only on its picks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import floquet_hill, mi_index, roots
from .errors import BracketError, InconclusiveError, NoRootError
from .roots import brentq, minimize_scalar
from .stokes import StokesWave, _stokes, harmonic_denominator
from .symbols import (
    DispersionSymbol,
    ModelParams,
    _tension_symbol,
    group_velocity_derivative,
    make_symbol,
)

__all__ = [
    "CriticalResult",
    "StabilityDiagram",
    "T_DEGENERATE_TOL",
    "params_from_alpha",
    "kc_closed_form",
    "kc_numeric",
    "classify_intervals",
    "tc_of_alpha",
    "diagram",
    "spot_check",
]

# |T - 1/3| below this counts as sitting on the degenerate tension value
# where the quadratic-symbol model loses its dispersive term
T_DEGENERATE_TOL = 1e-5

# diagram and interval labels of the index classifications
_LABELS = {"stable": "S", "unstable": "U", "degenerate": "degenerate"}


def params_from_alpha(alpha: float) -> ModelParams:
    """Normalize a ratio alpha = gamma/beta to beta = +-1, gamma = |alpha|.

    The zero loci of f1 and f2 depend on (beta, gamma) only through the
    ratio, so this normalization loses nothing for diagrams/thresholds.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    return ModelParams(beta=math.copysign(1.0, alpha), gamma=abs(alpha))


@dataclass(frozen=True)
class CriticalResult:
    """One located critical wavenumber with its mechanism and provenance."""

    model: str
    params: dict
    mechanism: str  # group_velocity_extremum | phase_velocity_coincidence
    kc: float
    method: str  # closed_form | bisection (the Brent scan of kc_numeric)


def _result_params(p: ModelParams, extra: dict | None = None) -> dict:
    out = {"beta": p.beta, "gamma": p.gamma}
    out.update(extra or {})
    return out


def kc_closed_form(model: str, p: ModelParams, extra: dict | None = None) -> CriticalResult:
    """Exact critical wavenumber for the quadratic/fractional symbols.

    Raises
    ------
    InconclusiveError
        ``kdv_st`` at T = 1/3, where the effective dispersion coefficient
        vanishes and no verdict exists.
    ValueError
        Unsupported model or missing/out-of-range extras.
    """
    extra = dict(extra or {})
    beta, gamma = p.beta, p.gamma

    if model == "fkdv":
        if "delta" not in extra:
            raise ValueError("fkdv requires extra parameter 'delta'")
        d = float(extra["delta"])
        if not d > 0.5:
            raise ValueError(f"fkdv requires delta > 1/2, got {d}")
        if beta > 0:
            kc = (2.0 * gamma / (d * (1.0 + d) * beta)) ** (1.0 / (2.0 + d))
            mech = "group_velocity_extremum"
        else:
            kc = (3.0 * gamma / (4.0 * (2.0 ** d - 1.0) * abs(beta))) ** (1.0 / (2.0 + d))
            mech = "phase_velocity_coincidence"
        return CriticalResult("fkdv", _result_params(p, {"delta": d}), mech, kc, "closed_form")

    if model == "kdv":
        beta_eff = beta
        pd = {}
    elif model == "kdv_st":
        if "T" not in extra:
            raise ValueError("kdv_st requires extra parameter 'T'")
        T = float(extra["T"])
        if T < 0:
            raise ValueError(f"kdv_st requires T >= 0, got {T}")
        if abs(T - 1.0 / 3.0) <= T_DEGENERATE_TOL:
            raise InconclusiveError(
                "kdv_st at T = 1/3 has no dispersive term at quadratic order; "
                "the stability verdict is inconclusive there"
            )
        beta_eff = beta * (1.0 - 3.0 * T)
        pd = {"T": T}
    else:
        raise ValueError(f"no closed-form critical wavenumber for model {model!r}")

    if beta_eff > 0:
        kc = (gamma / (3.0 * beta_eff)) ** 0.25
        mech = "group_velocity_extremum"
    else:
        kc = (gamma / (4.0 * abs(beta_eff))) ** 0.25
        mech = "phase_velocity_coincidence"
    return CriticalResult(model, _result_params(p, pd), mech, kc, "closed_form")


# ---------------------------------------------------------------------------
# numeric root location


def _numerators(s: DispersionSymbol, p: ModelParams) -> tuple:
    """The numerators of f1 and f2 as functions of k; their zeros are the factors'.

    f1's is the second-harmonic denominator 3 gamma + 4 beta k^2 (m(k) - m(2k)),
    f2's is 2 gamma + beta k^3 (k m''(k) + 2 m'(k)).
    """
    return (
        lambda k: harmonic_denominator(s, p, k, 2),
        lambda k: group_velocity_derivative(s, p, k).numerator,
    )


# Roots and minima are found through this module's ``brentq`` and
# ``minimize_scalar`` names, which benchmark/tracer.py wraps to count them.


def _finite_ends(vals) -> np.ndarray:
    """Grid values, checked finite at both ends of the last axis."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals[..., [0, -1]])):
        raise ValueError("bracket endpoints evaluate non-finite")
    return vals


def _scan_roots(f, grid):
    """The roots of f on the grid, ascending and refined as they are consumed."""
    return roots.scan(f, grid, _finite_ends(f(grid)), solve=brentq)


def _critical_roots(s: DispersionSymbol, p: ModelParams, k_range: tuple, name: str) -> list:
    """Ascending (root, mechanism) pairs of both factor numerators on a 400-point log grid."""
    lo, hi = float(k_range[0]), float(k_range[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"{name} must satisfy 0 < lo < hi")
    grid = np.geomspace(lo, hi, 400)
    mechanisms = ("phase_velocity_coincidence", "group_velocity_extremum")
    pairs = [(root, mech) for mech, f in zip(mechanisms, _numerators(s, p)) for root in _scan_roots(f, grid)]
    return sorted(pairs, key=lambda pair: pair[0])


def kc_numeric(s: DispersionSymbol, p: ModelParams, bracket: tuple = (1e-2, 1e2)) -> list:
    """All critical wavenumbers of either mechanism inside the bracket.

    Sign changes of each factor's numerator are located on a 400-point
    log-spaced probe grid and refined with Brent's method to a tolerance
    of 1e-12 + 4 eps |k| in k (``roots.brentq``, xtol 1e-12).  Models
    whose critical wavenumber is claimed unique get a diagnostic warning
    (not an error) if the scan disagrees.

    Raises
    ------
    NoRootError
        Neither factor changes sign in the bracket.
    ValueError
        Non-finite endpoint evaluations or a bad bracket.
    """
    params = _result_params(p, s.params)
    pairs = _critical_roots(s, p, bracket, "bracket")
    results = [CriticalResult(s.name, params, mech, root, "bisection") for root, mech in pairs]
    if not results:
        lo, hi = float(bracket[0]), float(bracket[1])
        raise NoRootError(f"no critical wavenumber of either mechanism in ({lo:g}, {hi:g}) for {s.name}")
    if s.name in ("ilw", "whitham") and len(results) > 1:
        warnings.warn(
            f"{s.name}: expected a unique critical wavenumber, found "
            f"{[round(r.kc, 8) for r in results]}",
            stacklevel=2,
        )
    return results


def classify_intervals(s: DispersionSymbol, p: ModelParams, k_range: tuple) -> list:
    """Split a wavenumber range into maximal constant-sign intervals.

    Returns an ordered list of ((lo, hi), label) with label "S", "U" or
    "degenerate", labels taken from one ``index`` call at the interval
    midpoints and endpoints the critical wavenumbers ``kc_numeric`` finds
    in the range: Brent refinements (xtol 1e-12) of the sign changes of
    either factor's numerator on a 400-point log-spaced probe grid.
    """
    zeros = [root for root, _ in _critical_roots(s, p, k_range, "k_range")]
    lo, hi = float(k_range[0]), float(k_range[1])
    # collapse numerically coincident boundaries (curve intersections)
    bounds = [lo]
    for r in zeros:
        if r - bounds[-1] > 1e-10 * (1.0 + r):
            bounds.append(r)
    if hi - bounds[-1] > 1e-10 * (1.0 + hi):
        bounds.append(hi)
    else:
        bounds[-1] = hi

    codes = mi_index.index(s, p, np.sqrt(np.multiply(bounds[:-1], bounds[1:]))).classification
    intervals = []
    for a, b, code in zip(bounds[:-1], bounds[1:], codes.tolist()):
        lab = _LABELS[code]
        if intervals and intervals[-1][1] == lab:
            intervals[-1] = ((intervals[-1][0][0], b), lab)
        else:
            intervals.append(((a, b), lab))
    return intervals


# ---------------------------------------------------------------------------
# surface-tension thresholds


def tc_of_alpha(variant: str, alpha: float, tol: float = 5e-3) -> float:
    """Tension threshold where the critical-wavenumber count drops 3 -> 1.

    For alpha > 0 the disappearing pair belongs to the group-velocity
    slope; for alpha < 0 to the phase-velocity coincidence factor.  The
    pair exists while g(T), the owner's numerator minimised over k in
    [1e-2, 1e2], is negative: T_c is the ``brentq`` root of g on T in
    [0.01, 0.9], accurate to tol/2 (plus the resolution of the minimum).

    ``kdv_st`` is handled in closed form: both formula branches blow up
    at T = 1/3 from either side, so the threshold is exactly 1/3 for any
    alpha.

    Raises
    ------
    BracketError
        g does not change sign on T in [0.01, 0.9] (pair present at
        T=0.01, absent at T=0.9), e.g. alpha outside the regime where the
        threshold exists.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if variant == "kdv_st":
        return 1.0 / 3.0
    if variant != "whitham_st":
        raise ValueError(f"unsupported variant {variant!r}")

    p = params_from_alpha(alpha)
    owner = 1 if alpha > 0 else 0  # position in _numerators: f2 for alpha > 0, else f1
    k_grid = np.geomspace(1e-2, 1e2, 600)

    def g(T: float) -> float:
        # the pair exists while the owner's numerator dips below zero on the window
        return minimize_scalar(_lattice_numerators("whitham_st", p, T)[owner], k_grid)

    try:
        return brentq(g, 0.01, 0.9, xtol=tol / 2)
    except ValueError as exc:
        raise BracketError(
            f"pair-existence predicate does not straddle on T in (0.01, 0.9) for alpha={alpha}"
        ) from exc


# ---------------------------------------------------------------------------
# stability diagrams


@dataclass(frozen=True)
class StabilityDiagram:
    """Cell-labeled (k, T) lattice plus the two zero-locus curves."""

    family: str
    alpha: float
    k_max: float
    t_max: float
    nk: int
    nt: int
    ks: np.ndarray = field(repr=False)  # cell-center wavenumbers (nk,)
    Ts: np.ndarray = field(repr=False)  # cell-center tensions (nt,)
    labels: np.ndarray = field(repr=False)  # (nt, nk) of S | U | degenerate
    f1: np.ndarray = field(repr=False)  # (nt, nk)
    f2: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    f1_curve: list = field(repr=False)  # (k, T) samples of the f1 zero locus
    f2_curve: list = field(repr=False)
    t_s: float | None
    region_counts: dict

    def to_records(self) -> list:
        return [
            {"k": float(k), "T": float(T), "k_sqrtT": float(k * math.sqrt(T)), "label": str(self.labels[j, i]),
             "f1": float(self.f1[j, i]), "f2": float(self.f2[j, i]), "delta": float(self.delta[j, i])}
            for j, T in enumerate(self.Ts)
            for i, k in enumerate(self.ks)
        ]

    def curve_records(self) -> list:
        return [
            {"curve": name, "k": float(k), "T": float(T), "k_sqrtT": float(k * math.sqrt(T))}
            for name, pts in (("f1", self.f1_curve), ("f2", self.f2_curve))
            for k, T in pts
        ]


def _count_regions(mask: np.ndarray) -> int:
    """4-connected regions of a 2-D boolean mask: union-find over the runs of each row."""
    rows, cols = np.nonzero(np.diff(mask, axis=1, prepend=False, append=False))
    # each row's edges alternate run start, run stop; runs come sorted by (row, start)
    runs = list(zip(rows[::2].tolist(), cols[::2].tolist(), cols[1::2].tolist()))
    parent = list(range(len(runs)))

    def find(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    count, j = len(runs), 0  # j: the previous row's first run not left of the current one
    for i, (row, start, stop) in enumerate(runs):
        while runs[j][0] < row - 1 or (runs[j][0] == row - 1 and runs[j][2] <= start):
            j += 1
        k = j
        while runs[k][0] == row - 1 and runs[k][1] < stop:  # the runs share a column
            a, b = find(k), find(i)
            if a != b:
                parent[a] = b
                count -= 1
            k += 1
    return count


def _region_counts(labels: np.ndarray) -> dict:
    return {lab: _count_regions(labels == lab) for lab in ("S", "U")}


def _lattice_numerators(family: str, p: ModelParams, T) -> tuple:
    """The factor numerators of the family's symbol at tension T, an array broadcasting against k."""
    return _numerators(_tension_symbol(family, T), p)


def _crossing_newton(family: str, p: ModelParams, k: float, T: float):
    """Newton's method from (k, T) on both factor numerators: their common root, or None.

    Each step evaluates each numerator at (k, T), (k + hk, T) and (k, T + hT)
    in one call, for a forward-difference Jacobian, and stops at a step of
    16 ulps of k and T; None if an iterate leaves k, T > 0 or 20 steps do not.
    """
    h, rtol = math.sqrt(np.finfo(float).eps), 16.0 * np.finfo(float).eps
    for _ in range(20):
        if not (0 < k < math.inf and 0 < T < math.inf):
            return None
        hk, hT = (k + h * k) - k, (T + h * T) - T
        nums = _lattice_numerators(family, p, np.array([T, T, T + hT]))
        (f, fk, fT), (g, gk, gT) = (num(np.array([k, k + hk, k])).tolist() for num in nums)
        a, b, c, d = (fk - f) / hk, (fT - f) / hT, (gk - g) / hk, (gT - g) / hT
        det = a * d - b * c
        if det == 0:
            return None
        dk, dT = (f * d - b * g) / det, (a * g - c * f) / det
        k, T = k - dk, T - dT
        if abs(dk) <= rtol * k and abs(dT) <= rtol * T:
            return k, T
    return None


def _curve_intersection(family: str, p: ModelParams, Ts, curves):
    """(k, T) point where both factor loci cross, or None.

    ``curves`` holds each locus as (rows, k), as ``diagram`` found it.
    The followed curve, f2's and then f1's, gives its first root in each
    row, and the other numerator is evaluated at those roots in one call.
    Each sign change of it between adjacent rows, in ascending T, seeds
    ``_crossing_newton`` at the linear interpolate; the root counts only if
    its T lies between the two rows.  So T_s is resolved at the diagram's
    grid: it is found only where the followed curve has points in two
    adjacent rows.
    """
    for follow, other in ((1, 0), (0, 1)):
        rows, k = curves[follow]
        first = np.diff(rows, prepend=-1) != 0  # each row's first root
        rows, k = rows[first], k[first]
        row_k, vals = np.full((2, len(Ts)), math.nan)
        row_k[rows] = k
        vals[rows] = _lattice_numerators(family, p, Ts[rows])[other](k)
        zero, start = roots.cells(vals)
        for j in np.flatnonzero(start).tolist():
            if zero[j]:
                return float(row_k[j]), float(Ts[j])
            w = vals[j] / (vals[j] - vals[j + 1])
            hit = _crossing_newton(family, p, *(float(x[j] + w * (x[j + 1] - x[j])) for x in (row_k, Ts)))
            if hit is not None and Ts[j] <= hit[1] <= Ts[j + 1]:
                return hit
    return None


def diagram(
    s_family: str,
    alpha: float,
    k_max: float = 2.0,
    t_max: float = 0.8,
    nk: int = 100,
    nt: int = 100,
) -> StabilityDiagram:
    """Label every cell of a (k, T) lattice and trace both zero loci.

    The whole lattice is evaluated at once, through a symbol whose T is
    the column of cell-center tensions.  Cell labels come from one
    ``index`` call at the cell centers; every value is the float a call
    per cell gives, so the lattice is consistent with the pointwise
    classifier by construction.  The curves are read from the same
    values: the exact zeros and sign-change cells of f1 and f2 along each
    T row, each cell refined by Brent's method on the factor's numerator,
    all of one numerator solved together in lanes.  ``t_s`` is where they
    cross, by a Newton solve seeded from them; it is None unless the
    followed curve has points in two adjacent rows.
    """
    if s_family not in ("kdv_st", "whitham_st"):
        raise ValueError(f"unsupported diagram family {s_family!r}")
    if not (k_max > 0 and t_max > 0 and nk >= 2 and nt >= 2):
        raise ValueError("extents must be positive and resolutions >= 2")
    p = params_from_alpha(alpha)
    ks = (np.arange(nk) + 0.5) * (k_max / nk)
    Ts = (np.arange(nt) + 0.5) * (t_max / nt)

    r = mi_index.index(_tension_symbol(s_family, Ts[:, None]), p, ks)
    labels = np.empty((nt, nk), dtype=object)
    for code, label in _LABELS.items():
        labels[r.classification == code] = label

    points = []  # (rows, k) of each zero locus
    # f1 and f2 are the numerators over 4 k^2 and k^3, so they change sign in the same cells
    for which, vals in enumerate((r.f1, r.f2)):
        zero, start = roots.cells(_finite_ends(vals))
        rows, cols = np.nonzero(start)  # row by row, ascending k within a row
        # a zero point is its own root; every other start is a cell the lane solve refines
        k, cell = ks[cols], ~zero[rows, cols]
        lane_t, lo = Ts[rows[cell]], cols[cell]

        def f(x, lanes, which=which, lane_t=lane_t):
            return _lattice_numerators(s_family, p, lane_t[lanes])[which](x)

        k[cell] = roots.brentq_lanes(f, ks[lo], ks[lo + 1], xtol=1e-12)
        points.append((rows, k))
    curves = [list(zip(k.tolist(), Ts[rows].tolist())) for rows, k in points]

    crossing = s_family == "whitham_st" and alpha < 0
    hit = _curve_intersection(s_family, p, Ts, points) if crossing else None

    return StabilityDiagram(
        family=s_family,
        alpha=float(alpha),
        k_max=float(k_max),
        t_max=float(t_max),
        nk=int(nk),
        nt=int(nt),
        ks=ks,
        Ts=Ts,
        labels=labels,
        f1=r.f1,
        f2=r.f2,
        delta=r.delta,
        f1_curve=curves[0],
        f2_curve=curves[1],
        t_s=None if hit is None else hit[1],
        region_counts=_region_counts(labels),
    )


def spot_check(
    diag: StabilityDiagram,
    n_cells: int = 10,
    a: float = 0.01,
    xi: float = 1e-3,
    N: int = floquet_hill.DEFAULT_N,
    seed: int = 0,
) -> list:
    """Re-validate random diagram cells against the spectral oracle.

    Cells are eligible when the projected-system prediction is decisive
    at the desk scale (a, xi): for U cells the predicted growth clears
    the detection threshold with margin, for S cells it is numerically
    zero; the cell lies inside the projected model's trust region (see
    ``mi_index.detuning_ratio``), where an S cell's Hill growth at
    amplitude a is still the a -> 0 verdict; and no fast oscillatory
    branch intrudes into the reporting window, of radius
    ``floquet_hill.default_window``.  Cells sitting essentially on a zero
    locus (including the resonance locus, where the expansion itself is
    singular) are skipped as ill-posed rather than forced.

    The S and U cells are screened in a seeded random order, in batches
    that start at 4 n_cells and double: each test is one array
    evaluation over the batch (the expansion, the pencil, the detuning
    ratio, the unperturbed eigenvalues), and the Hill oracle runs only on
    the first n_cells cells that pass.  The picks are those of a loop
    over the same order applying the tests to one cell at a time.

    Returns one dict per validated cell: {i, j, k, T, label, predicted,
    hill, ok}.  n_cells must be >= 0, and a, xi and N are checked as the
    screen and the oracle check them (ValueError), before any cell is
    screened.
    """
    if n_cells < 0:
        raise ValueError(f"spot check cell count must be >= 0, got {n_cells}")
    mi_index._check_small(a, xi)
    floquet_hill.FloquetProblem(None, a, xi, N)
    p = params_from_alpha(diag.alpha)
    window = floquet_hill.default_window(p)
    rng = np.random.default_rng(seed)
    order = rng.permutation(diag.nk * diag.nt)
    labels = diag.labels.ravel()[order]
    order = order[(labels == "S") | (labels == "U")]

    # the sideband pair first, then every other mode of the truncation
    modes = np.arange(-N, N + 1)
    modes = np.concatenate(([-1, 1], modes[np.abs(modes) != 1]))

    out = []
    threshold = 1e-8
    start, size = 0, 4 * n_cells
    while len(out) < n_cells and start < order.size:
        j, i = np.divmod(order[start : start + size], diag.nk)
        start, size = start + size, 2 * size
        T, k = diag.Ts[j][:, None], diag.ks[i][:, None]
        unstable = diag.labels[j, i] == "U"
        s = _tension_symbol(diag.family, T)
        # resonant cells carry non-finite coefficients; the mask drops them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c0, A2, A3, resonant = _stokes(s, p, k)
            wave = StokesWave(s, p, k, c0, A2, A2, A3)
            predicted = mi_index.growth_rate_leading(wave, a, xi).ravel()
            ratio = mi_index.detuning_ratio(wave, a, xi).ravel()
        lam = np.abs(floquet_hill.unperturbed_eigenvalue(wave, modes, xi))
        # too near a boundary for the desk-scale test
        decisive = np.where(
            unstable, ~(predicted <= 10.0 * threshold), ~(predicted >= 0.1 * threshold)
        )
        # the window must isolate the two sideband branches
        crowded = (lam[:, :2].max(axis=1) > 0.5 * window) | (lam[:, 2:].min(axis=1) <= 2.0 * window)
        picks = np.flatnonzero(~resonant.ravel() & decisive & ~(ratio > 0.05) & ~crowded)
        for r in picks[: n_cells - len(out)]:
            T_r, k_r = float(T[r, 0]), float(k[r, 0])
            s_r, A2_r = make_symbol(diag.family, {"T": T_r}), float(A2[r, 0])
            cell = StokesWave(s_r, p, k_r, float(c0[r, 0]), A2_r, A2_r, float(A3[r, 0]))
            hill = floquet_hill.max_growth(cell, a, xi, N=N, window=window)
            label = "U" if unstable[r] else "S"
            ok = hill > threshold if label == "U" else hill <= threshold
            out.append(
                {
                    "i": int(i[r]),
                    "j": int(j[r]),
                    "k": k_r,
                    "T": T_r,
                    "label": label,
                    "predicted": float(predicted[r]),
                    "hill": float(hill),
                    "ok": bool(ok),
                }
            )
    return out
