"""Critical wavenumbers, tension thresholds, and stability diagrams.

A critical wavenumber is a sign change of the index delta = f1 * f2.
Because each factor vanishes on its own smooth locus, every critical
point is owned by exactly one mechanism:

- ``group_velocity_extremum``:       f2 = dc_g/dk = 0,
- ``phase_velocity_coincidence``:    f1 = c_p(k) - c_p(2k) = 0.

For the power-law symbols m = 1 - c k^d (kdv, kdv_st, fkdv) the zeros
have closed forms; for the nonlocal models they are bracketed on a log
grid and refined with Brent's method (``roots.brentq``).  ``diagram``
sweeps a (k, T) lattice into stable/unstable cells plus the two
zero-locus curves: it evaluates the whole lattice at once and refines
the zero-locus points of each factor in one lockstep solve
(``roots.brentq_lanes``).  Both surface-tension thresholds are points
where two zero loci meet: T_s where the f1 and f2 loci cross, T_c where
a pair of critical wavenumbers merges (three become one), the fold where
the owner's numerator F and dF/dk vanish.  ``_lattice_crossing`` finds
both by a 2x2 Newton solve in (k, T) on the caller's residual pair, which
it differentiates forward at sqrt(eps), seeded where both change sign on
a lattice: ``diagram``'s for T_s, and for ``tc_of_alpha`` the two rows
that bracket T_c against ``kc_numeric``'s probe grid in k, so T_c's
bracket is read off the grid that counts the critical wavenumbers.
``spot_check`` re-validates random cells against the independent
spectral oracle: it screens cells in batches, each eligibility test one
array evaluation over a batch (the expansion ``stokes._stokes``, the
pencil growth, the detuning ratio and the unperturbed eigenvalues), and
solves only its picks, all of them as one batch wave in one
``floquet_hill.spectrum`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import floquet_hill, mi_index, roots
from .errors import BracketError, InconclusiveError, NoRootError
from .roots import brentq, minimize_scalar
from .stokes import _SCAN_GRID, _stokes, harmonic_denominator
from .symbols import (
    DispersionSymbol,
    ModelParams,
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
# where kdv_st loses its dispersive term: |c| = |1 - 3T| below 3 times it
T_DEGENERATE_TOL = 1e-5

# diagram and interval labels of the index classifications
_LABELS = {"stable": "S", "unstable": "U", "degenerate": "degenerate"}


def params_from_alpha(alpha: float) -> ModelParams:
    """Normalize a ratio alpha = gamma/beta to beta = +-1, gamma = |alpha|.

    The zero loci of f1 and f2 depend on (beta, gamma) only through the
    ratio, so this normalization loses nothing for diagrams/thresholds.
    It is where the tension drivers check alpha: finite and nonzero.
    """
    if not (math.isfinite(alpha) and alpha != 0):
        raise ValueError(f"alpha must be finite and nonzero, got {alpha}")
    return ModelParams(beta=math.copysign(1.0, alpha), gamma=abs(alpha))


@dataclass(frozen=True)
class CriticalResult:
    """One located critical wavenumber with its mechanism and provenance."""

    model: str
    params: dict
    mechanism: str  # group_velocity_extremum | phase_velocity_coincidence
    kc: float
    method: str  # closed_form | bisection (the Brent scan of kc_numeric)


def _result_params(s: DispersionSymbol, p: ModelParams) -> dict:
    return {"beta": p.beta, "gamma": p.gamma, **s.params}


def kc_closed_form(s: DispersionSymbol, p: ModelParams) -> CriticalResult:
    """Exact critical wavenumber of a power-law symbol m = 1 - c k^d.

    (c, d) is the symbol's ``power_law``.  With beta c > 0 the critical
    point is a group-velocity extremum at

        kc = (2 gamma / (d (1 + d) beta c))^(1 / (2 + d)),

    otherwise a phase-velocity coincidence at

        kc = (gamma / (4 |beta c| (2^d - 1) / 3))^(1 / (2 + d)).

    At d = 2 the factor (2^d - 1) / 3 is exactly 1, so fkdv at delta = 2
    and kdv_st at T = 0 give kdv's floats.

    Raises
    ------
    InconclusiveError
        |c| <= 3 T_DEGENERATE_TOL (kdv_st near T = 1/3): the dispersive
        term vanishes and no verdict exists.
    ValueError
        A symbol with no closed form, or a kc the arithmetic overflowed
        or underflowed (not positive and finite).
    """
    if s.power_law is None:
        raise ValueError(f"no closed-form critical wavenumber for model {s.name!r}")
    c, d = s.power_law
    if abs(c) <= 3.0 * T_DEGENERATE_TOL:
        raise InconclusiveError(f"{s.name} has no k^{d:g} term (c = {c:.3g}); the verdict is inconclusive")
    beta_c, gamma = p.beta * c, p.gamma
    if beta_c > 0:
        kc = (2.0 * gamma / (d * (1.0 + d) * beta_c)) ** (1.0 / (2.0 + d))
        mech = "group_velocity_extremum"
    else:
        kc = (gamma / (4.0 * abs(beta_c) * ((2.0 ** d - 1.0) / 3.0))) ** (1.0 / (2.0 + d))
        mech = "phase_velocity_coincidence"
    if not 0 < kc < math.inf:
        raise ValueError(f"{s.name}: the closed-form critical wavenumber is kc={kc} at beta={p.beta}, gamma={gamma}")
    return CriticalResult(s.name, _result_params(s, p), mech, kc, "closed_form")


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


# Roots are found through this module's ``brentq`` name, which benchmark/tracer.py
# wraps to count them.  The tracer binds ``minimize_scalar`` here too, which no
# code in this module calls, so that import stays until the tracer drops it.


def _critical_roots(s: DispersionSymbol, p: ModelParams, grid) -> list:
    """Ascending (root, mechanism) pairs of both factor numerators on a probe grid."""
    pairs = []
    for mech, f in zip(("phase_velocity_coincidence", "group_velocity_extremum"), _numerators(s, p)):
        vals = f(grid)
        if not np.isfinite(vals[[0, -1]]).all():
            raise ValueError("bracket endpoints evaluate non-finite")
        pairs.extend((root, mech) for root in roots.scan(f, grid, vals, solve=brentq))
    return sorted(pairs, key=lambda pair: pair[0])


def kc_numeric(s: DispersionSymbol, p: ModelParams) -> list:
    """All critical wavenumbers of either mechanism in k in (1e-2, 1e2).

    Sign changes of each factor's numerator are located on a 400-point
    log-spaced probe grid over that range and refined with Brent's method
    to a tolerance of 1e-12 + 4 eps |k| in k (``roots.brentq``, xtol
    1e-12).

    Raises
    ------
    NoRootError
        Neither factor changes sign in the range.
    ValueError
        Non-finite evaluations at the ends of the range.
    """
    params = _result_params(s, p)
    pairs = _critical_roots(s, p, _SCAN_GRID)
    results = [CriticalResult(s.name, params, mech, root, "bisection") for root, mech in pairs]
    if not results:
        lo, hi = _SCAN_GRID[0], _SCAN_GRID[-1]
        raise NoRootError(f"no critical wavenumber of either mechanism in ({lo:g}, {hi:g}) for {s.name}")
    return results


def classify_intervals(s: DispersionSymbol, p: ModelParams, k_range: tuple) -> list:
    """Split a wavenumber range into maximal constant-sign intervals.

    Returns an ordered list of ((lo, hi), label) with label "S", "U" or
    "degenerate", labels taken from one ``index`` call at the interval
    midpoints and endpoints the critical wavenumbers ``kc_numeric`` finds
    in the range: Brent refinements (xtol 1e-12) of the sign changes of
    either factor's numerator on a 400-point log-spaced probe grid.
    """
    lo, hi = float(k_range[0]), float(k_range[1])
    if not (0.0 < lo < hi < math.inf):
        raise ValueError("k_range must satisfy 0 < lo < hi < inf")
    zeros = [root for root, _ in _critical_roots(s, p, np.geomspace(lo, hi, 400))]
    # collapse numerically coincident boundaries (curve intersections); a root at either end is no boundary
    bounds = [lo]
    for r in zeros:
        if r - bounds[-1] > 1e-10 * (1.0 + r) and hi - r > 1e-10 * (1.0 + hi):
            bounds.append(r)
    bounds.append(hi)

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


_NEWTON_RTOL = 16.0 * float(np.finfo(float).eps)  # a T step this small has converged
_NEWTON_H = math.sqrt(np.finfo(float).eps)  # the forward-difference step, relative to k and T


def _newton_kT(residuals, k: float, T: float):
    """Newton's method in (k, T) on a pair of residuals: their common root, or None.

    ``residuals(ks, Ts)`` gives the two residuals at the points (ks[i],
    Ts[i]) as two arrays.  Each step calls it once, on (k, T), (k + hk, T)
    and (k, T + hT), and differentiates forward: hk and hT are sqrt(eps)
    of k and T.  It stops at a step of at most 16 ulps of T and 1e-9 of k
    (difference noise can hold k's steps near 1e-12; at a fold, f_k = 0,
    T feels them squared).  None if an iterate leaves k, T > 0, the
    Jacobian is singular, or 20 steps do not converge.
    """
    for _ in range(20):
        if not (0 < k < math.inf and 0 < T < math.inf):
            return None
        hk, hT = (k + _NEWTON_H * k) - k, (T + _NEWTON_H * T) - T
        (f, fk, fT), (g, gk, gT) = (v.tolist() for v in residuals(np.array([k, k + hk, k]), np.array([T, T, T + hT])))
        a, b, c, d = (fk - f) / hk, (fT - f) / hT, (gk - g) / hk, (gT - g) / hT
        det = a * d - b * c
        if det == 0:
            return None
        dk, dT = (f * d - b * g) / det, (a * g - c * f) / det
        k, T = k - dk, T - dT
        if abs(dk) <= 1e-9 * k and abs(dT) <= _NEWTON_RTOL * T:
            return k, T
    return None


def _lattice_crossing(residuals, ks, Ts, a, b):
    """T where the zero loci of residuals a and b meet, from their values on a lattice (rows Ts, columns ks).

    Each square of four neighbouring lattice points at whose corners both
    change sign or vanish seeds ``_newton_kT`` on ``residuals`` where the
    least-squares planes through their corner values meet, clipped to the
    square, nearest that meeting point first (ties in lattice order).  The
    first converged root decides: its T if it lies inside the lattice,
    else None.
    """
    f = np.stack([a, b])
    # corners (j, i), (j, i + 1), (j + 1, i), (j + 1, i + 1) of each square, on axis 1: k along i, T along j
    c = np.stack([f[:, :-1, :-1], f[:, :-1, 1:], f[:, 1:, :-1], f[:, 1:, 1:]], axis=1)
    j, i = np.nonzero(((c.min(axis=1) <= 0) & (c.max(axis=1) >= 0)).all(axis=0))
    seeds = []
    for n, corners in enumerate(c[:, :, j, i].transpose(2, 0, 1).tolist()):
        # each plane, over the square's (x, y) in [0, 1]^2: mean + slope_k (x - 1/2) + slope_T (y - 1/2)
        (m1, a1, b1), (m2, a2, b2) = (
            ((p + q + r + s) / 4, (q - p + s - r) / 2, (r - p + s - q) / 2) for p, q, r, s in corners
        )
        det = a1 * b2 - b1 * a2  # 0 for parallel planes, which meet nowhere: seeded at the far corner, tried last
        x, y = (0.5 + (b1 * m2 - m1 * b2) / det, 0.5 + (a2 * m1 - a1 * m2) / det) if det else (math.inf, math.inf)
        x0, y0 = min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)
        seeds.append((math.hypot(x - x0, y - y0), n, x0, y0))
    for _, n, x, y in sorted(seeds):  # nearest first, ties in lattice order
        k, T = ks[i[n]] + x * (ks[i[n] + 1] - ks[i[n]]), Ts[j[n]] + y * (Ts[j[n] + 1] - Ts[j[n]])
        hit = _newton_kT(residuals, float(k), float(T))
        if hit is not None:
            return hit[1] if ks[0] <= hit[0] <= ks[-1] and Ts[0] <= hit[1] <= Ts[-1] else None
    return None


# the fold's seed rows: geometric over the bracket, so that thresholds near
# T = 0.01 get rows of their own, against kc_numeric's probe grid in k
_TC_ROWS = np.geomspace(0.01, 0.9, 20)


def tc_of_alpha(variant: str, alpha: float) -> float:
    """Tension threshold where the critical-wavenumber count drops 3 -> 1.

    For alpha > 0 the disappearing pair belongs to the group-velocity
    slope; for alpha < 0 to the phase-velocity coincidence factor.  The
    pair exists while the owner's numerator F(k, T) dips below zero on k
    in [1e-2, 1e2]; T_c is the fold where the pair merges, where the
    loci F = 0 and dF/dk = 0 meet.  One lattice evaluation of F, on 20
    geometric T rows in [0.01, 0.9] against the 400-point log k probe
    grid that ``kc_numeric`` counts roots on (``stokes._SCAN_GRID``),
    brackets it between the first two rows whose minima over k change
    sign, and ``_lattice_crossing`` seeds the fold solve from F and its
    slope along k on those two rows.  The solve's residuals are F and its
    central difference along k at a step of eps^(1/4) k, one 3x3 (k, T)
    evaluation per Newton step, and it stops at a T step of 16 ulps: T_c
    is the fold to rounding.

    ``kdv_st`` is handled in closed form: both formula branches blow up
    at T = 1/3 from either side, so the threshold is exactly 1/3 for any
    alpha ``params_from_alpha`` takes; it refuses the others for every variant.

    Raises
    ------
    BracketError
        The minimum is not negative on the first row (T = 0.01) and
        positive on the last (T = 0.9), e.g. alpha outside the regime
        where the threshold exists.
    InconclusiveError
        No seed's Newton solve converges, or the first root found lies
        outside the two seed rows or the k grid.
    """
    p = params_from_alpha(alpha)
    if variant == "kdv_st":
        return 1.0 / 3.0
    if variant != "whitham_st":
        raise ValueError(f"unsupported variant {variant!r}")

    owner = 1 if alpha > 0 else 0  # position in _numerators: f2 for alpha > 0, else f1
    vals = _numerators(make_symbol("whitham_st", {"T": _TC_ROWS[:, None]}), p)[owner](_SCAN_GRID)
    low = vals.min(axis=1)
    if not low[0] < 0 < low[-1]:
        lo, hi = _TC_ROWS[0], _TC_ROWS[-1]
        raise BracketError(
            f"pair-existence predicate does not straddle on T in ({lo:g}, {hi:g}) for alpha={alpha}"
        ) from ValueError(f"owner minima {low[0]:.3g} at T={lo:g} and {low[-1]:.3g} at T={hi:g}")
    j = int(np.argmax(low >= 0)) - 1  # the last row of the first sign change
    h = float(np.finfo(float).eps) ** 0.25

    def residuals(ks, Ts):  # F and its central k-difference, one step for all points: rows points, columns k
        hk = (ks[0] + h * ks[0]) - ks[0]
        F = _numerators(make_symbol("whitham_st", {"T": Ts[:, None]}), p)[owner](ks[:, None] + [-hk, 0.0, hk])
        return F[:, 1], (F[:, 2] - F[:, 0]) / (2 * hk)

    # the slope per grid step is k dF/dk times a constant on the log grid: dF/dk's zero locus, at half the cost
    tc = _lattice_crossing(
        residuals, _SCAN_GRID, _TC_ROWS[j : j + 2], vals[j : j + 2], np.gradient(vals[j : j + 2], axis=1)
    )
    if tc is None:
        raise InconclusiveError(f"the fold solve for T_c did not converge between its seed rows for alpha={alpha}")
    return tc


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

    def row_blocks(self):
        """The cell table as ``cli.emit`` column blocks, one per T row, T ascending and k ascending within a row."""
        ks = self.ks.tolist()  # one list for every row, so the writer spells it once
        for T, *row in zip(self.Ts.tolist(), self.labels, self.f1, self.f2, self.delta):
            label, f1, f2, delta = (v.tolist() for v in row)
            k_sqrtT = (self.ks * math.sqrt(T)).tolist()
            yield {"k": ks, "T": T, "k_sqrtT": k_sqrtT, "label": label, "f1": f1, "f2": f2, "delta": delta}


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
    cross inside the lattice, sought from the same f1 and f2 values
    (``_lattice_crossing``), else None.  ``params_from_alpha`` checks alpha.
    """
    if s_family not in ("kdv_st", "whitham_st"):
        raise ValueError(f"unsupported diagram family {s_family!r}")
    if not (0 < k_max < math.inf and 0 < t_max < math.inf and nk >= 2 and nt >= 2):
        raise ValueError("extents must be positive and finite and resolutions >= 2")
    p = params_from_alpha(alpha)
    ks = (np.arange(nk) + 0.5) * (k_max / nk)
    Ts = (np.arange(nt) + 0.5) * (t_max / nt)

    r = mi_index.index(make_symbol(s_family, {"T": Ts[:, None]}), p, ks)
    labels = np.empty((nt, nk), dtype=object)
    for code, label in _LABELS.items():
        labels[r.classification == code] = label

    curves = []  # (k, T) points of each zero locus
    # f1 and f2 are the numerators over 4 k^2 and k^3, so they change sign in the same cells;
    # all are finite, since index refuses a lattice with any non-finite delta = f1 * f2
    for which, vals in enumerate((r.f1, r.f2)):
        zero, start = roots.cells(vals)
        rows, cols = np.nonzero(start)  # row by row, ascending k within a row
        # a zero point is its own root; every other start is a cell the lane solve refines
        k, cell = ks[cols], ~zero[rows, cols]
        lane_t, lo = Ts[rows[cell]], cols[cell]

        def f(x, lanes, which=which, lane_t=lane_t):
            return _numerators(make_symbol(s_family, {"T": lane_t[lanes]}), p)[which](x)

        k[cell] = roots.brentq_lanes(f, ks[lo], ks[lo + 1], xtol=1e-12)
        curves.append(list(zip(k.tolist(), Ts[rows].tolist())))

    t_s = None
    if s_family == "whitham_st" and alpha < 0:
        def residuals(k, T):  # both factor numerators at the points (k[i], T[i])
            return [num(k) for num in _numerators(make_symbol(s_family, {"T": T}), p)]

        t_s = _lattice_crossing(residuals, ks, Ts, r.f1, r.f2)

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
        t_s=t_s,
        region_counts=_region_counts(labels),
    )


def spot_check(diag: StabilityDiagram, n_cells: int = 10, seed: int = 0) -> list:
    """Re-validate random diagram cells against the spectral oracle.

    Every cell is checked at ``floquet_hill``'s desk scale: amplitude a =
    ``DESK_A`` = 0.01, offset xi = ``DESK_XI`` = 1e-3, N = ``DEFAULT_N`` = 32.
    Cells are eligible when the projected-system prediction is decisive
    at that scale: for U cells the predicted growth clears
    the detection threshold with margin, for S cells it is numerically
    zero; the cell lies inside the projected model's trust region (see
    ``mi_index.detuning_ratio``), where an S cell's Hill growth at
    amplitude a is still the a -> 0 verdict; and no fast oscillatory
    branch intrudes into the reporting window, of radius
    ``floquet_hill.default_window``.  Cells sitting essentially on a zero
    locus (including the resonance locus, where the expansion itself is
    singular) are skipped as ill-posed rather than forced.

    The S and U cells are screened in a seeded random order, in batches
    that start at 4 n_cells and double.  One screen builds a batch's wave,
    one expansion over the cells' (k, T), and runs each test as one array
    evaluation over it (the pencil, the detuning ratio, the unperturbed
    eigenvalues); the loop keeps the first n_cells cells that pass.  The
    same screen then builds the picks' wave, labels and pencil growth,
    and their wave is one Hill problem, which ``floquet_hill.spectrum``
    solves as a batch, in numpy: for each pick only the few eigenvalues
    nearest the origin, by block subspace iteration on its B^-1.

    Returns one dict per validated cell: {i, j, k, T, label, predicted,
    hill, ok}.  n_cells must be >= 0 (ValueError).
    """
    if n_cells < 0:
        raise ValueError(f"spot check cell count must be >= 0, got {n_cells}")
    a, xi, N = floquet_hill.DESK_A, floquet_hill.DESK_XI, floquet_hill.DEFAULT_N
    p = params_from_alpha(diag.alpha)
    window = floquet_hill.default_window(p)
    rng = np.random.default_rng(seed)
    order = rng.permutation(diag.nk * diag.nt)
    labels = diag.labels.ravel()[order]
    order = order[(labels == "S") | (labels == "U")]

    # the sideband pair first, then every other mode of the truncation
    modes = np.arange(-N, N + 1)
    modes = np.concatenate(([-1, 1], modes[np.abs(modes) != 1]))
    threshold = 1e-8

    def screen(cells):
        """The batch wave of flat cell indices, with their labels, pencil growth and eligibility."""
        j, i = np.divmod(cells, diag.nk)
        labels = diag.labels[j, i]
        s = make_symbol(diag.family, {"T": diag.Ts[j][:, None]})
        # resonant cells carry non-finite coefficients; the mask drops them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            wave, resonant = _stokes(s, p, diag.ks[i][:, None])
            predicted = mi_index.growth_rate_leading(wave, a, xi).ravel()
            ratio = mi_index.detuning_ratio(wave, a, xi).ravel()
        lam = np.abs(floquet_hill.unperturbed_eigenvalue(wave, modes, xi))
        # too near a boundary for the desk-scale test
        decisive = np.where(labels == "U", ~(predicted <= 10.0 * threshold), ~(predicted >= 0.1 * threshold))
        # the window must isolate the two sideband branches
        crowded = (lam[:, :2].max(axis=1) > 0.5 * window) | (lam[:, 2:].min(axis=1) <= 2.0 * window)
        return wave, labels, predicted, ~resonant.ravel() & decisive & ~(ratio > 0.05) & ~crowded

    picks, start, size = order[:0], 0, 4 * n_cells
    while picks.size < n_cells and start < order.size:
        cells = order[start : start + size]
        start, size = start + size, 2 * size
        picks = np.concatenate([picks, cells[screen(cells)[3]]])[:n_cells]
    wave, labels, predicted, _ = screen(picks)
    spectra = floquet_hill.spectrum(floquet_hill.FloquetProblem(wave, a, xi, N), window)
    j, i = np.divmod(picks, diag.nk)
    names = ("i", "j", "k", "T", "label", "predicted")
    columns = (i, j, diag.ks[i], diag.Ts[j], labels, predicted)
    out = [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns))]
    for row, spec in zip(out, spectra):
        row["hill"] = hill = spec.max_real_in_window
        row["ok"] = hill > threshold if row["label"] == "U" else hill <= threshold
    return out
