"""Critical wavenumbers, tension thresholds, and stability diagrams.

A critical wavenumber is a sign change of the index delta = f1 * f2.
Because each factor vanishes on its own smooth locus, every critical
point is owned by exactly one mechanism:

- ``group_velocity_extremum``:       f2 = dc_g/dk = 0,
- ``phase_velocity_coincidence``:    f1 = c_p(k) - c_p(2k) = 0.

For the polynomial-symbol models the zeros have closed forms; for the
nonlocal models they are bracketed on a log grid and polished by
bisection.  The surface-tension families additionally exhibit a
threshold T_c at which a pair of critical wavenumbers merges and
disappears, dropping the count from three to one; ``tc_of_alpha``
locates it by bisecting on the existence of that pair.  ``diagram``
sweeps a (k, T) lattice into stable/unstable cells plus the two zero-locus
curves, and ``spot_check`` re-validates random cells against the
independent spectral oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.optimize import brentq, minimize_scalar

from . import floquet_hill, mi_index
from .errors import BracketError, InconclusiveError, NoRootError, ResonanceError
from .stokes import expand, harmonic_denominator
from .symbols import DispersionSymbol, ModelParams, group_velocity_derivative, make_symbol

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
    method: str  # closed_form | bisection


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


def _scan_roots(f, grid) -> list:
    vals = np.asarray(f(grid), dtype=float)
    if not np.all(np.isfinite(vals[[0, -1]])):
        raise ValueError("bracket endpoints evaluate non-finite")
    roots = [float(grid[i]) for i in np.nonzero(vals == 0.0)[0]]
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        roots.append(float(brentq(f, grid[i], grid[i + 1], xtol=1e-12)))
    return sorted(roots)


def kc_numeric(
    s: DispersionSymbol,
    p: ModelParams,
    bracket: tuple = (1e-2, 1e2),
    n_probe: int = 400,
) -> list:
    """All critical wavenumbers of either mechanism inside the bracket.

    Sign changes of each factor's numerator are located on a log-spaced
    probe grid and polished by bisection to |dk| <= 1e-10.  Models whose
    critical wavenumber is claimed unique get a diagnostic warning (not an
    error) if the scan disagrees.

    Raises
    ------
    NoRootError
        Neither factor changes sign in the bracket.
    ValueError
        Non-finite endpoint evaluations or a bad bracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    if n_probe < 16:
        raise ValueError("n_probe too small")
    grid = np.geomspace(lo, hi, n_probe)

    results = []
    mechanisms = ("phase_velocity_coincidence", "group_velocity_extremum")
    for mech, f in zip(mechanisms, _numerators(s, p)):
        for root in _scan_roots(f, grid):
            results.append(
                CriticalResult(s.name, _result_params(p, s.params), mech, root, "bisection")
            )
    if not results:
        raise NoRootError(
            f"no critical wavenumber of either mechanism in ({lo:g}, {hi:g}) for {s.name}"
        )
    results.sort(key=lambda r: r.kc)
    if s.name in ("ilw", "whitham") and len(results) > 1:
        warnings.warn(
            f"{s.name}: expected a unique critical wavenumber, found "
            f"{[round(r.kc, 8) for r in results]}",
            stacklevel=2,
        )
    return results


def classify_intervals(
    s: DispersionSymbol,
    p: ModelParams,
    k_range: tuple,
    n_probe: int = 400,
) -> list:
    """Split a wavenumber range into maximal constant-sign intervals.

    Returns an ordered list of ((lo, hi), label) with label "S", "U" or
    "degenerate", labels taken from ``index`` at interval midpoints and
    endpoints refined by bisection on whichever factor changes sign.
    """
    if n_probe < 100:
        raise ValueError("n_probe must be >= 100")
    lo, hi = float(k_range[0]), float(k_range[1])
    if not (0.0 < lo < hi):
        raise ValueError("k_range must satisfy 0 < lo < hi")
    grid = np.geomspace(lo, hi, n_probe)
    roots = sorted(root for f in _numerators(s, p) for root in _scan_roots(f, grid))
    # collapse numerically coincident boundaries (curve intersections)
    bounds = [lo]
    for r in roots:
        if r - bounds[-1] > 1e-10 * (1.0 + r):
            bounds.append(r)
    if hi - bounds[-1] > 1e-10 * (1.0 + hi):
        bounds.append(hi)
    else:
        bounds[-1] = hi

    intervals = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        mid = math.sqrt(a * b)
        lab = _LABELS[mi_index.index(s, p, mid).classification]
        if intervals and intervals[-1][1] == lab:
            intervals[-1] = ((intervals[-1][0][0], b), lab)
        else:
            intervals.append(((a, b), lab))
    return intervals


# ---------------------------------------------------------------------------
# surface-tension thresholds


def _pair_min(s: DispersionSymbol, p: ModelParams, f, k_window, n_probe: int) -> float:
    """Global minimum of a factor numerator over a log window (refined)."""
    grid = np.geomspace(k_window[0], k_window[1], n_probe)
    vals = np.asarray(f(grid), dtype=float)
    i = int(np.argmin(vals))
    best = float(vals[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if lo < hi:
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
        best = min(best, float(res.fun))
    return best


def tc_of_alpha(variant: str, alpha: float, tol: float = 5e-3) -> float:
    """Tension threshold where the critical-wavenumber count drops 3 -> 1.

    For alpha > 0 the disappearing pair belongs to the group-velocity
    slope; for alpha < 0 to the phase-velocity coincidence factor.  The
    returned value is the bisection midpoint of the pair-existence
    predicate over T, accurate to tol/2 (plus predicate resolution).

    ``kdv_st`` is handled in closed form: both formula branches blow up
    at T = 1/3 from either side, so the threshold is exactly 1/3 for any
    alpha.

    Raises
    ------
    BracketError
        The predicate does not straddle (pair present at T=0.01, absent
        at T=0.9) — e.g. alpha outside the regime where the threshold
        exists.
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
    k_window = (1e-2, 1e2)

    def pair_exists(T: float) -> bool:
        s = make_symbol("whitham_st", {"T": T})
        return _pair_min(s, p, _numerators(s, p)[owner], k_window, 600) < 0.0

    t_lo, t_hi = 0.01, 0.9
    if not pair_exists(t_lo) or pair_exists(t_hi):
        raise BracketError(
            f"pair-existence predicate does not straddle on T in ({t_lo}, {t_hi}) "
            f"for alpha={alpha}"
        )
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if pair_exists(mid):
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


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
        rows = []
        for j, T in enumerate(self.Ts):
            for i, k in enumerate(self.ks):
                rows.append(
                    {
                        "k": float(k),
                        "T": float(T),
                        "k_sqrtT": float(k * math.sqrt(T)),
                        "label": str(self.labels[j, i]),
                        "f1": float(self.f1[j, i]),
                        "f2": float(self.f2[j, i]),
                        "delta": float(self.delta[j, i]),
                    }
                )
        return rows

    def curve_records(self) -> list:
        rows = []
        for name, pts in (("f1", self.f1_curve), ("f2", self.f2_curve)):
            for k, T in pts:
                rows.append(
                    {"curve": name, "k": float(k), "T": float(T), "k_sqrtT": float(k * math.sqrt(T))}
                )
        return rows


def _region_counts(labels: np.ndarray) -> dict:
    counts = {}
    for lab in ("S", "U"):
        _, n = ndimage.label(labels == lab)
        counts[lab] = int(n)
    return counts


def _curve_intersection(family: str, p: ModelParams, t_grid, k_window, n_probe: int):
    """(k, T) point where both factor loci cross, or None.

    Nested bisection: the inner solve follows one factor's zero curve
    k2(T); the outer solve drives the other factor to zero along it.
    """

    def inner_root(T: float, which: int):
        fs = _numerators(make_symbol(family, {"T": float(T)}), p)
        grid = np.geomspace(k_window[0], k_window[1], n_probe)
        roots = _scan_roots(fs[which], grid)
        return fs, (roots[0] if roots else None)

    for follow, other in ((1, 0), (0, 1)):

        def outer(T: float) -> float:
            fs, kr = inner_root(T, follow)
            if kr is None:
                raise NoRootError("curve left the window")
            return fs[other](kr)

        vals = []
        for T in t_grid:
            try:
                vals.append(outer(float(T)))
            except NoRootError:
                vals.append(math.nan)
        vals = np.array(vals)
        ok = np.isfinite(vals)
        idx = np.nonzero(ok[:-1] & ok[1:] & (vals[:-1] * vals[1:] < 0))[0]
        if idx.size:
            i = int(idx[0])
            ts = brentq(outer, float(t_grid[i]), float(t_grid[i + 1]), xtol=1e-8)
            _, ks_ = inner_root(ts, follow)
            return (float(ks_), float(ts))
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

    Cell labels come from ``index`` evaluated at cell centers, one array
    call per T row, which gives the same bits as a call per cell, so the
    lattice is consistent with the pointwise classifier by construction;
    the curves are per-row bisection refinements of the same factor
    numerators the classifier uses.
    """
    if s_family not in ("kdv_st", "whitham_st"):
        raise ValueError(f"unsupported diagram family {s_family!r}")
    if not (k_max > 0 and t_max > 0 and nk >= 2 and nt >= 2):
        raise ValueError("extents must be positive and resolutions >= 2")
    p = params_from_alpha(alpha)
    ks = (np.arange(nk) + 0.5) * (k_max / nk)
    Ts = (np.arange(nt) + 0.5) * (t_max / nt)

    labels = np.empty((nt, nk), dtype=object)
    f1 = np.empty((nt, nk))
    f2 = np.empty((nt, nk))
    delta = np.empty((nt, nk))
    f1_curve, f2_curve = [], []

    for j, T in enumerate(Ts):
        s = make_symbol(s_family, {"T": float(T)})
        r = mi_index.index(s, p, ks)
        labels[j] = [_LABELS[c] for c in r.classification]
        f1[j], f2[j], delta[j] = r.f1, r.f2, r.delta
        for curve, f in zip((f1_curve, f2_curve), _numerators(s, p)):
            curve.extend((root, float(T)) for root in _scan_roots(f, ks))

    t_s = None
    if s_family == "whitham_st" and alpha < 0:
        try:
            hit = _curve_intersection(s_family, p, Ts, (ks[0], ks[-1]), 200)
        except (ValueError, NoRootError):  # pragma: no cover - defensive
            hit = None
        if hit is not None:
            t_s = hit[1]

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
        f1=f1,
        f2=f2,
        delta=delta,
        f1_curve=f1_curve,
        f2_curve=f2_curve,
        t_s=t_s,
        region_counts=_region_counts(labels),
    )


def spot_check(
    diag: StabilityDiagram,
    n_cells: int = 10,
    a: float = 0.01,
    xi: float = 1e-3,
    N: int = 32,
    window: float | None = None,
    seed: int = 0,
) -> list:
    """Re-validate random diagram cells against the spectral oracle.

    Cells are eligible when the projected-system prediction is decisive
    at the desk scale (a, xi): for U cells the predicted growth clears
    the detection threshold with margin and the cell lies inside the
    projected model's trust region (see ``mi_index.detuning_ratio``);
    for S cells the prediction is numerically zero; and no fast
    oscillatory branch intrudes into the reporting window.  Cells
    sitting essentially on a zero locus (including the resonance locus,
    where the expansion itself is singular) are skipped as ill-posed
    rather than forced.

    Returns one dict per validated cell: {i, j, k, T, label, predicted,
    hill, ok}.
    """
    p = params_from_alpha(diag.alpha)
    if window is None:
        window = floquet_hill.default_window(p)
    rng = np.random.default_rng(seed)
    order = rng.permutation(diag.nk * diag.nt)

    # the sideband pair first, then every other mode of the truncation
    modes = np.arange(-N, N + 1)
    modes = np.concatenate(([-1, 1], modes[np.abs(modes) != 1]))

    out = []
    threshold = 1e-8
    for flat in order:
        if len(out) >= n_cells:
            break
        j, i = divmod(int(flat), diag.nk)
        label = str(diag.labels[j, i])
        if label not in ("S", "U"):
            continue
        T, k = float(diag.Ts[j]), float(diag.ks[i])
        s = make_symbol(diag.family, {"T": T})
        try:
            wave = expand(s, p, k)
        except ResonanceError:
            continue
        predicted = mi_index.growth_rate_leading(wave, a, xi)
        if label == "U" and predicted <= 10.0 * threshold:
            continue  # too near a boundary for the desk-scale test
        if label == "U" and mi_index.detuning_ratio(wave, a, xi) > 0.05:
            continue  # outside the projected model's trust region
        if label == "S" and predicted >= 0.1 * threshold:
            continue
        # the window must isolate the two sideband branches
        lam = np.abs(floquet_hill.unperturbed_eigenvalue(wave, modes, xi))
        if lam[:2].max() > 0.5 * window or lam[2:].min() <= 2.0 * window:
            continue
        hill = floquet_hill.max_growth(wave, a, xi, N=N, window=window)
        ok = hill > threshold if label == "U" else hill <= threshold
        out.append(
            {
                "i": int(i),
                "j": int(j),
                "k": k,
                "T": T,
                "label": label,
                "predicted": float(predicted),
                "hill": float(hill),
                "ok": bool(ok),
            }
        )
    return out
