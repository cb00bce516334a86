"""Dispersion symbols and linear wave kinematics.

A model in this package is a pair (m, parameters): a real, even Fourier
multiplier symbol m(k) normalized to m(0) = 1, together with a dispersion
strength beta != 0 and a rotation strength gamma > 0.  The full linear
dispersion relation of the underlying equation is

    c_p(k) = beta * m(k) + gamma / k**2,

so steeper-than-quadratic growth or decay of m controls everything the
rest of the package computes.  Built-in symbols:

==============  =============================================  ==========
name            m(k)                                           parameters
==============  =============================================  ==========
``kdv``         1 - k^2
``fkdv``        1 - |k|^delta                                  delta > 1/2
``ilw``         k * coth(k)
``whitham``     sqrt(tanh(k) / k)
``kdv_st``      1 - (1 - 3 T) k^2                              T >= 0
``whitham_st``  sqrt(tanh(k)/k * (1 + T k^2))                  T >= 0
``custom``      user supplied callables
==============  =============================================  ==========

All evaluators accept scalars or numpy arrays of k >= 0 and are extended
evenly through ``m_even`` for callers that need signed frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .roots import scan

__all__ = [
    "ModelParams",
    "DispersionSymbol",
    "HypothesisReport",
    "GroupVelocitySlope",
    "make_symbol",
    "parse_symbol_spec",
    "check_hypotheses",
    "phase_velocity",
    "group_velocity",
    "group_velocity_derivative",
]

# Below this wavenumber the ilw/whitham symbols switch to Taylor series:
# their closed forms are 0/0 at k = 0 and lose digits shortly above it.
_SERIES_CUTOFF = 1e-3


@dataclass(frozen=True)
class ModelParams:
    """Model coefficients: dispersion strength and rotation strength.

    beta may take either sign but not zero; gamma must be positive.  Both
    must be finite.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        beta, gamma = float(self.beta), float(self.gamma)
        if beta == 0 or not math.isfinite(beta):
            raise ValueError(f"beta must be finite and nonzero, got {beta}")
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)


def _as_nonnegative(k):
    arr = np.asarray(k, dtype=float)
    # a 0-d array is tested as a float: np.any costs more than evaluating m
    if float(arr) < 0 if arr.ndim == 0 else (arr < 0).any():
        raise ValueError("symbol evaluation requires k >= 0; use m_even for signed k")
    return arr


@dataclass(frozen=True)
class DispersionSymbol:
    """A dispersion symbol m with its first two derivatives.

    The raw callables are vectorized over k >= 0; ``m``, ``m1`` and ``m2``
    validate the sign of k, while ``m_even``, ``m1_odd`` and ``m2_even``
    evaluate the even extension at frequencies of any sign (m even, m'
    odd, m'' even).
    """

    name: str
    params: dict = field(default_factory=dict)
    growth_exponent: float = 0.0
    m_fn: Callable = None
    m1_fn: Callable = None
    m2_fn: Callable = None

    def _eval(self, fn, k):
        arr = _as_nonnegative(k)
        out = np.asarray(fn(arr), dtype=float)
        return float(out) if np.isscalar(k) or out.ndim == 0 else out

    def m(self, k):
        return self._eval(self.m_fn, k)

    def m1(self, k):
        return self._eval(self.m1_fn, k)

    def m2(self, k):
        return self._eval(self.m2_fn, k)

    def m_even(self, k):
        arr = np.abs(np.asarray(k, dtype=float))
        out = np.asarray(self.m_fn(arr), dtype=float)
        return float(out) if np.isscalar(k) or out.ndim == 0 else out

    def m1_odd(self, k):
        arr = np.asarray(k, dtype=float)
        out = np.sign(arr) * self.m1_fn(np.abs(arr))
        return float(out) if np.isscalar(k) or out.ndim == 0 else out

    def m2_even(self, k):
        arr = np.abs(np.asarray(k, dtype=float))
        out = np.asarray(self.m2_fn(arr), dtype=float)
        return float(out) if np.isscalar(k) or out.ndim == 0 else out


# ---------------------------------------------------------------------------
# built-in evaluators


def _kdv_family(coef):
    # m = 1 - coef * k^2; coef may be an array that broadcasts against k
    return (
        lambda k: 1.0 - coef * k * k,
        lambda k: -2.0 * coef * k,
        lambda k: np.full(np.broadcast(k, coef).shape, -2.0 * coef),
    )


def _fkdv(delta):
    def m(k):
        return 1.0 - np.power(k, delta)

    def m1(k):
        with np.errstate(divide="ignore"):
            return -delta * np.power(k, delta - 1.0)

    def m2(k):
        with np.errstate(divide="ignore"):
            return -delta * (delta - 1.0) * np.power(k, delta - 2.0)

    return m, m1, m2


# Powers of intermediate values go through np.float_power, which rounds as
# libm pow for scalars and arrays alike.  With `**`, a scalar k (whose
# intermediates are numpy scalars) takes libm pow while an array takes
# numpy's vectorised power or square, up to an ulp away, so an array
# evaluation would differ from the same k evaluated alone.


def _split(k, small, series_val, direct_fn):
    # evaluate direct_fn only on the safe branch to dodge 0/0 warnings
    safe = np.where(small, 1.0, k)
    return np.where(small, series_val, direct_fn(safe))


def _ilw_m(k):
    small = k < _SERIES_CUTOFF
    k2 = k * k
    series = 1.0 + k2 / 3.0 - k2 * k2 / 45.0 + 2.0 * k2 * k2 * k2 / 945.0
    return _split(k, small, series, lambda x: x / np.tanh(x))


def _ilw_m1(k):
    small = k < _SERIES_CUTOFF
    k2 = k * k
    series = 2.0 * k / 3.0 - 4.0 * k * k2 / 45.0 + 4.0 * k * k2 * k2 / 315.0

    def direct(x):
        csch2 = np.float_power(2.0 * np.exp(-x) / (1.0 - np.exp(-2.0 * x)), 2)
        return 1.0 / np.tanh(x) - x * csch2

    return _split(k, small, series, direct)


def _ilw_m2(k):
    small = k < _SERIES_CUTOFF
    k2 = k * k
    series = 2.0 / 3.0 - 4.0 * k2 / 15.0 + 4.0 * k2 * k2 / 63.0

    def direct(x):
        csch2 = np.float_power(2.0 * np.exp(-x) / (1.0 - np.exp(-2.0 * x)), 2)
        return 2.0 * csch2 * (x / np.tanh(x) - 1.0)

    return _split(k, small, series, direct)


def _whitham_g(x):
    return np.tanh(x) / x


def _whitham_g1(x):
    sech2 = np.float_power(2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x)), 2)
    return sech2 / x - np.tanh(x) / (x * x)


def _whitham_g2(x):
    sech2 = np.float_power(2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x)), 2)
    t = np.tanh(x)
    return -2.0 * sech2 * t / x - 2.0 * sech2 / (x * x) + 2.0 * t / (x * x * x)


def _whitham_m(k):
    small = k < _SERIES_CUTOFF
    k2 = k * k
    series = 1.0 - k2 / 6.0 + 19.0 * k2 * k2 / 360.0 - 55.0 * k2 * k2 * k2 / 3024.0
    return _split(k, small, series, lambda x: np.sqrt(_whitham_g(x)))


def _whitham_m1(k):
    small = k < _SERIES_CUTOFF
    k2 = k * k
    series = -k / 3.0 + 19.0 * k * k2 / 90.0 - 55.0 * k * k2 * k2 / 504.0
    return _split(k, small, series, lambda x: _whitham_g1(x) / (2.0 * np.sqrt(_whitham_g(x))))


def _whitham_m2(k):
    small = k < _SERIES_CUTOFF
    k2 = k * k
    series = -1.0 / 3.0 + 19.0 * k2 / 30.0 - 275.0 * k2 * k2 / 504.0

    def direct(x):
        g = _whitham_g(x)
        g1 = _whitham_g1(x)
        return _whitham_g2(x) / (2.0 * np.sqrt(g)) - g1 * g1 / (4.0 * np.float_power(g, 1.5))

    return _split(k, small, series, direct)


def _whitham_st(T):
    # sqrt(tanh(k)/k * (1 + T k^2)) factors as m_whitham(k) * s(k),
    # s = sqrt(1 + T k^2); only the whitham factor needs a series branch.
    # T may be an array that broadcasts against k.
    def s(k):
        return np.sqrt(1.0 + T * k * k)

    def m(k):
        return _whitham_m(k) * s(k)

    def m1(k):
        sk = s(k)
        return _whitham_m1(k) * sk + _whitham_m(k) * T * k / sk

    def m2(k):
        sk = s(k)
        return (
            _whitham_m2(k) * sk
            + 2.0 * _whitham_m1(k) * T * k / sk
            + _whitham_m(k) * T / np.float_power(sk, 3)
        )

    return m, m1, m2


def _tension_symbol(name: str, T) -> DispersionSymbol:
    """The ``kdv_st`` or ``whitham_st`` symbol at tension T >= 0.

    T is a float, or an array that broadcasts against k: the evaluators
    then return the symbol at every (T, k) pair at once, each the same
    float a symbol built at that T alone gives, and so does the growth
    exponent.
    """
    # plain arithmetic on the comparisons: floats for a float T, no numpy call
    if name == "kdv_st":
        return DispersionSymbol(name, {"T": T}, 2.0 * (T != 1.0 / 3.0), *_kdv_family(1.0 - 3.0 * T))
    return DispersionSymbol(name, {"T": T}, (T > 0) - 0.5, *_whitham_st(T))


def make_symbol(name: str, params: dict | None = None) -> DispersionSymbol:
    """Build a dispersion symbol by name.

    Parameters
    ----------
    name : str
        One of ``kdv``, ``fkdv``, ``ilw``, ``whitham``, ``kdv_st``,
        ``whitham_st``, ``custom``.
    params : dict, optional
        Extra parameters.  ``fkdv`` needs ``delta`` (> 1/2); the two
        surface-tension variants need ``T`` (>= 0).  ``custom`` needs
        callables ``m``, ``m1``, ``m2`` and a ``growth_exponent``.

    Returns
    -------
    DispersionSymbol

    Raises
    ------
    ValueError
        Unknown name, missing parameters, or parameters out of range.
    """
    params = dict(params or {})
    if name == "kdv":
        m, m1, m2 = _kdv_family(1.0)
        return DispersionSymbol("kdv", params, 2.0, m, m1, m2)
    if name == "fkdv":
        if "delta" not in params:
            raise ValueError("fkdv requires parameter 'delta'")
        delta = float(params["delta"])
        if not delta > 0.5:
            raise ValueError(f"fkdv requires delta > 1/2, got {delta}")
        m, m1, m2 = _fkdv(delta)
        return DispersionSymbol("fkdv", {"delta": delta}, delta, m, m1, m2)
    if name == "ilw":
        return DispersionSymbol("ilw", params, 1.0, _ilw_m, _ilw_m1, _ilw_m2)
    if name == "whitham":
        return DispersionSymbol("whitham", params, -0.5, _whitham_m, _whitham_m1, _whitham_m2)
    if name in ("kdv_st", "whitham_st"):
        T = float(params.get("T", 0.0))
        if T < 0:
            raise ValueError(f"{name} requires T >= 0, got {T}")
        return _tension_symbol(name, T)
    if name == "custom":
        try:
            m, m1, m2 = params["m"], params["m1"], params["m2"]
        except KeyError as exc:
            raise ValueError("custom symbol requires callables m, m1, m2") from exc
        alpha = float(params.get("growth_exponent", 0.0))
        return DispersionSymbol("custom", params, alpha, m, m1, m2)
    raise ValueError(f"unknown symbol name: {name!r}")


def parse_symbol_spec(spec: str) -> DispersionSymbol:
    """Parse a CLI symbol spec of the form ``name[:key=value,...]``.

    Examples: ``kdv``, ``fkdv:delta=1.5``, ``whitham_st:T=0.2``.
    """
    name, _, tail = spec.partition(":")
    name = name.strip()
    params = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed symbol parameter {item!r} in {spec!r}")
            try:
                params[key.strip()] = float(value)
            except ValueError as exc:
                raise ValueError(f"non-numeric symbol parameter {item!r} in {spec!r}") from exc
    return make_symbol(name, params)


# ---------------------------------------------------------------------------
# structural hypothesis checks


@dataclass(frozen=True)
class HypothesisReport:
    """Scanned verdicts for the three structural hypotheses on m.

    h1: m(0) = 1 and evenness (by construction of the even extension).
    h2: |m| grows like k**growth_exponent at large k; the fitted slope
        and the bracketing constants c1 <= |m|/k^alpha <= c2 on the tail
        of the grid are recorded rather than asserted against any
        particular constants.
    h3: m(k) != m(n k) for n = 2, 3 on the scanned range; the first
        violating k per n is recorded when a crossing exists.
    """

    name: str
    h1_ok: bool
    h2_ok: bool
    h3_ok: bool
    alpha: float
    alpha_fit: float
    c1: float
    c2: float
    h3_violations: dict
    kmax: float
    n_samples: int

    @property
    def h3_first_violation(self):
        return min(self.h3_violations.values()) if self.h3_violations else None


def check_hypotheses(s: DispersionSymbol, kmax: float = 100.0, n_samples: int = 400) -> HypothesisReport:
    """Scan a symbol for normalization, tail growth, and harmonic collisions.

    The tail-growth fit regresses log|m| on log k over the upper half of a
    linear grid on (0, kmax] and accepts when the slope is within 0.05 of
    the declared growth exponent.  The harmonic check scans m(k) - m(nk)
    for sign changes on a log grid for n in {2, 3} and refines any
    crossing with Brent's method.
    """
    if n_samples < 16:
        raise ValueError("n_samples too small for a meaningful scan")
    if not kmax > 0:
        raise ValueError("kmax must be positive")

    h1_ok = abs(s.m(1e-12) - 1.0) <= 1e-5 and s.m_even(-1.0) == s.m_even(1.0)

    grid = np.linspace(kmax / n_samples, kmax, n_samples)
    tail = grid[grid >= 0.5 * kmax]
    vals = np.abs(s.m(tail))
    mask = vals > 1e-12
    alpha = s.growth_exponent
    if mask.sum() >= 8:
        slope, _ = np.polyfit(np.log(tail[mask]), np.log(vals[mask]), 1)
        ratios = vals[mask] / tail[mask] ** alpha
        c1, c2 = float(ratios.min()), float(ratios.max())
    else:
        slope, c1, c2 = math.nan, math.nan, math.nan
    h2_ok = bool(abs(slope - alpha) <= 0.05)

    kscan = np.geomspace(max(1e-3, kmax * 1e-5), kmax, 4 * n_samples)
    violations = {}
    for n in (2, 3):
        kc = next(scan(lambda k: s.m(k) - s.m(n * k), kscan), None)
        if kc is not None:
            violations[n] = kc

    return HypothesisReport(
        name=s.name,
        h1_ok=bool(h1_ok),
        h2_ok=h2_ok,
        h3_ok=not violations,
        alpha=float(alpha),
        alpha_fit=float(slope),
        c1=c1,
        c2=c2,
        h3_violations=violations,
        kmax=float(kmax),
        n_samples=int(n_samples),
    )


# ---------------------------------------------------------------------------
# linear wave kinematics


def _check_k(k):
    """k as a float array (0-d for a scalar), checked positive and finite."""
    arr = np.asarray(k, dtype=float)
    if not (0 < float(arr) < math.inf if arr.ndim == 0 else ((arr > 0) & (arr < math.inf)).all()):
        raise ValueError("wavenumber k must be positive and finite")
    return arr


def phase_velocity(s: DispersionSymbol, p: ModelParams, k):
    """c_p(k) = beta m(k) + gamma / k^2 for k > 0."""
    arr = _check_k(k)
    out = p.beta * s.m(arr) + p.gamma / (arr * arr)
    return float(out) if np.isscalar(k) or out.ndim == 0 else out


def group_velocity(s: DispersionSymbol, p: ModelParams, k):
    """c_g(k) = beta (m(k) + k m'(k)) - gamma / k^2 for k > 0."""
    arr = _check_k(k)
    out = p.beta * (s.m(arr) + arr * s.m1(arr)) - p.gamma / (arr * arr)
    return float(out) if np.isscalar(k) or out.ndim == 0 else out


class GroupVelocitySlope(NamedTuple):
    """dc_g/dk together with its scale-cleared numerator.

    value = numerator / k^3 with
    numerator = 2 gamma + beta k^3 (k m''(k) + 2 m'(k));
    the numerator's zeros are exactly the group-velocity extrema.
    """

    value: float
    numerator: float


def group_velocity_derivative(s: DispersionSymbol, p: ModelParams, k) -> GroupVelocitySlope:
    """Slope of the group velocity, dc_g/dk, for k > 0."""
    arr = _check_k(k)
    k3 = arr ** 3
    numerator = 2.0 * p.gamma + p.beta * k3 * (arr * s.m2(arr) + 2.0 * s.m1(arr))
    value = numerator / k3
    if arr.ndim == 0:
        return GroupVelocitySlope(float(value), float(numerator))
    return GroupVelocitySlope(value, numerator)
