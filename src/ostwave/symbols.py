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

Each family has one evaluator, its jet: ``DispersionSymbol.jet(k, order)``
returns ``(m, m', m'')[:order + 1]`` from one pass that computes the
transcendentals the orders share (tanh, exp, the series branch) once and
nothing past ``order``.  ``m``, ``m1`` and ``m2`` are views of it, each
value the same float whichever orders are asked for with it.  All accept
scalars or numpy arrays of k >= 0 and are extended evenly through
``m_even`` for callers that need signed frequencies.
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
_SERIES_CUTOFF = 1e-2


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

    ``jet_fn(k, order)`` is the symbol's one evaluator: vectorized over
    k >= 0, it returns ``(m, m', m'')[:order + 1]``, computing every
    intermediate they share once and nothing past ``order``.  ``jet``
    validates the sign of k and serves callers that need several orders
    at one k; ``m``, ``m1`` and ``m2`` are its single-order views, and
    ``m_even``, ``m1_odd`` and ``m2_even`` evaluate the even extension at
    frequencies of any sign (m even, m' odd, m'' even).
    """

    name: str
    params: dict = field(default_factory=dict)
    growth_exponent: float = 0.0
    jet_fn: Callable = None

    def _value(self, arr, order):
        out = np.asarray(self.jet_fn(arr, order)[order], dtype=float)
        return float(out) if out.ndim == 0 else out

    def jet(self, k, order: int) -> tuple:
        """(m(k), m'(k), m''(k))[:order + 1] for k >= 0, from one evaluation."""
        if order not in (0, 1, 2):
            raise ValueError(f"jet order must be 0, 1 or 2, got {order!r}")
        vals = [np.asarray(v, dtype=float) for v in self.jet_fn(_as_nonnegative(k), order)]
        return tuple([float(v) if v.ndim == 0 else v for v in vals])

    def m(self, k):
        return self._value(_as_nonnegative(k), 0)

    def m1(self, k):
        return self._value(_as_nonnegative(k), 1)

    def m2(self, k):
        return self._value(_as_nonnegative(k), 2)

    def m_even(self, k):
        return self._value(np.abs(np.asarray(k, dtype=float)), 0)

    def m1_odd(self, k):
        arr = np.asarray(k, dtype=float)
        out = np.sign(arr) * self.jet_fn(np.abs(arr), 1)[1]
        return float(out) if out.ndim == 0 else out

    def m2_even(self, k):
        return self._value(np.abs(np.asarray(k, dtype=float)), 2)


# ---------------------------------------------------------------------------
# built-in evaluators
#
# Each family's jet evaluates m, m' and m'' by the same expressions, in the
# same operation order, as a separate evaluator per derivative would, so a
# value is the same float whichever orders are asked for with it.


def _kdv_family(coef):
    # m = 1 - coef * k^2; coef may be an array that broadcasts against k
    def jet(k, order):
        m = 1.0 - coef * k * k
        if order == 0:
            return (m,)
        m1 = -2.0 * coef * k
        if order == 1:
            return m, m1
        return m, m1, np.full(np.broadcast(k, coef).shape, -2.0 * coef)

    return jet


def _fkdv(delta):
    def jet(k, order):
        m = 1.0 - np.power(k, delta)
        if order == 0:
            return (m,)
        with np.errstate(divide="ignore"):
            m1 = -delta * np.power(k, delta - 1.0)
            if order == 1:
                return m, m1
            return m, m1, -delta * (delta - 1.0) * np.power(k, delta - 2.0)

    return jet


# Powers of intermediate values go through np.float_power, which rounds as
# libm pow for scalars and arrays alike.  With `**`, a scalar k (whose
# intermediates are numpy scalars) takes libm pow while an array takes
# numpy's vectorised power or square, up to an ulp away, so an array
# evaluation would differ from the same k evaluated alone.
#
# ilw and whitham are 0/0 at k = 0 and lose digits shortly above it, so
# below _SERIES_CUTOFF each order takes its Taylor series.  The closed form
# is evaluated at x, which is k off the series branch and 1 on it, to
# dodge 0/0 warnings.


def _ilw_jet(k, order):
    small = k < _SERIES_CUTOFF
    k2 = k * k
    x = np.where(small, 1.0, k)
    t = np.tanh(x)
    x_t = x / t
    m = np.where(small, 1.0 + k2 / 3.0 - k2 * k2 / 45.0 + 2.0 * k2 * k2 * k2 / 945.0, x_t)
    if order == 0:
        return (m,)
    csch2 = np.float_power(2.0 * np.exp(-x) / (1.0 - np.exp(-2.0 * x)), 2)
    m1 = np.where(
        small,
        2.0 * k / 3.0 - 4.0 * k * k2 / 45.0 + 4.0 * k * k2 * k2 / 315.0,
        1.0 / t - x * csch2,
    )
    if order == 1:
        return m, m1
    series2 = 2.0 / 3.0 - 4.0 * k2 / 15.0 + 4.0 * k2 * k2 / 63.0
    return m, m1, np.where(small, series2, 2.0 * csch2 * (x_t - 1.0))


def _whitham_jet(k, order):
    # m = sqrt(g) with g = tanh(x) / x
    small = k < _SERIES_CUTOFF
    k2 = k * k
    x = np.where(small, 1.0, k)
    t = np.tanh(x)
    g = t / x
    root = np.sqrt(g)
    series0 = 1.0 - k2 / 6.0 + 19.0 * k2 * k2 / 360.0 - 55.0 * k2 * k2 * k2 / 3024.0
    m = np.where(small, series0, root)
    if order == 0:
        return (m,)
    sech2 = np.float_power(2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x)), 2)
    xx = x * x
    g1 = sech2 / x - t / xx
    series1 = -k / 3.0 + 19.0 * k * k2 / 90.0 - 55.0 * k * k2 * k2 / 504.0
    m1 = np.where(small, series1, g1 / (2.0 * root))
    if order == 1:
        return m, m1
    g2 = -2.0 * sech2 * t / x - 2.0 * sech2 / xx + 2.0 * t / (xx * x)
    series2 = -1.0 / 3.0 + 19.0 * k2 / 30.0 - 275.0 * k2 * k2 / 504.0
    return m, m1, np.where(small, series2, g2 / (2.0 * root) - g1 * g1 / (4.0 * np.float_power(g, 1.5)))


def _whitham_st(T):
    # sqrt(tanh(k)/k * (1 + T k^2)) factors as m_whitham(k) * s(k),
    # s = sqrt(1 + T k^2); only the whitham factor needs a series branch.
    # T may be an array that broadcasts against k.
    def jet(k, order):
        w = _whitham_jet(k, order)
        s = np.sqrt(1.0 + T * k * k)
        m = w[0] * s
        if order == 0:
            return (m,)
        m1 = w[1] * s + w[0] * T * k / s
        if order == 1:
            return m, m1
        return m, m1, w[2] * s + 2.0 * w[1] * T * k / s + w[0] * T / np.float_power(s, 3)

    return jet


def _tension_symbol(name: str, T) -> DispersionSymbol:
    """The ``kdv_st`` or ``whitham_st`` symbol at tension T >= 0.

    T is a float, or an array that broadcasts against k: the evaluators
    then return the symbol at every (T, k) pair at once, each the same
    float a symbol built at that T alone gives, and so does the growth
    exponent.
    """
    # plain arithmetic on the comparisons: floats for a float T, no numpy call
    if name == "kdv_st":
        return DispersionSymbol(name, {"T": T}, 2.0 * (T != 1.0 / 3.0), _kdv_family(1.0 - 3.0 * T))
    return DispersionSymbol(name, {"T": T}, (T > 0) - 0.5, _whitham_st(T))


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
        return DispersionSymbol("kdv", params, 2.0, _kdv_family(1.0))
    if name == "fkdv":
        if "delta" not in params:
            raise ValueError("fkdv requires parameter 'delta'")
        delta = float(params["delta"])
        if not delta > 0.5:
            raise ValueError(f"fkdv requires delta > 1/2, got {delta}")
        return DispersionSymbol("fkdv", {"delta": delta}, delta, _fkdv(delta))
    if name == "ilw":
        return DispersionSymbol("ilw", params, 1.0, _ilw_jet)
    if name == "whitham":
        return DispersionSymbol("whitham", params, -0.5, _whitham_jet)
    if name in ("kdv_st", "whitham_st"):
        T = float(params.get("T", 0.0))
        if T < 0:
            raise ValueError(f"{name} requires T >= 0, got {T}")
        return _tension_symbol(name, T)
    if name == "custom":
        try:
            fns = (params["m"], params["m1"], params["m2"])
        except KeyError as exc:
            raise ValueError("custom symbol requires callables m, m1, m2") from exc
        alpha = float(params.get("growth_exponent", 0.0))
        return DispersionSymbol("custom", params, alpha, lambda k, order: [f(k) for f in fns[: order + 1]])
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
    kmax: float  # the fixed scan: the tail grid has n_samples points on (0, kmax]
    n_samples: int

    @property
    def h3_first_violation(self):
        return min(self.h3_violations.values()) if self.h3_violations else None


def check_hypotheses(s: DispersionSymbol) -> HypothesisReport:
    """Scan a symbol for normalization, tail growth, and harmonic collisions.

    The tail-growth fit regresses log|m| on log k over the upper half of a
    400-point linear grid on (0, 100] and accepts when the slope is within
    0.05 of the declared growth exponent.  The harmonic check scans
    m(k) - m(nk) for sign changes on a 1600-point log grid on [1e-3, 100]
    for n in {2, 3} and refines any crossing with Brent's method.
    """
    h1_ok = abs(s.m(1e-12) - 1.0) <= 1e-5 and s.m_even(-1.0) == s.m_even(1.0)

    grid = np.linspace(0.25, 100.0, 400)
    tail = grid[grid >= 50.0]
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

    kscan = np.geomspace(1e-3, 100.0, 1600)
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
        kmax=100.0,
        n_samples=400,
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
    m, m1 = s.jet(arr, 1)
    out = p.beta * (m + arr * m1) - p.gamma / (arr * arr)
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
    _, m1, m2 = s.jet(arr, 2)
    k3 = arr ** 3
    numerator = 2.0 * p.gamma + p.beta * k3 * (arr * m2 + 2.0 * m1)
    value = numerator / k3
    if arr.ndim == 0:
        return GroupVelocitySlope(float(value), float(numerator))
    return GroupVelocitySlope(value, numerator)
