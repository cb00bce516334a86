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

``make_symbol`` declares each family once with the parameters it takes
(finite, known keys only; T defaults to 0).  The power laws m = 1 - c k^d
share one evaluator and carry their (c, d) as ``power_law``.

Each family has one evaluator, its jet: ``DispersionSymbol.jet(k, order)``
returns ``(m, m', m'')[:order + 1]`` from one pass that computes the
transcendentals the orders share (tanh, exp, the series branch) once and
nothing past ``order``.  ``m``, ``m1`` and ``m2`` are views of it, each
value the same float whichever orders are asked for with it.  All accept
scalars or numpy arrays of k >= 0 and are extended evenly through
``m_even`` for callers that need signed frequencies.

k is checked once per public call: by the accessors (``m``, ``m1``,
``m2``, ``jet``) for k >= 0, and by the kinematics (``phase_velocity``,
``group_velocity``, ``group_velocity_derivative`` and
``stokes.harmonic_denominator``) for positive and finite k, which then
evaluate the unchecked jet directly.  ilw and whitham form their Taylor
series, and the branch between series and closed form, only where some
k of the call is below the cutoff 1e-2; otherwise the closed form runs
alone, giving the same floats.
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
    # a 0-d array is tested as a float: np.all costs more than evaluating m; NaN fails k >= 0
    if not (float(arr) >= 0 if arr.ndim == 0 else (arr >= 0).all()):
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
    frequencies of any sign (m even, m' odd, m'' even).  ``jet_fn`` and
    ``_value`` check nothing: callers that have checked k use them.
    ``power_law`` is (c, d) for a symbol m = 1 - c k^d, else None.
    """

    name: str
    params: dict = field(default_factory=dict)
    growth_exponent: float = 0.0
    jet_fn: Callable = None
    power_law: tuple = None

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


def _power_law(c, d):
    # growth exponent, jet and (c, d) of m = 1 - c k^d; c may be an array that broadcasts against k
    def jet(k, order):
        m = 1.0 - c * np.power(k, d)
        if order == 0:
            return (m,)
        with np.errstate(divide="ignore"):
            m1 = -d * c * np.power(k, d - 1.0)
            if order == 1:
                return m, m1
            return m, m1, -d * (d - 1.0) * c * np.power(k, d - 2.0)

    return d * (c != 0), jet, (c, d)


# Powers of intermediate values go through np.float_power, which rounds as
# libm pow for scalars and arrays alike.  With `**`, a scalar k (whose
# intermediates are numpy scalars) takes libm pow while an array takes
# numpy's vectorised power or square, up to an ulp away, so an array
# evaluation would differ from the same k evaluated alone.
#
# ilw and whitham are 0/0 at k = 0 and lose digits shortly above it, so
# below _SERIES_CUTOFF each order takes its Taylor series.  The closed form
# is evaluated at x, which is k where no k is below the cutoff; otherwise
# x is 1 on the series branch, to dodge 0/0 warnings, and only then are the
# series formed and spliced in.


def _series_x(k):
    """The mask of k below _SERIES_CUTOFF (None if no k is) and the x the closed form takes."""
    small = np.less(k, _SERIES_CUTOFF)
    if not (small.any() if small.ndim else small):  # a scalar's test as a bool: .any() costs more
        return None, k
    return small, np.where(small, 1.0, k)


def _splice(small, k, closed, series):
    """The closed-form orders, each replaced by its Taylor series in (k, k^2) where small."""
    if small is None:
        return tuple(closed)
    k2 = k * k
    return tuple([np.where(small, f(k, k2), v) for f, v in zip(series, closed)])


_ILW_SERIES = (
    lambda k, k2: 1.0 + k2 / 3.0 - k2 * k2 / 45.0 + 2.0 * k2 * k2 * k2 / 945.0,
    lambda k, k2: 2.0 * k / 3.0 - 4.0 * k * k2 / 45.0 + 4.0 * k * k2 * k2 / 315.0,
    lambda k, k2: 2.0 / 3.0 - 4.0 * k2 / 15.0 + 4.0 * k2 * k2 / 63.0,
)

_WHITHAM_SERIES = (
    lambda k, k2: 1.0 - k2 / 6.0 + 19.0 * k2 * k2 / 360.0 - 55.0 * k2 * k2 * k2 / 3024.0,
    lambda k, k2: -k / 3.0 + 19.0 * k * k2 / 90.0 - 55.0 * k * k2 * k2 / 504.0,
    lambda k, k2: -1.0 / 3.0 + 19.0 * k2 / 30.0 - 275.0 * k2 * k2 / 504.0,
)


def _ilw_jet(k, order):
    small, x = _series_x(k)
    t = np.tanh(x)
    x_t = x / t
    jet = [x_t]
    if order > 0:
        csch2 = np.float_power(2.0 * np.exp(-x) / (1.0 - np.exp(-2.0 * x)), 2)
        jet.append(1.0 / t - x * csch2)
        if order > 1:
            jet.append(2.0 * csch2 * (x_t - 1.0))
    return _splice(small, k, jet, _ILW_SERIES)


def _whitham_jet(k, order):
    # m = sqrt(g) with g = tanh(x) / x
    small, x = _series_x(k)
    t = np.tanh(x)
    g = t / x
    root = np.sqrt(g)
    jet = [root]
    if order > 0:
        sech2 = np.float_power(2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x)), 2)
        xx = x * x
        g1 = sech2 / x - t / xx
        jet.append(g1 / (2.0 * root))
        if order > 1:
            g2 = -2.0 * sech2 * t / x - 2.0 * sech2 / xx + 2.0 * t / (xx * x)
            jet.append(g2 / (2.0 * root) - g1 * g1 / (4.0 * np.float_power(g, 1.5)))
    return _splice(small, k, jet, _WHITHAM_SERIES)


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


# Each parameter of the built-in families: its default (None if it must be given),
# its range, and the test of that range on its least and greatest value (NaN fails).
_PARAMS = {
    "delta": (None, "> 1/2", lambda lo, hi: 0.5 < lo and hi < math.inf),
    "T": (0.0, ">= 0", lambda lo, hi: 0.0 <= lo and hi < math.inf),
}

# Each built-in family: the parameters it takes, and its growth exponent,
# jet and power-law (c, d) (None off the power laws) from their values.
_FAMILIES = {
    "kdv": ((), lambda: _power_law(1.0, 2.0)),
    "fkdv": (("delta",), lambda delta: _power_law(1.0, delta)),
    "ilw": ((), lambda: (1.0, _ilw_jet, None)),
    "whitham": ((), lambda: (-0.5, _whitham_jet, None)),
    "kdv_st": (("T",), lambda T: _power_law(1.0 - 3.0 * T, 2.0)),
    # plain arithmetic on the comparison: a float for a float T, no numpy call
    "whitham_st": (("T",), lambda T: ((T > 0) - 0.5, _whitham_st(T), None)),
}


def make_symbol(name: str, params: dict | None = None) -> DispersionSymbol:
    """Build a dispersion symbol by name.

    Parameters
    ----------
    name : str
        One of ``kdv``, ``fkdv``, ``ilw``, ``whitham``, ``kdv_st``,
        ``whitham_st``, ``custom``.
    params : dict, optional
        The family's parameters, finite and no others: ``fkdv`` needs
        ``delta`` (> 1/2); ``kdv_st`` and ``whitham_st`` take ``T`` (>= 0,
        default 0), a float or an array (a list or tuple is taken as one)
        broadcasting against k: the symbol at every (T, k) pair at once,
        each the float a symbol built at that T alone gives.  ``custom``
        needs callables ``m``, ``m1``, ``m2`` and takes a
        ``growth_exponent`` (default 0).

    Returns
    -------
    DispersionSymbol

    Raises
    ------
    ValueError
        Unknown name, a parameter missing, not taken by the family, not
        a number or an array of numbers, or non-finite or out of range.
    """
    params = dict(params or {})
    if name == "custom":
        keys = ("m", "m1", "m2", "growth_exponent")
    elif name in _FAMILIES:
        keys, build = _FAMILIES[name]
    else:
        raise ValueError(f"unknown symbol name: {name!r}")
    if params.keys() - keys:
        unknown = ", ".join(sorted(params.keys() - keys))
        raise ValueError(f"{name} takes {', '.join(keys) or 'no parameters'}, not {unknown}")
    if name == "custom":
        fns = (params.get("m"), params.get("m1"), params.get("m2"))
        if not all(map(callable, fns)):
            raise ValueError("custom symbol requires callables m, m1, m2")
        alpha = float(params.get("growth_exponent", 0.0))

        def jet(k, order):  # the callables see a float array whether or not the caller checked k
            return [f(np.asarray(k, dtype=float)) for f in fns[: order + 1]]

        return DispersionSymbol("custom", params, alpha, jet)
    values = {}
    for key in keys:
        default, bound, allowed = _PARAMS[key]
        value = params.get(key, default)
        if value is None:
            raise ValueError(f"{name} requires parameter {key!r}")
        try:
            if not isinstance(value, (np.ndarray, list, tuple)):
                value = lo = hi = float(value)
            else:  # two reductions, the cheapest test: the diagram builds a symbol per solver step
                value = np.asarray(value, dtype=float)
                lo = np.minimum.reduce(value, axis=None, initial=math.inf)
                hi = np.maximum.reduce(value, axis=None, initial=-math.inf)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} requires {key} a number or an array of numbers, got {value!r}") from exc
        if not allowed(lo, hi):
            raise ValueError(f"{name} requires finite {key} {bound}, got {value}")
        values[key] = value
    return DispersionSymbol(name, values, *build(**values))


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
            key = key.strip()
            if key in params:
                raise ValueError(f"repeated symbol parameter {key!r} in {spec!r}")
            try:
                params[key] = float(value)
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


# check_hypotheses' fixed grids, built once and read-only: the upper half (k >= 50)
# of the 400-point linear grid on (0, 100], and the harmonic scan
_H2_TAIL = np.linspace(0.25, 100.0, 400)
_H2_TAIL = _H2_TAIL[_H2_TAIL >= 50.0]
_H3_SCAN = np.geomspace(1e-3, 100.0, 1600)
_H2_TAIL.setflags(write=False)
_H3_SCAN.setflags(write=False)


def check_hypotheses(s: DispersionSymbol) -> HypothesisReport:
    """Scan a symbol for normalization, tail growth, and harmonic collisions.

    The tail-growth fit regresses log|m| on log k over the upper half of a
    400-point linear grid on (0, 100] and accepts when the slope is within
    0.05 of the declared growth exponent.  The harmonic check scans
    m(k) - m(nk) for sign changes on a 1600-point log grid on [1e-3, 100]
    for n in {2, 3} and refines any crossing with Brent's method.
    """
    h1_ok = abs(s.m(1e-12) - 1.0) <= 1e-5 and s.m_even(-1.0) == s.m_even(1.0)

    tail = _H2_TAIL
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

    violations = {}
    for n in (2, 3):
        kc = next(scan(lambda k: s.m(k) - s.m(n * k), _H3_SCAN), None)
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
    out = p.beta * s._value(arr, 0) + p.gamma / (arr * arr)
    return float(out) if out.ndim == 0 else out


def group_velocity(s: DispersionSymbol, p: ModelParams, k):
    """c_g(k) = beta (m(k) + k m'(k)) - gamma / k^2 for k > 0."""
    arr = _check_k(k)
    m, m1 = s.jet_fn(arr, 1)
    out = p.beta * (m + arr * m1) - p.gamma / (arr * arr)
    return float(out) if out.ndim == 0 else out


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
    _, m1, m2 = s.jet_fn(arr, 2)
    k3 = arr ** 3
    numerator = 2.0 * p.gamma + p.beta * k3 * (arr * m2 + 2.0 * m1)
    value = numerator / k3
    if value.ndim == 0:
        return GroupVelocitySlope(float(value), float(numerator))
    return GroupVelocitySlope(value, numerator)
