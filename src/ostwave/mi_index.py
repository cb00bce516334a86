"""Modulational stability index and the projected sideband system.

The index is a product of two independently meaningful factors,

    f1(k) = c_p(k) - c_p(2k)      (fundamental/second-harmonic speed gap)
    f2(k) = dc_g/dk               (group-velocity slope)
    delta(k) = f1 * f2,

and delta < 0 predicts instability of the small-amplitude wave at
wavenumber k to long-wavelength sideband perturbations.  Each factor is
evaluated as its numerator over a positive scale factor,

    f1 = D2 / (4 k^2),  D2 = 3 gamma + 4 beta k^2 (m(k) - m(2k)),
    f2 = P / k^3,       P  = 2 gamma + beta k^3 (k m''(k) + 2 m'(k)),

so each factor's sign is its numerator's, float for float, and the labels
agree with the zero-locus curves, critical wavenumbers and resonance tests,
which solve D2 = 0 and P = 0.  The ratio form P / D2 has delta's sign too.

The same prediction is reproduced dynamically here: projecting the
linearization about the wave onto its two near-neutral oscillation
directions yields a 2x2 matrix pencil in the spectral parameter lambda,
assembled through second order in the amplitude a and the sideband
offset xi.  Solving det = 0 exactly as a complex quadratic gives the
leading-order growth rate, which the independent spectral oracle must
(and does, in tests) confirm quantitatively.  Like the oracle's, the
roots lambda and the growth rates are per unit of k t, with t the
equation's time: the physical growth rate is lambda / k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError
from .stokes import StokesWave, denominator_floor, harmonic_denominator
from .symbols import DispersionSymbol, ModelParams, _check_k, group_velocity_derivative

__all__ = [
    "IndexResult",
    "A_BOUND",
    "XI_BOUND",
    "index",
    "assemble_b_matrix",
    "bmatrix_det_roots",
    "growth_rate_leading",
    "discriminant",
]

# trust region of the second-order projection; remainders are O(xi^3 + a^3)
# and stay subdominant under these bounds at the tolerances tests use
A_BOUND = 0.05
XI_BOUND = 0.05


@dataclass(frozen=True)
class IndexResult:
    """Classification of wavenumber k: both factor values and both forms.

    Floats and a str for a scalar k; arrays of k's shape for an array k.
    """

    k: float
    f1: float
    f2: float
    delta: float
    ratio: float
    classification: str  # stable | unstable | degenerate


def index(s: DispersionSymbol, p: ModelParams, k) -> IndexResult:
    """Evaluate the stability index at wavenumber k > 0, a scalar or an array.

    delta below -floor classifies unstable, above +floor stable, and the
    band between is reported as degenerate rather than forced to a side;
    floor = 1e-10 (1 + |f1|) (1 + |f2|).  Non-finite k raises ValueError,
    and so does a finite k where delta is NaN (the symbol gave NaN there,
    or an infinite factor met a zero one): NaN has no sign to classify.
    """
    k = _check_k(k)
    num1 = harmonic_denominator(s, p, k, 2)
    f1 = num1 / (4.0 * k * k)
    f2, num2 = group_velocity_derivative(s, p, k)
    delta = f1 * f2
    # a 0-d delta is a float, tested as one: np.isnan(...).any() costs more
    if math.isnan(delta) if k.ndim == 0 else np.isnan(delta).any():
        bad = k if k.ndim == 0 else np.broadcast_to(k, delta.shape)[np.isnan(delta)][0]
        raise ValueError(f"{s.name}: the index is NaN at the finite wavenumber k={float(bad)!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(num2, num1)  # +-inf where num1 = 0, nan where both are
    floor = 1e-10 * (1.0 + np.abs(f1)) * (1.0 + np.abs(f2))
    label = np.where(delta < -floor, "unstable", np.where(delta > floor, "stable", "degenerate"))
    if k.ndim == 0:
        return IndexResult(float(k), float(f1), f2, float(delta), float(ratio), str(label))
    return IndexResult(k, f1, f2, delta, ratio, label)


def _check_small(a: float, xi: float):
    if not abs(a) <= A_BOUND:
        raise ValueError(f"amplitude |a| <= {A_BOUND} required, got {a}")
    if not abs(xi) <= XI_BOUND:
        raise ValueError(f"sideband offset |xi| <= {XI_BOUND} required, got {xi}")


def _pencil(wave: StokesWave, a: float, xi: float):
    """Linear-in-lambda decomposition of the projected 2x2 system.

    Returns (u, v1, v2, s, w12, w21) with entries
        B11 = u*lam + v1,   B12 =  s*lam + w12,
        B21 = -s*lam + w21, B22 = u*lam + v2,
    each of the wave's shape: a batch of waves gives arrays.
    """
    sym, p = wave.symbol, wave.params
    k, A2 = np.asarray(wave.k, dtype=float), np.asarray(wave.A2, dtype=float)
    beta, gamma = p.beta, p.gamma
    # np.float_power rounds as the scalar `**` did, for every element of an array
    k2, k3, k4 = k * k, np.float_power(k, 3), np.float_power(k, 4)
    _, m1k, m2k = sym.jet(k, 2)
    _, m1k2, m2k2 = sym.jet(2.0 * k, 2)
    aA = a * a * A2 * A2

    y1 = (
        -2.0 * gamma * (1.0 + aA)
        + beta * k4 * (m2k + 16.0 * aA * m2k2)
        + 4.0 * beta * k3 * (m1k + 8.0 * aA * m1k2)
    )
    y2 = y1 + 4.0 * a * a * k2 * A2
    q0 = -2.0 * gamma + beta * k3 * m1k
    q2 = A2 * A2 * (-4.0 * gamma + 16.0 * beta * k3 * m1k2)

    u = 0.5j * xi * (1.0 + 4.0 * aA)
    v1 = -0.25 * xi * xi * y1
    v2 = -a * a * k2 * A2 - 0.25 * xi * xi * y2
    s = 0.5 * (1.0 + 8.0 * aA)
    w12 = 0.5j * xi * (q0 + a * a * q2)
    w21 = -0.5j * xi * (q0 + a * a * (q2 + 4.0 * k2 * A2))
    return u, v1, v2, s, w12, w21


def _quot(num, den):
    """num / den by Python's complex division, elementwise, with |Re den| >= |Im den|.

    numpy's complex division multiplies by 1 / denom, which rounds
    differently; this keeps a batch's roots the floats the scalar
    quotient gives.
    """
    ratio = den.imag / den.real
    denom = den.real + den.imag * ratio
    out = np.empty(np.broadcast(num, den).shape, dtype=complex)
    out.real = (num.real + num.imag * ratio) / denom
    out.imag = (num.imag - num.real * ratio) / denom
    return complex(out) if out.ndim == 0 else out


def assemble_b_matrix(wave: StokesWave, lam: complex, a: float, xi: float) -> np.ndarray:
    """Project the linearized sideband problem onto a 2x2 complex matrix.

    The rows/columns follow the (sin-series, cos-series) basis of the two
    neutral directions of the zero-amplitude state; entries carry all
    terms through second order in a and xi.  At a = xi = 0 only the
    symplectic lambda-block survives: (lambda/2) [[0, 1], [-1, 0]].
    """
    _check_small(a, xi)
    u, v1, v2, s, w12, w21 = _pencil(wave, a, xi)
    return np.array(
        [
            [u * lam + v1, s * lam + w12],
            [-s * lam + w21, u * lam + v2],
        ],
        dtype=complex,
    )


def bmatrix_det_roots(wave: StokesWave, a: float, xi: float):
    """The two roots lambda of det(projected matrix) = 0.

    The determinant is exactly quadratic in lambda, so the roots come
    from the complex quadratic formula with no further approximation.
    A batch of waves gives two arrays of roots.
    """
    _check_small(a, xi)
    u, v1, v2, s, w12, w21 = _pencil(wave, a, xi)
    qa = u * u + s * s
    qb = u * (v1 + v2) - s * (w21 - w12)
    qc = v1 * v2 - w12 * w21
    sq = np.sqrt(qb * qb - 4.0 * qa * qc)  # bit for bit cmath.sqrt
    return (_quot(-qb + sq, 2.0 * qa), _quot(-qb - sq, 2.0 * qa))


def growth_rate_leading(wave: StokesWave, a: float, xi: float):
    """Predicted sideband growth rate: max |Re lambda| over the two roots."""
    r1, r2 = bmatrix_det_roots(wave, a, xi)
    g1, g2 = np.abs(np.real(r1)), np.abs(np.real(r2))
    out = np.where(g2 > g1, g2, g1)  # max(g1, g2), NaN and all
    return float(out) if out.ndim == 0 else out


def detuning_ratio(wave: StokesWave, a: float, xi: float):
    """Amplitude-induced sideband detuning relative to the frequency scale.

    The two-harmonic projection follows the pair of slow sideband
    branches; its truncation drops couplings whose relative size is

        a^2 k^2 |A2| / (xi |2 gamma - beta k^3 m'(k)|).

    Quantitative growth-rate predictions are trusted only when this
    ratio is small (<= 0.05 in practice, established against the
    spectral oracle); near or above 1 the neglected couplings can move
    the instability band's inner edge past xi entirely.  A batch of
    waves gives an array of ratios.
    """
    p = wave.params
    k = np.asarray(wave.k, dtype=float)
    q0 = -2.0 * p.gamma + p.beta * np.float_power(k, 3) * wave.symbol.m1(k)
    scale = abs(xi) * np.abs(q0)
    detuning = a * a * k * k * np.abs(wave.A2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(scale == 0.0, np.where(detuning > 0.0, math.inf, 0.0), detuning / scale)
    return float(out) if out.ndim == 0 else out


def discriminant(wave: StokesWave, a: float, xi: float) -> float:
    """Two-term leading form of the sideband quadratic's discriminant.

    Value:  xi^4 P^2 + xi^2 a^2 (P / D2)  with
    P = 2 gamma + beta k^3 (k m'' + 2 m') and
    D2 = 3 gamma + 4 beta k^2 (m(k) - m(2k)).

    Only the sign is meaningful (negative predicts instability once
    |xi| << |a|); the omitted remainder is O(|a| xi (xi^3 + a^3)), and
    the true coefficient of the cross term differs from P/D2 by a
    positive factor, so zero crossings in xi/a are not quantitative.
    """
    _check_small(a, xi)
    s, p = wave.symbol, wave.params
    k = wave.k
    D2 = harmonic_denominator(s, p, k, 2)
    if abs(D2) < denominator_floor(p):
        raise ResonanceError(
            f"second-harmonic resonance at k={k:.12g}; discriminant undefined", harmonics=[2]
        )
    P = group_velocity_derivative(s, p, k).numerator
    return xi ** 4 * P * P + xi * xi * a * a * (P / D2)
