"""Small-amplitude periodic traveling waves.

A wave of wavenumber k and amplitude a is sought as a cosine series in
the phase z = k(x - ct):

    w(z) = a cos z + a^2 A2 cos 2z + a^3 A3 cos 3z + O(a^4),
    c(a) = c0 + a^2 c2 + O(a^4).

Substituting into the steady profile equation and matching cosine modes
gives closed forms for A2, A3 and c0, and c2 = A2, with denominators

    D_n = gamma (n^2 - 1) + beta n^2 k^2 (m(k) - m(n k)),    n = 2, 3

that vanish exactly when the n-th harmonic travels at the fundamental's
phase speed (a harmonic resonance).  ``expand`` raises ResonanceError at
such wavenumbers instead of returning blown-up coefficients;
``check_resonance`` reports which harmonics are resonant without raising.
``expand`` is the one-wave case of ``_stokes``, which builds a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError
from .roots import scan
from .symbols import DispersionSymbol, ModelParams, _check_k, phase_velocity

__all__ = [
    "StokesWave",
    "A_MAX",
    "expand",
    "harmonic_denominator",
    "denominator_floor",
    "check_resonance",
    "find_resonances",
    "profile",
    "speed",
    "residual_norm",
]

# the expansion is asymptotic in a; past this the truncation error is no
# longer credibly O(a^4) for the built-in symbols
A_MAX = 0.1


def harmonic_denominator(s: DispersionSymbol, p: ModelParams, k, n: int):
    """D_n = gamma (n^2 - 1) + beta n^2 k^2 (m(k) - m(n k)) for k > 0.

    Proportional to n^2 k^2 (c_p(k) - c_p(n k)); its zero is the n-th
    harmonic resonance.  k is a scalar or an array.
    """
    if n < 2:
        raise ValueError("harmonic index n must be >= 2")
    k = _check_k(k)
    out = p.gamma * (n * n - 1.0) + p.beta * n * n * k * k * (s._value(k, 0) - s._value(n * k, 0))
    return float(out) if out.ndim == 0 else out


def denominator_floor(p: ModelParams) -> float:
    """Magnitude below which a harmonic denominator counts as resonant."""
    return 1e-8 * max(p.gamma, 1.0)


def check_resonance(s: DispersionSymbol, p: ModelParams, k: float) -> list:
    """List the harmonics n = 2, 3 whose denominator (nearly) vanishes.

    These are the two harmonics the expansion carries (at any T of a lattice
    symbol).  Returns an empty list at non-resonant wavenumbers; ``expand``
    raises exactly when this list is nonempty.
    """
    floor = denominator_floor(p)
    return [n for n in (2, 3) if np.any(np.abs(harmonic_denominator(s, p, k, n)) < floor)]


# the probe grid of the scans over k in (1e-2, 1e2), find_resonances' and
# critical.kc_numeric's: built once, read-only
_SCAN_GRID = np.geomspace(1e-2, 1e2, 400)
_SCAN_GRID.setflags(write=False)


def find_resonances(s: DispersionSymbol, p: ModelParams):
    """Scan k in (1e-2, 1e2) for resonant wavenumbers D_n(k) = 0, n = 2 and 3.

    Returns a sorted list of (k, n) pairs, one per sign change of D_n on a
    400-point log-spaced probe grid, refined with Brent's method.
    """
    found = []
    for n in (2, 3):
        found.extend((k, n) for k in scan(lambda k: harmonic_denominator(s, p, k, n), _SCAN_GRID))
    return sorted(found)


@dataclass(frozen=True)
class StokesWave:
    """A small-amplitude wave family at fixed wavenumber.

    Carries the expansion coefficients; the amplitude a is supplied at
    evaluation time (``profile``, ``speed``, ``residual_norm``), so one
    StokesWave describes the whole local branch.  The fields are floats;
    a batch of waves (``_stokes``) holds arrays of k and of the
    coefficients instead, with a symbol whose parameters broadcast against
    k, and ``mi_index`` and ``floquet_hill`` evaluate it at once.
    """

    symbol: DispersionSymbol
    params: ModelParams
    k: float
    c0: float
    A2: float
    A3: float

    def fourier_coefficients(self, a: float) -> list:
        """Cosine-mode amplitudes [w_0, w_1, w_2, w_3] at amplitude a (w_2, w_3 arrays for a batch).

        The one place the truncated modes are written: ``profile``,
        ``residual_norm`` and the Hill bands read them.
        """
        a = _check_amplitude(a)
        return [0.0, a, a * a * self.A2, a ** 3 * self.A3]


def _stokes(s: DispersionSymbol, p: ModelParams, k):
    """The expansion at k, a scalar or an array broadcasting against s's parameters.

    Returns (wave, resonant): the StokesWave, a batch one for an array k,
    and the mask of wavenumbers where a harmonic denominator falls below
    ``denominator_floor`` (the wave's A2 and A3 mean nothing there).
    Every value is the float a call at that (k, T) alone gives, so
    ``expand`` is the 0-d case.
    """
    D2 = harmonic_denominator(s, p, k, 2)
    D3 = harmonic_denominator(s, p, k, 3)
    floor = denominator_floor(p)
    resonant = (np.abs(D2) < floor) | (np.abs(D3) < floor)
    c0 = phase_velocity(s, p, k)
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        A2 = 2.0 * k * k / D2
        A3 = 9.0 * k * k * A2 / D3
    if A2.ndim == 0:
        k, A2, A3 = float(k), float(A2), float(A3)
    return StokesWave(symbol=s, params=p, k=k, c0=c0, A2=A2, A3=A3), resonant


def expand(s: DispersionSymbol, p: ModelParams, k: float) -> StokesWave:
    """Compute the small-amplitude expansion coefficients at wavenumber k.

    Raises
    ------
    ValueError
        k is not positive and finite, or c0, A2 or A3 is not finite there
        (the arithmetic overflowed).
    ResonanceError
        A second- or third-harmonic resonance collapses a denominator.
    """
    k = float(k)
    wave, resonant = _stokes(s, p, k)
    if resonant.any():
        harmonics = check_resonance(s, p, k)
        raise ResonanceError(
            f"harmonic resonance at k={k:.12g} for n in {harmonics}; "
            "the small-amplitude expansion is singular here",
            harmonics=harmonics,
        )
    if not all(np.isfinite(c).all() for c in (wave.c0, wave.A2, wave.A3)):  # a lattice symbol's are arrays
        coefficients = f"c0={wave.c0}, A2={wave.A2}, A3={wave.A3}"
        raise ValueError(f"{s.name}: the expansion at k={k!r} is not finite: {coefficients}")
    return wave


def _check_amplitude(a: float) -> float:
    a = float(a)
    if not abs(a) <= A_MAX:
        raise ValueError(f"amplitude a must be finite with |a| <= {A_MAX}, got {a}")
    return a


def speed(wave: StokesWave, a: float) -> float:
    """Wave speed through second order: c0 + a^2 c2, with c2 = A2 (even in a)."""
    a = _check_amplitude(a)
    return wave.c0 + a * a * wave.A2


def profile(wave: StokesWave, a: float, z):
    """Evaluate the truncated profile at phase z (scalar or array)."""
    w = wave.fourier_coefficients(a)
    zz = np.asarray(z, dtype=float)
    out = sum(w[j] * np.cos(j * zz) for j in range(len(w)))
    return float(out) if np.isscalar(z) or out.ndim == 0 else out


def residual_norm(wave: StokesWave, a: float) -> float:
    """L2 norm over one period of the steady equation at the truncation.

    In cosine modes the steady equation reads, for each j >= 1,

        [j^2 k^2 (c - beta m(j k)) - gamma] w_j - j^2 k^2 (w * w)_j = 0,

    with (w * w)_j the cosine amplitude of the profile squared, computed by
    exact coefficient convolution.  The profile carries modes 1..3, so its
    square carries modes up to 6 and every residual past j = 6 is exactly
    zero: the sum runs over j = 0..6.  The truncation satisfies modes 1..3
    up to fourth order in a, so the returned norm scales like a^4 as
    a -> 0; tests pin that decay rate.
    """
    a = _check_amplitude(a)
    s, p = wave.symbol, wave.params
    k, c = wave.k, speed(wave, a)
    w = wave.fourier_coefficients(a)  # cosine amplitudes, j = 0..3
    n = len(w) - 1
    # exponential coefficients e_j = w_|j| / 2 (j != 0), e_0 = w_0
    e = np.zeros(2 * n + 1)
    e[n] = w[0]
    for j in range(1, n + 1):
        e[n + j] = e[n - j] = 0.5 * w[j]
    sq = np.convolve(e, e)  # exponential coefficients of w^2
    mid = 2 * n

    # mode 0: the equation reduces to -gamma w_0 = 0
    r0 = -p.gamma * w[0]
    total = 2.0 * np.pi * r0 * r0
    for j in range(1, 2 * n + 1):
        wj = w[j] if j <= n else 0.0
        lin = (j * j * k * k * (c - p.beta * s._value(j * k, 0)) - p.gamma) * wj
        quad = j * j * k * k * (2.0 * sq[mid + j])
        r = lin - quad
        total += np.pi * r * r
    return float(np.sqrt(total))
