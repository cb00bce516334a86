"""Independent spectral oracle for sideband stability.

Perturbations of a periodic wave of the form e^{i xi z} v(z), with v
2pi-periodic and xi the Floquet exponent, satisfy a linear eigenvalue
problem with periodic coefficients.  Truncating v to Fourier modes
n in [-N, N] turns that into the pencil

    lambda D v = -L v,
    D = diag(i nu),  nu = n + xi,
    L_nm = -k^2 nu^2 [ (-c + beta m(k nu)) delta_nm + 2 w_{n-m} ]
           - gamma delta_nm,

where w_j are the exponential Fourier coefficients of the truncated
profile and the symbol is evaluated through its even extension.  Since
xi > 0 keeps every nu nonzero, D is invertible and the eigenvalues are
lambda = -i mu, with mu those of the real matrix

    B = i (-D^{-1} L) = diag(nu) S,
    S_nm = k^2 [ (-c + beta m(k nu)) delta_nm + 2 w_{n-m} ]
           + gamma nu^-2 delta_nm,

with S real symmetric.  The profile carries modes 1-3 only, so B has
seven nonzero diagonals.  B is real, so the mu come in conjugate pairs
and the lambda in pairs (lambda, -conj lambda).

Eigenvalues are reported inside a window |lambda| <= R around the
origin; the window deliberately excludes fast oscillatory branches so
that max |Re lambda| measures sideband growth alone.  ``spectrum`` finds
them by shift-invert Arnoldi at 0 on a banded LU of B, asking for the
few eigenvalues nearest the origin and doubling their number until the
farthest one returned lies outside the window, which certifies that
every eigenvalue inside it was found.  The factorisation and each solve
cost O(N).  Only a window holding nearly the whole spectrum is solved
densely.

This module never consults the projected 2x2 system — it is the
cross-check for it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SolveError
from .stokes import A_MAX, StokesWave, speed

__all__ = [
    "FloquetProblem",
    "FloquetSpectrum",
    "assemble",
    "spectrum",
    "max_growth",
    "default_window",
    "unperturbed_eigenvalue",
    "convergence_study",
]

DEFAULT_N = 32


def default_window(p) -> float:
    """Window radius that isolates the two slow sideband branches."""
    return 0.25 * min(p.gamma, 1.0)


@dataclass(frozen=True)
class FloquetProblem:
    """One truncated sideband eigenproblem: wave + amplitude + offset + size."""

    wave: StokesWave
    a: float
    xi: float
    N: int = DEFAULT_N

    def __post_init__(self):
        if not 0.0 < self.xi <= 0.5:
            raise ValueError("Floquet exponent xi must lie in (0, 1/2]")
        if not isinstance(self.N, numbers.Integral) or self.N < 8:
            raise ValueError(f"mode truncation N must be an integer >= 8, got {self.N!r}")
        if not abs(self.a) <= A_MAX:
            raise ValueError(f"amplitude a must be finite with |a| <= {A_MAX}, got {self.a}")


@dataclass(frozen=True)
class FloquetSpectrum:
    """Eigenvalues inside the reporting window, with the growth summary."""

    eigenvalues: np.ndarray = field(repr=False)
    window_radius: float
    max_real_in_window: float
    N: int


_SOLVE_FAILED = (
    "eigenvalue solve failed; try a smaller truncation N or a "
    "different Floquet exponent xi"
)


def _bands(problem: FloquetProblem):
    """Return nu and B = i (-D^{-1} L) in band storage, B[i, j] = ab[3 + i - j, j]."""
    wave, a, xi, N = problem.wave, problem.a, problem.xi, problem.N
    sym, p = wave.symbol, wave.params
    k = wave.k
    c = speed(wave, a)

    nu = np.arange(-N, N + 1) + xi
    row = k * k * nu
    ab = np.zeros((7, nu.size))
    ab[3] = row * (-c + p.beta * sym.m_even(k * nu)) + p.gamma / nu
    # multiplication by 2w: cosine amplitude w_j on the bands at +-j,
    # scaled by the row's k^2 nu
    cos_amp = wave.fourier_coefficients(a)  # w_0..w_3
    for j in (1, 2, 3):
        ab[3 - j, j:] = row[:-j] * cos_amp[j]  # B[i, i + j]
        ab[3 + j, :-j] = row[j:] * cos_amp[j]  # B[i + j, i]
    return nu, ab


def _dense(ab) -> np.ndarray:
    """The dense matrix held in band storage ab (offsets -3..3)."""
    n = ab.shape[1]
    return sum(np.diag(ab[3 - d, max(d, 0) : n + min(d, 0)], d) for d in range(-3, 4))


def assemble(problem: FloquetProblem):
    """Build dense (L, D) for the truncated pencil lambda D v = -L v.

    L = -diag(nu) B is formed from the same bands that ``spectrum``
    solves, so its dense eigen-solve is the reference for that solver.
    """
    nu, ab = _bands(problem)
    return -nu[:, None] * _dense(ab), np.diag(1j * nu)


def spectrum(problem: FloquetProblem, window_radius: float) -> FloquetSpectrum:
    """Eigenvalues of -D^{-1} L filtered to |lambda| <= window_radius.

    Shift-invert Arnoldi at 0 (a banded LU of B and a fixed start
    vector, so the result is deterministic) returns the count
    eigenvalues nearest the origin; count starts at 4 and doubles until
    the farthest of them lies outside the window, so none inside is
    missed.  A window that would need count >= 2N - 1 is solved by a
    dense eigen-solve of the same B.

    Raises
    ------
    SolveError
        B is singular, or the Arnoldi iteration does not converge.
    """
    if not window_radius > 0:
        raise ValueError("window_radius must be positive")
    from scipy.linalg import blas, lapack
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    _, ab = _bands(problem)
    size = ab.shape[1]
    # dgbtrf wants 3 more rows on top for the fill-in of row pivoting
    lu, piv, info = lapack.dgbtrf(np.vstack([np.zeros((3, size)), ab]), 3, 3)
    if info > 0:  # exactly singular
        raise SolveError(_SOLVE_FAILED)
    B = LinearOperator(
        (size, size), matvec=lambda x: blas.dgbmv(size, size, 3, 3, 1.0, ab, x), dtype=float
    )
    B_inv = LinearOperator(
        (size, size), matvec=lambda x: lapack.dgbtrs(lu, 3, 3, x, piv)[0], dtype=float
    )
    start = np.ones(size)
    count = 4
    while count < size - 2:
        try:
            mu = eigs(B, k=count, sigma=0.0, OPinv=B_inv, v0=start, return_eigenvectors=False)
        except ArpackError as exc:
            raise SolveError(_SOLVE_FAILED) from exc
        eig = -1j * mu
        if np.max(np.abs(eig)) > window_radius:
            break
        count *= 2
    else:
        try:
            eig = -1j * np.linalg.eigvals(_dense(ab))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolveError(_SOLVE_FAILED) from exc
    # deterministic ordering regardless of the solver's internal return order
    eig = eig[np.lexsort((eig.real, eig.imag))]
    inside = eig[np.abs(eig) <= window_radius]
    max_real = float(np.max(np.abs(inside.real))) if inside.size else 0.0
    return FloquetSpectrum(
        eigenvalues=inside,
        window_radius=float(window_radius),
        max_real_in_window=max_real,
        N=problem.N,
    )


def max_growth(
    wave: StokesWave,
    a: float,
    xi: float,
    N: int = DEFAULT_N,
    window: float | None = None,
) -> float:
    """Largest |Re lambda| inside the sideband window (0 if none)."""
    if window is None:
        window = default_window(wave.params)
    return spectrum(FloquetProblem(wave, a, xi, N), window).max_real_in_window


def unperturbed_eigenvalue(wave: StokesWave, n, xi: float):
    """Closed-form eigenvalue of the zero-amplitude pencil at mode n.

    lambda_n = i [ gamma (nu - 1/nu) + beta k^2 nu (m(k) - m(k nu)) ],
    nu = n + xi.  Derived by solving the diagonal a = 0 pencil row for
    lambda; the spectrum tests hold the solve to this formula.  n is an
    int, giving a complex, or an integer array, giving a complex array
    with the same values bit for bit.
    """
    sym, p = wave.symbol, wave.params
    k = wave.k
    nu = n + xi
    if (nu == 0).any() if isinstance(nu, np.ndarray) else nu == 0:
        raise ValueError("n + xi must be nonzero")
    return 1j * (
        p.gamma * (nu - 1.0 / nu) + p.beta * k * k * nu * (sym.m(k) - sym.m_even(k * nu))
    )


def convergence_study(wave: StokesWave, a: float, xi: float, N_list, window: float | None = None):
    """Tabulate max_growth against truncation size.

    Returns a list of dicts {N, max_growth, diff} with diff the absolute
    change from the previous row (None on the first).
    """
    sizes = list(N_list)
    if sizes != sorted(sizes):
        raise ValueError("N_list must be ascending")
    rows = []
    prev = None
    for N in sizes:
        g = max_growth(wave, a, xi, N=N, window=window)
        rows.append({"N": int(N), "max_growth": g, "diff": None if prev is None else abs(g - prev)})
        prev = g
    return rows
