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

with S real symmetric.  The profile carries cosine modes 1..M (M = 3
from the third-order Stokes expansion), so B has 2M + 1 nonzero
diagonals, at offsets -M..M.  B is real, so the mu come in conjugate
pairs and the lambda in pairs (lambda, -conj lambda).

Eigenvalues are reported inside a window |lambda| <= R around the
origin; the window deliberately excludes fast oscillatory branches so
that max |Re lambda| measures sideband growth alone.  ``spectrum`` finds
them as mu = 1/theta, theta the eigenvalues of B^-1, and asks each wave
for only the b theta largest in magnitude, the mu nearest the origin.
b is read off B's main diagonal, the a = 0 eigenvalues, which the wave
moves by O(a^2): the next power of two (at least 4) above their count
in the window.  Every wave takes them from one block subspace iteration
on B^-1 from the a = 0 eigenvectors of the 3b smallest |B_ii| (all
2N + 1 if fewer): b wanted and 2b guards (Stewart, Numer. Math. 25
(1976)), so the wanted pairs converge at |theta_{3b+1} / theta_b| a
step.  The farthest mu of the b must lie outside the window, which
certifies that every eigenvalue inside it was found.  One wave applies
B^-1 through one banded LU of B (scipy.linalg), O(N) at any N.  A batch
applies each B^-1 of one stacked numpy inverse, each wave frozen when
it converges, so its floats are those of its batch of one; it serves
``critical.spot_check``'s picks without scipy.
A wave whose window needs nearly every eigenvalue (b >= 2N - 1), whose
certificate fails or whose iteration does not converge takes every
theta of its dense B^-1 instead, O(N^3).

Time unit: the phase is z = k(x - ct), so lambda is a rate per unit of
k t, with t the equation's time.  Every growth rate this module reports
(``max_real_in_window``, ``max_growth``) is in that unit; the physical
growth rate is lambda / k.

This module never consults the projected 2x2 system — it is the
cross-check for it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SolveError
from .stokes import StokesWave, _check_amplitude, speed

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
# the desk scale: the amplitude and sideband offset of a check at DEFAULT_N modes
DESK_A, DESK_XI = 0.01, 1e-3


def default_window(p) -> float:
    """Window radius that isolates the two slow sideband branches."""
    return 0.25 * min(p.gamma, 1.0)


@dataclass(frozen=True)
class FloquetProblem:
    """A truncated sideband eigenproblem per wave (k a column for a batch): wave + amplitude + offset + size."""

    wave: StokesWave
    a: float
    xi: float
    N: int = DEFAULT_N

    def __post_init__(self):
        if not 0.0 < self.xi <= 0.5:
            raise ValueError("Floquet exponent xi must lie in (0, 1/2]")
        if not isinstance(self.N, numbers.Integral) or self.N < 8:
            raise ValueError(f"mode truncation N must be an integer >= 8, got {self.N!r}")
        _check_amplitude(self.a)
        if np.ndim(self.wave.k) and np.shape(self.wave.k)[-1] != 1:
            raise ValueError(f"a batch wave's k must be a column, got shape {np.shape(self.wave.k)}")


@dataclass(frozen=True)
class FloquetSpectrum:
    """Eigenvalues inside the reporting window, with the growth summary."""

    eigenvalues: np.ndarray = field(repr=False)
    max_real_in_window: float


_SOLVE_FAILED = (
    "eigenvalue solve failed; try a smaller truncation N or a "
    "different Floquet exponent xi"
)


def _bands(problem: FloquetProblem):
    """Return nu and B = i (-D^{-1} L) in band storage, B[i, j] = ab[M + i - j, j].

    M is the number of cosine modes of the profile, so ab holds the
    2M + 1 diagonals at offsets +M..-M, row M the main one, after any batch axis.
    """
    wave, a, xi, N = problem.wave, problem.a, problem.xi, problem.N
    sym, p = wave.symbol, wave.params
    k = wave.k
    c = speed(wave, a)
    cos_amp = wave.fourier_coefficients(a)  # w_0..w_M
    M = len(cos_amp) - 1

    nu = np.arange(-N, N + 1) + xi
    row = k * k * nu
    main = row * (-c + p.beta * sym.m_even(k * nu)) + p.gamma / nu
    ab = np.zeros((*main.shape[:-1], 2 * M + 1, nu.size))
    ab[..., M, :] = main
    # multiplication by 2w: cosine amplitude w_j on the bands at +-j,
    # scaled by the row's k^2 nu
    for j in range(1, M + 1):
        ab[..., M - j, j:] = row[..., :-j] * cos_amp[j]  # B[i, i + j]
        ab[..., M + j, :-j] = row[..., j:] * cos_amp[j]  # B[i + j, i]
    return nu, ab


def _dense(ab) -> np.ndarray:
    """The dense matrices held in band storage ab (offsets -M..M on axis -2), over any leading axes."""
    M, n = ab.shape[-2] // 2, ab.shape[-1]
    dense = np.zeros((*ab.shape[:-2], n * n))
    # B[i, i + d] = ab[M - d, i + d]: n - |d| entries, n + 1 apart in the flat matrix, from (0, d) or (-d, 0)
    for d in range(-M, M + 1):
        start = max(d, -d * n)
        dense[..., start : start + (n - abs(d)) * (n + 1) : n + 1] = ab[..., M - d, max(d, 0) : n + min(d, 0)]
    return dense.reshape(*ab.shape[:-2], n, n)


def assemble(problem: FloquetProblem):
    """Build dense (L, D) for the truncated pencil lambda D v = -L v.

    L = -diag(nu) B is formed from the same bands that ``spectrum``
    solves, so its dense eigen-solve is the reference for that solver.
    """
    nu, ab = _bands(problem)
    return -nu[:, None] * _dense(ab), np.diag(1j * nu)


def _in_window(eig, window_radius: float) -> FloquetSpectrum:
    """The eigenvalues eig with |lambda| <= window_radius, in a fixed order."""
    # deterministic ordering regardless of the solver's internal return order
    eig = eig[np.lexsort((eig.real, eig.imag))]
    inside = eig[np.abs(eig) <= window_radius]
    max_real = float(np.max(np.abs(inside.real))) if inside.size else 0.0
    return FloquetSpectrum(eigenvalues=inside, max_real_in_window=max_real)


def spectrum(problem: FloquetProblem, window_radius: float) -> FloquetSpectrum | list:
    """Eigenvalues of -D^{-1} L filtered to |lambda| <= window_radius.

    The eigenvalues are lambda = -i mu, mu = 1/theta, with theta those of
    B^-1.  Each wave asks for the b theta largest in magnitude, the mu
    nearest the origin, with b = max(4, the smallest power of two above
    the number of |B_ii| <= window_radius, the a = 0 eigenvalues in the
    window); the farthest returned must lie outside the window, so none
    inside is missed.  They come from subspace iteration on B^-1 (one
    wave through its banded LU, a batch through one stacked inverse) with
    3b vectors, done when the b largest Ritz pairs each have a residual
    within 1e-10 of their |theta|.  A wave with b >= 2N - 1, a failed
    certificate or an iteration that does not converge in 64 steps takes
    every theta of its dense B^-1 instead.

    The bands decide: a problem whose bands have leading axes (k a
    column, or a lattice symbol's T) is a batch, and ``spectrum`` returns
    a list of one ``FloquetSpectrum`` per wave, each the floats of that
    wave's batch of one; one wave returns one ``FloquetSpectrum``.

    Raises
    ------
    ValueError
        Some wave's bands are not finite (the arithmetic overflowed).
    SolveError
        Some B is singular, or an eigen-solve fails.
    """
    if not window_radius > 0:
        raise ValueError("window_radius must be positive")
    ab = _bands(problem)[1]
    bad = ~np.isfinite(ab).all(axis=(-2, -1))
    if bad.any():
        k = float(np.broadcast_to(problem.wave.k, (*bad.shape, 1))[bad].flat[0])
        raise ValueError(f"{problem.wave.symbol.name}: the Hill bands at k={k!r} are not finite")
    if ab.ndim > 2:
        return _windowed_spectra(ab.reshape(-1, *ab.shape[-2:]), window_radius, _stacked_inverse)
    return _windowed_spectra(ab[None], window_radius, _banded_inverse)[0]


def _block_size(diagonal, window_radius: float) -> int:
    """How many theta to ask for: max(4, the next power of two above the number of |B_ii| <= window_radius).

    |B_ii| are the a = 0 eigenvalues' |lambda_n|, moved O(a^2) by the wave,
    so the next power of two above their count asks for one outside the window.
    """
    return max(4, 1 << int(np.count_nonzero(np.abs(diagonal) <= window_radius)).bit_length())


def _certified(theta, window_radius: float) -> FloquetSpectrum | None:
    """The window spectrum of the theta found; None if the farthest mu = 1/theta lies inside the window."""
    eig = -1j * (1.0 / theta)
    return _in_window(eig, window_radius) if np.max(np.abs(eig)) > window_radius else None


def _banded_inverse(ab):
    """B^-1 Q for the one wave of the stacked bands ab, by one banded LU of B (scipy), O(N) per column."""
    from scipy.linalg import lapack

    M, size = ab.shape[1] // 2, ab.shape[2]
    # dgbtrf wants M more rows on top for the fill-in of row pivoting
    lu, piv, info = lapack.dgbtrf(np.vstack([np.zeros((M, size)), ab[0]]), M, M)
    if info > 0:  # exactly singular
        raise SolveError(_SOLVE_FAILED)
    return lambda waves, Q: lapack.dgbtrs(lu, M, M, Q[0], piv)[0][None]


def _stacked_inverse(ab):
    """B^-1 Q for the waves of the stacked bands ab, by one stacked numpy inverse of the dense B."""
    B_inv = np.linalg.inv(_dense(ab))
    return lambda waves, Q: (B_inv if len(waves) == len(B_inv) else B_inv[waves]) @ Q


def _windowed_spectra(ab, window_radius: float, inverse) -> list:
    """One window spectrum per wave of the stacked bands ab (waves on axis 0).

    Waves of one block size b iterate together on inverse(their bands),
    each frozen when it converges, so every wave's floats are those of
    its batch of one.
    """
    M, size = ab.shape[1] // 2, ab.shape[2]
    blocks = np.array([_block_size(diagonal, window_radius) for diagonal in ab[:, M]])
    out = [None] * len(ab)
    for b in np.unique(blocks[blocks < size - 2]):
        waves = np.flatnonzero(blocks == b)
        try:
            for w, theta in _subspace_iteration(inverse(ab[waves]), np.abs(ab[waves, M]), b):
                out[waves[w]] = _certified(theta, window_radius)
        except np.linalg.LinAlgError as exc:
            raise SolveError(_SOLVE_FAILED) from exc
    dense = [w for w, spec in enumerate(out) if spec is None]
    if dense:
        for w, spec in zip(dense, _dense_spectra(ab[dense], window_radius)):
            out[w] = spec
    return out


# subspace iteration: step cap, steps between Rayleigh-Ritz checks, residual |B^-1 x - theta x| / |theta|
_STEPS, _CHECK, _TOL = 64, 2, 1e-10


def _subspace_iteration(solve, diagonal, b):
    """Yield (wave, theta) for each wave of the stack whose b largest Ritz values converge.

    Q starts from the unit vectors of each wave's p = min(3b, n) smallest
    |B_ii| in diagonal (b wanted, the rest guards) and steps Q <- qr(B^-1 Q),
    B^-1 Q = solve(waves, Q) for the waves still iterating; every _CHECK
    steps the p x p projection Q^T B^-1 Q gives the Ritz pairs.
    """
    waves = np.arange(len(diagonal))
    p = min(3 * b, diagonal.shape[1])
    start = np.argsort(diagonal, axis=-1, kind="stable")[:, :p]
    Q = np.zeros((*diagonal.shape, p))
    Q[waves[:, None], start, np.arange(p)] = 1.0
    for step in range(1, _STEPS + 1):
        Z = solve(waves, Q)
        if step % _CHECK == 0:
            # numpy returns real arrays when every Ritz value of the stack is real: complex
            # always, so that no wave's floats depend on the rest of its stack
            theta, Y = (x.astype(complex) for x in np.linalg.eig(np.swapaxes(Q, 1, 2) @ Z))
            wanted = np.argsort(-np.abs(theta), axis=-1, kind="stable")[:, :b]
            theta, Y = np.take_along_axis(theta, wanted, 1), np.take_along_axis(Y, wanted[:, None], 2)
            residual = np.linalg.norm(Z @ Y - (Q @ Y) * theta[:, None, :], axis=1)
            done = np.all(residual <= _TOL * np.abs(theta), axis=1)
            if done.any():
                yield from zip(waves[done], theta[done])
                waves, Z = waves[~done], Z[~done]
                if not waves.size:
                    return
        Q = np.linalg.qr(Z)[0]


def _dense_spectra(ab, window_radius: float) -> list:
    """One spectrum per wave of the bands ab: every theta of each dense B^-1, solved as one stack."""
    dense = _dense(ab)
    try:
        theta = np.linalg.eigvals(np.linalg.inv(dense))
    except np.linalg.LinAlgError as exc:
        raise SolveError(_SOLVE_FAILED) from exc
    return [_in_window(-1j * (1.0 / t), window_radius) for t in theta.reshape(-1, dense.shape[-1])]


def max_growth(
    wave: StokesWave,
    a: float,
    xi: float,
    N: int = DEFAULT_N,
    window: float | None = None,
) -> float:
    """Largest |Re lambda| inside the sideband window (0 if none), for one wave."""
    if np.ndim(wave.c0) > 0:  # a batch: k a column or a lattice T gives c0 and the bands leading axes
        raise ValueError("max_growth takes one wave; spectrum solves a batch")
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
        p.gamma * (nu - 1.0 / nu) + p.beta * k * k * nu * (sym._value(k, 0) - sym.m_even(k * nu))
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
