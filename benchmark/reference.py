"""Reference computations made apart from ostwave.

Nothing here imports ostwave.  The benchmark checks the program's outputs
against these values, so they are derived again from the model equation

    (u_t + beta*M u_x + (u^2)_x)_x - gamma*u = 0,    c_p(k) = beta m(k) + gamma/k^2,

rather than copied from the program:

* the polynomial symbols (kdv, fkdv, kdv_st) are written m = 1 - c k^p and
  every quantity has a closed form: the index factors f1, f2, their
  numerators N1 = 4k^2 f1 and N2 = k^3 f2, the harmonic denominators D_n,
  the critical wavenumber and the resonant wavenumbers;
* the nonlocal symbols (ilw, whitham, whitham_st) are evaluated in mpmath
  at 30 digits, with m' and m'' taken by ``mpmath.diff``;
* the zero-amplitude Floquet-Hill eigenvalues come from the diagonal
  a = 0 pencil;
* region counts come from a 4-connected flood fill.

``test_reference.py`` checks the closed forms against sympy derivatives.
"""

from __future__ import annotations

import mpmath
import numpy as np

# a private context, so the precision set here leaks into no other code
MP = mpmath.MPContext()
MP.dps = 30

POLYNOMIAL = ("kdv", "fkdv", "kdv_st")
NONLOCAL = ("ilw", "whitham", "whitham_st")

PHASE = "phase_velocity_coincidence"
GROUP = "group_velocity_extremum"


class Model:
    """One symbol with its parameters: beta, gamma and T or delta."""

    def __init__(self, name: str, beta: float, gamma: float, T: float = 0.0, delta: float = 2.0):
        if name not in POLYNOMIAL + NONLOCAL:
            raise ValueError(f"no reference for symbol {name!r}")
        self.name = name
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.T = float(T)
        self.delta = float(delta)
        T_mp = MP.mpf(self.T)
        if name == "ilw":
            self._m = lambda k: k * MP.coth(k)
        elif name == "whitham":
            self._m = lambda k: MP.sqrt(MP.tanh(k) / k)
        elif name == "whitham_st":
            self._m = lambda k: MP.sqrt(MP.tanh(k) / k * (1 + T_mp * k * k))
        else:
            c, p = self.poly()
            c_mp, p_mp = MP.mpf(c), MP.mpf(p)
            self._m = lambda k: 1 - c_mp * k ** p_mp

    # -- polynomial closed forms: m = 1 - c k^p ------------------------------

    def poly(self):
        """(c, p) with m = 1 - c k^p; only for the polynomial symbols."""
        if self.name == "kdv":
            return 1.0, 2.0
        if self.name == "kdv_st":
            return 1.0 - 3.0 * self.T, 2.0
        if self.name == "fkdv":
            return 1.0, self.delta
        raise ValueError(f"{self.name} has no closed form")

    def f1_closed(self, k):
        """f1 = c_p(k) - c_p(2k) = beta c (2^p - 1) k^p + 3 gamma / (4 k^2)."""
        c, p = self.poly()
        k = np.asarray(k, dtype=float)
        return self.beta * c * (2.0**p - 1.0) * k**p + 0.75 * self.gamma / (k * k)

    def f2_closed(self, k):
        """f2 = dc_g/dk = 2 gamma / k^3 - beta c p (p + 1) k^(p - 1)."""
        c, p = self.poly()
        k = np.asarray(k, dtype=float)
        return 2.0 * self.gamma / k**3 - self.beta * c * p * (p + 1.0) * k ** (p - 1.0)

    def factor_scale(self, k):
        """Sum of the magnitudes of the terms of f1 and f2: their rounding scale."""
        c, p = self.poly()
        k = np.asarray(k, dtype=float)
        b = abs(self.beta)
        return b * (2.0 + abs(c) * (2.0**p + 1.0) * k**p) + 1.25 * self.gamma / (k * k), (
            2.0 * self.gamma / k**3 + b * abs(c) * p * (p + 1.0) * k ** (p - 1.0)
        )

    def kc_closed(self):
        """(kc, mechanism): the one sign change of N1 or N2 on k > 0.

        N2 = 2 gamma - beta c p (p+1) k^(p+2) vanishes when beta c > 0,
        N1 = 3 gamma + 4 beta c (2^p - 1) k^(p+2) when beta c < 0.
        """
        c, p = self.poly()
        bc = self.beta * c
        if bc > 0:
            return (2.0 * self.gamma / (bc * p * (p + 1.0))) ** (1.0 / (p + 2.0)), GROUP
        if bc < 0:
            return (3.0 * self.gamma / (4.0 * -bc * (2.0**p - 1.0))) ** (1.0 / (p + 2.0)), PHASE
        raise ValueError("no dispersion at this tension: no critical wavenumber")

    def resonances_closed(self, kmin: float, kmax: float, nmax: int = 3):
        """Sorted (k, n) with D_n(k) = 0 in (kmin, kmax).

        D_n = gamma (n^2 - 1) + beta c n^2 (n^p - 1) k^(p+2) has one positive
        root when beta c < 0 and none otherwise.
        """
        c, p = self.poly()
        bc = self.beta * c
        out = []
        if bc < 0:
            for n in range(2, nmax + 1):
                k = (self.gamma * (n * n - 1.0) / (-bc * n * n * (n**p - 1.0))) ** (1.0 / (p + 2.0))
                if kmin < k < kmax:
                    out.append((k, n))
        return sorted(out)

    # -- mpmath evaluation, any symbol -----------------------------------------

    def m(self, k):
        return self._m(MP.mpf(k))

    def derivs(self, k):
        """(m, m', m'') at k > 0: closed form for the polynomial symbols, else mpmath.diff."""
        k = MP.mpf(k)
        if self.name in POLYNOMIAL:
            c, p = (MP.mpf(x) for x in self.poly())
            return 1 - c * k**p, -c * p * k ** (p - 1), -c * p * (p - 1) * k ** (p - 2)
        return self._m(k), MP.diff(self._m, k, 1), MP.diff(self._m, k, 2)

    def n1(self, k):
        """f1 numerator 4 k^2 f1 = 3 gamma + 4 beta k^2 (m(k) - m(2k))."""
        k = MP.mpf(k)
        return 3 * self.gamma + 4 * self.beta * k * k * (self.m(k) - self.m(2 * k))

    def n2(self, k):
        """f2 numerator k^3 f2 = 2 gamma + beta k^3 (k m''(k) + 2 m'(k))."""
        k = MP.mpf(k)
        _, m1, m2 = self.derivs(k)
        return 2 * self.gamma + self.beta * k**3 * (k * m2 + 2 * m1)

    def numerator(self, mechanism: str, k):
        return self.n1(k) if mechanism == PHASE else self.n2(k)

    def harmonic_denominator(self, k, n: int):
        """D_n = gamma (n^2 - 1) + beta n^2 k^2 (m(k) - m(n k))."""
        k = MP.mpf(k)
        return self.gamma * (n * n - 1) + self.beta * n * n * k * k * (self.m(k) - self.m(n * k))

    def factors(self, k):
        """(f1, f2) as floats."""
        k = MP.mpf(k)
        return float(self.n1(k) / (4 * k * k)), float(self.n2(k) / k**3)

    def detuning_ratio(self, k: float, a: float, xi: float) -> float:
        """a^2 k^2 |A2| / (xi |2 gamma - beta k^3 m'(k)|) with A2 = 2 k^2 / D_2."""
        k_mp = MP.mpf(k)
        _, m1, _ = self.derivs(k_mp)
        A2 = 2 * k_mp * k_mp / self.harmonic_denominator(k_mp, 2)
        return float(a * a * k_mp * k_mp * abs(A2) / (xi * abs(2 * self.gamma - self.beta * k_mp**3 * m1)))

    def unperturbed_eigenvalue(self, k: float, n: int, xi: float) -> complex:
        """lambda_n = i [gamma (nu - 1/nu) + beta k^2 nu (m(k) - m(k |nu|))], nu = n + xi.

        The a = 0 pencil is diagonal: row n reads
        lambda i nu = k^2 nu^2 (beta m(k nu) - c0) + gamma with c0 = c_p(k).
        """
        k_mp, nu = MP.mpf(k), MP.mpf(n) + MP.mpf(xi)
        lam = self.gamma * (nu - 1 / nu) + self.beta * k_mp * k_mp * nu * (self.m(k_mp) - self.m(k_mp * abs(nu)))
        return complex(0.0, float(lam))


def sign_change(f, x: float, rel: float = 1e-8) -> bool:
    """True when f takes opposite signs at x (1 - rel) and x (1 + rel)."""
    lo, hi = f(MP.mpf(x) * (1 - MP.mpf(rel))), f(MP.mpf(x) * (1 + MP.mpf(rel)))
    return bool(lo * hi < 0)


def window_minimum(f, k_lo: float, k_hi: float, n_grid: int = 120, zooms: int = 6) -> float:
    """Minimum of f over [k_lo, k_hi] on a log grid, zoomed in around the argmin.

    Each zoom spans the two grid cells beside the current argmin with a
    twelve-point grid, shrinking the bracket about sixfold; six zooms pin a
    smooth minimum to about 1e-12 of the function's curvature scale.
    """
    ks = np.geomspace(k_lo, k_hi, n_grid)
    vals = [f(k) for k in ks]
    i = min(range(len(vals)), key=lambda j: vals[j])
    best = vals[i]
    lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, len(ks) - 1)]
    for _ in range(zooms):
        ks = np.linspace(lo, hi, 12)
        vals = [f(k) for k in ks]
        i = min(range(len(vals)), key=lambda j: vals[j])
        best = min(best, vals[i])
        lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, len(ks) - 1)]
    return float(best)


def crossing_roots(f, k_lo: float, k_hi: float, n_grid: int = 200):
    """Roots of f in [k_lo, k_hi]: sign changes on a linear grid, refined by mpmath."""
    ks = np.linspace(k_lo, k_hi, n_grid)
    vals = [f(k) for k in ks]
    roots = []
    for i in range(n_grid - 1):
        if vals[i] * vals[i + 1] < 0:
            r = MP.findroot(f, (MP.mpf(ks[i]), MP.mpf(ks[i + 1])), solver="anderson")
            roots.append(float(r))
    return roots


def region_count(mask) -> int:
    """Number of 4-connected regions of True cells, by flood fill."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = mask.shape
    seen = np.zeros_like(mask)
    count = 0
    for r0 in range(rows):
        for c0 in range(cols):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            count += 1
            seen[r0, c0] = True
            stack = [(r0, c0)]
            while stack:
                r, c = stack.pop()
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < rows and 0 <= cc < cols and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
    return count


def label_of(delta: float, f1: float, f2: float, band: float = 1e-8):
    """"S" or "U" from the sign of delta, or None inside the degeneracy band.

    The band is 100 times the program's own floor 1e-10 (1+|f1|)(1+|f2|),
    so a cell whose sign rounding could flip is not judged.
    """
    if abs(delta) <= band * (1.0 + abs(f1)) * (1.0 + abs(f2)):
        return None
    return "U" if delta < 0 else "S"

