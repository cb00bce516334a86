"""Checks of the benchmark's reference module against sympy derivations.

Run with ``python -m pytest benchmark/test_reference.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy as sp

import reference as ref

k, beta, gamma = sp.symbols("k beta gamma", positive=True)
POINTS = [(1.0, 1.0, 1.0), (-2.5, 0.3, 0.4), (0.7, 4.0, 2.2), (-0.2, 9.0, 0.06)]


def sympy_symbol(name, T=0.0, delta=2.0):
    T, delta = sp.nsimplify(T), sp.nsimplify(delta)
    return {
        "kdv": 1 - k**2,
        "fkdv": 1 - k**delta,
        "kdv_st": 1 - (1 - 3 * T) * k**2,
        "ilw": k * sp.coth(k),
        "whitham": sp.sqrt(sp.tanh(k) / k),
        "whitham_st": sp.sqrt(sp.tanh(k) / k * (1 + T * k**2)),
    }[name]


def factors(m):
    """f1 = c_p(k) - c_p(2k) and f2 = dc_g/dk from c_p = beta m + gamma / k^2."""
    cp = beta * m + gamma / k**2
    f1 = cp - cp.subs(k, 2 * k)
    f2 = sp.diff(sp.diff(k * cp, k), k)
    return f1, f2


POLY = [("kdv", {}), ("fkdv", {"delta": 1.5}), ("fkdv", {"delta": 2.5}), ("kdv_st", {"T": 0.1}), ("kdv_st", {"T": 0.55})]


@pytest.mark.parametrize("name,params", POLY)
def test_closed_form_factors_match_sympy(name, params):
    f1, f2 = factors(sympy_symbol(name, **params))
    for b, g, kk in POINTS:
        model = ref.Model(name, b, g, **params)
        subs = {beta: b, gamma: g, k: kk}
        assert float(model.f1_closed(kk)) == pytest.approx(float(f1.subs(subs)), rel=1e-12)
        assert float(model.f2_closed(kk)) == pytest.approx(float(f2.subs(subs)), rel=1e-12)


@pytest.mark.parametrize("name,params", POLY)
def test_closed_form_kc_is_the_zero_of_one_factor(name, params):
    f1, f2 = factors(sympy_symbol(name, **params))
    for b, g, _ in POINTS:
        model = ref.Model(name, b, g, **params)
        kc, mech = model.kc_closed()
        owner, other = (f1, f2) if mech == ref.PHASE else (f2, f1)
        subs = {beta: b, gamma: g}
        scale = abs(float(sp.diff(owner, k).subs(subs).subs(k, kc))) * kc
        assert abs(float(owner.subs(subs).subs(k, kc))) <= 1e-12 * scale
        assert float(other.subs(subs).subs(k, kc)) != 0.0
        # the numerators the program bisects have the same zero
        assert ref.sign_change(lambda x: model.numerator(mech, x), kc)


def test_ostrovsky_kc():
    kc, mech = ref.Model("kdv", 1.0, 1.0).kc_closed()
    assert kc == pytest.approx(3.0**-0.25, rel=1e-15)
    assert mech == ref.GROUP


def test_kdv_harmonic_denominators():
    m = sympy_symbol("kdv")
    for n, closed in ((2, 3 - 12 * k**4), (3, 8 - 72 * k**4)):
        D = gamma * (n * n - 1) + beta * n * n * k**2 * (m - m.subs(k, n * k))
        assert sp.simplify(D.subs({beta: -1, gamma: 1}) - closed) == 0
        model = ref.Model("kdv", -1.0, 1.0)
        assert float(model.harmonic_denominator(0.37, n)) == pytest.approx(float(closed.subs(k, 0.37)), rel=1e-14)


@pytest.mark.parametrize("name,params", POLY)
def test_closed_form_resonances_are_zeros_of_sympy_denominators(name, params):
    m = sympy_symbol(name, **params)
    for b, g, _ in POINTS:
        model = ref.Model(name, b, g, **params)
        roots = model.resonances_closed(0.0, math.inf)
        c, _ = model.poly()
        assert len(roots) == (2 if b * c < 0 else 0)
        for kr, n in roots:
            D = (gamma * (n * n - 1) + beta * n * n * k**2 * (m - m.subs(k, n * k))).subs({beta: b, gamma: g})
            scale = g * (n * n - 1)
            assert abs(float(D.subs(k, kr))) <= 1e-12 * scale


@pytest.mark.parametrize("name,params", [("ilw", {}), ("whitham", {}), ("whitham_st", {"T": 0.3}), ("whitham_st", {"T": 0.05})])
def test_mpmath_derivatives_match_sympy(name, params):
    m = sympy_symbol(name, **params)
    exprs = (m, sp.diff(m, k), sp.diff(m, k, 2))
    model = ref.Model(name, 1.0, 1.0, **params)
    for kk in (0.004, 0.05, 0.7, 3.0, 40.0):
        got = model.derivs(kk)
        for g, e in zip(got, exprs):
            want = e.subs(k, sp.Float(kk, 40)).evalf(40)
            assert abs(float(g) - float(want)) <= 1e-15 * max(abs(float(want)), 1.0)


@pytest.mark.parametrize("name,params", [("kdv", {}), ("whitham", {}), ("whitham_st", {"T": 0.3}), ("fkdv", {"delta": 1.5})])
def test_unperturbed_eigenvalue_solves_the_diagonal_pencil(name, params):
    # a = 0 row n of lambda D v = -L v: D_nn = i nu,
    # L_nn = -k^2 nu^2 (beta m(k nu) - c0) - gamma with c0 = c_p(k)
    m = sympy_symbol(name, **params)
    b, g, kk, xi = 0.8, 0.6, 1.3, 0.137
    c0 = (beta * m + gamma / k**2).subs({beta: b, gamma: g, k: kk})
    for n in (-3, -1, 1, 2, 5):
        nu_v = n + xi
        m_nu = m.subs(k, kk * abs(nu_v))
        L = -(kk**2) * nu_v**2 * (b * m_nu - c0) - g
        want = complex(sp.N(-L / (sp.I * nu_v), 30))
        got = ref.Model(name, b, g, **params).unperturbed_eigenvalue(kk, n, xi)
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def test_region_count_is_four_connected():
    assert ref.region_count(np.zeros((3, 3), bool)) == 0
    assert ref.region_count(np.ones((4, 5), bool)) == 1
    checker = (np.add.outer(np.arange(4), np.arange(4)) % 2).astype(bool)
    assert ref.region_count(checker) == 8  # diagonal neighbours do not connect
    ring = np.ones((5, 5), bool)
    ring[1:4, 1:4] = False
    ring[2, 2] = True
    assert ref.region_count(ring) == 2
    assert ref.region_count(~ring) == 1
    spiral = np.array([[1, 1, 1, 1], [0, 0, 0, 1], [1, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]], bool)
    assert ref.region_count(spiral) == 1


def test_label_of_leaves_the_degenerate_band_unjudged():
    assert ref.label_of(-1.0, 1.0, -1.0) == "U"
    assert ref.label_of(2.0, 1.0, 2.0) == "S"
    assert ref.label_of(1e-9, 1e-3, 1e-6) is None


def test_window_minimum_and_crossing_roots():
    def f(x):
        return (ref.MP.log(x) - 0.3) ** 2 - 0.01

    assert ref.window_minimum(f, 1e-2, 1e2) == pytest.approx(-0.01, abs=1e-11)
    roots = ref.crossing_roots(f, 0.5, 3.0)
    assert roots == pytest.approx([math.exp(0.2), math.exp(0.4)], rel=1e-12)
    assert ref.sign_change(f, math.exp(0.2)) and not ref.sign_change(f, 1.5)
