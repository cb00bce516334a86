"""Index factors, the projected 2x2 pencil, discriminant, growth rates."""

from __future__ import annotations

import math

import numpy as np
import pytest

import ostwave as ow
from ostwave import floquet_hill
from conftest import draw_model

P11 = ow.ModelParams(beta=1.0, gamma=1.0)


def _kdv_wave(k: float = 1.0) -> ow.StokesWave:
    return ow.expand(ow.make_symbol("kdv"), P11, k)


# ----------------------------------------------------------------- index


def test_index_reference_values_unstable():
    r = ow.index(ow.make_symbol("kdv"), P11, 1.0)
    assert r.f1 == pytest.approx(3.75, rel=1e-14)
    assert r.f2 == pytest.approx(-4.0, rel=1e-14)
    assert r.delta == pytest.approx(-15.0, rel=1e-14)
    assert r.ratio == pytest.approx(-4.0 / 15.0, rel=1e-14)
    assert r.classification == "unstable"


def test_index_reference_values_stable():
    r = ow.index(ow.make_symbol("kdv"), P11, 0.5)
    assert r.f1 == pytest.approx(3.75, rel=1e-14)
    assert r.f2 == pytest.approx(13.0, rel=1e-14)
    assert r.delta == pytest.approx(48.75, rel=1e-14)
    assert r.classification == "stable"


def test_index_degenerate_at_group_velocity_extremum():
    r = ow.index(ow.make_symbol("kdv"), P11, (1.0 / 3.0) ** 0.25)
    assert abs(r.f2) < 1e-12
    assert r.classification == "degenerate"


def test_delta_is_exact_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s, p, k = draw_model(rng)
        r = ow.index(s, p, k)
        assert r.delta == r.f1 * r.f2


def test_factorization_identity():
    # f1 = N1/(4k^2), f2 = N2/k^3 with the numerators written out
    rng = np.random.default_rng(11)
    for _ in range(100):
        s, p, k = draw_model(rng)
        r = ow.index(s, p, k)
        n1 = 3 * p.gamma + 4 * p.beta * k * k * (s.m(k) - s.m(2 * k))
        n2 = 2 * p.gamma + p.beta * k**3 * (k * s.m2(k) + 2 * s.m1(k))
        scale1 = abs(r.f1) + abs(n1) + 1.0
        scale2 = abs(r.f2) + abs(n2) + 1.0
        assert abs(r.f1 - n1 / (4 * k * k)) <= 1e-12 * scale1
        assert abs(r.f2 - n2 / k**3) <= 1e-12 * scale2


def test_sign_equivalence_squared_sample():
    # the sign of delta always agrees with the sign of the ratio form
    rng = np.random.default_rng(20260814)
    n_checked = 0
    while n_checked < 200:
        s, p, k = draw_model(rng)
        r = ow.index(s, p, k)
        if r.classification == "degenerate":
            continue
        assert np.sign(r.delta) == np.sign(r.ratio), (s.name, p, k)
        n_checked += 1


def test_index_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        ow.index(ow.make_symbol("kdv"), P11, 0.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, [1.0, math.nan], [0.5, math.inf]])
def test_index_rejects_non_finite_k(k):
    with pytest.raises(ValueError, match="finite"):
        ow.index(ow.make_symbol("kdv"), P11, k)


SIX_FAMILIES = [
    ("kdv", {}),
    ("fkdv", {"delta": 1.5}),
    ("ilw", {}),
    ("whitham", {}),
    ("kdv_st", {"T": 0.2}),
    ("whitham_st", {"T": 0.3}),
]


@pytest.mark.parametrize("name,params", SIX_FAMILIES)
def test_array_index_matches_scalar_index(name, params):
    s = ow.make_symbol(name, params)
    # from inside the series branch of ilw/whitham (k < 1e-3) to large k
    ks = np.geomspace(1e-4, 20.0, 120)
    for p in (P11, ow.ModelParams(beta=-2.5, gamma=0.3)):
        r = ow.index(s, p, ks)
        assert r.classification.shape == r.f1.shape == r.f2.shape == r.ratio.shape == ks.shape
        for i, k in enumerate(ks):
            one = ow.index(s, p, float(k))
            assert type(one.f1) is float and type(one.ratio) is float
            assert type(one.classification) is str
            assert r.classification[i] == one.classification
            np.testing.assert_allclose(r.f1[i], one.f1, rtol=1e-14, atol=0)
            np.testing.assert_allclose(r.f2[i], one.f2, rtol=1e-14, atol=0)


# ---------------------------------------------------------------- matrix


def test_b_matrix_lambda_block_only():
    B = ow.assemble_b_matrix(_kdv_wave(), 1.0, 0.0, 0.0)
    assert np.array_equal(B, np.array([[0.0, 0.5], [-0.5, 0.0]]))


def test_b_matrix_xi_odd_trace():
    # the xi-odd part of the trace is i*xi*lambda*(1 + 4 a^2 A2^2)
    w = _kdv_wave()
    lam = 0.3 + 0.2j
    a, xi = 0.03, 0.02
    tp = np.trace(ow.assemble_b_matrix(w, lam, a, xi))
    tm = np.trace(ow.assemble_b_matrix(w, lam, a, -xi))
    want = 1j * xi * lam * (1.0 + 4.0 * a * a * w.A2 * w.A2)
    assert (tp - tm) / 2.0 == pytest.approx(want, rel=1e-13)


def test_b_matrix_hamiltonian_symmetry():
    # swapping (xi, lambda) -> (-xi, conj lambda) conjugates the entries
    w = _kdv_wave()
    lam = 0.1 + 0.7j
    a, xi = 0.02, 0.015
    B1 = ow.assemble_b_matrix(w, lam, a, xi)
    B2 = ow.assemble_b_matrix(w, lam.conjugate(), a, -xi)
    assert np.array_equal(B2, B1.conjugate())


def test_b_matrix_bounds():
    w = _kdv_wave()
    with pytest.raises(ValueError):
        ow.assemble_b_matrix(w, 0.0, 0.2, 0.01)
    with pytest.raises(ValueError):
        ow.assemble_b_matrix(w, 0.0, 0.01, 0.2)
    # bounds are explicit knobs, not hard limits
    B = ow.assemble_b_matrix(w, 0.0, 0.0, 0.4, xi_bound=0.5)
    assert B.shape == (2, 2)


# ----------------------------------------------------------------- roots


def test_roots_purely_imaginary_at_zero_amplitude():
    rng = np.random.default_rng(31)
    for _ in range(40):
        s, p, k = draw_model(rng)
        try:
            w = ow.expand(s, p, k)
        except ow.ResonanceError:
            continue
        xi = float(rng.uniform(1e-4, 0.5))
        r1, r2 = ow.bmatrix_det_roots(w, 0.0, xi, xi_bound=0.5)
        assert r1.real == 0.0 and r2.real == 0.0


def test_roots_match_unperturbed_pair_to_cubic_order():
    w = _kdv_wave()
    for xi in (1e-3, 1e-2):
        roots = sorted(
            ow.bmatrix_det_roots(w, 0.0, xi), key=lambda z: z.imag
        )
        exact = sorted(
            (
                floquet_hill.unperturbed_eigenvalue(w, -1, xi),
                floquet_hill.unperturbed_eigenvalue(w, 1, xi),
            ),
            key=lambda z: z.imag,
        )
        err = max(abs(r - e) for r, e in zip(roots, exact))
        assert err <= 10.0 * xi**3


def test_growth_zero_on_stable_side():
    w = _kdv_wave(0.5)
    assert ow.growth_rate_leading(w, 0.01, 0.005) <= 1e-12


def test_growth_positive_and_near_hill_on_unstable_side():
    w = _kdv_wave(1.0)
    g = ow.growth_rate_leading(w, 0.01, 0.001)
    assert g > 0.0
    hill = floquet_hill.max_growth(w, 0.01, 0.001, N=32)
    assert abs(g - hill) / hill < 0.10


def test_detuning_ratio_value():
    # kdv beta=gamma=k=1: a^2 k^2 A2 / (xi |q0|) with A2=2/15, q0=-4
    w = _kdv_wave()
    got = ow.detuning_ratio(w, 0.01, 0.001)
    assert got == pytest.approx(1e-4 * (2.0 / 15.0) / (1e-3 * 4.0), rel=1e-12)


# ----------------------------------------------------------- discriminant


def test_discriminant_reference_value():
    w = _kdv_wave()
    xi, a = 1e-3, 1e-2
    want = 16.0 * xi**4 - (4.0 / 15.0) * xi * xi * a * a
    got = ow.discriminant(w, a, xi)
    assert got == pytest.approx(want, rel=1e-12)
    assert got < 0.0


def test_discriminant_nonnegative_at_zero_amplitude():
    rng = np.random.default_rng(5)
    for _ in range(30):
        s, p, k = draw_model(rng)
        try:
            w = ow.expand(s, p, k)
        except ow.ResonanceError:
            continue
        assert ow.discriminant(w, 0.0, 0.01) >= 0.0


def test_discriminant_sign_matches_ratio_for_small_xi():
    # "small xi" is sample-relative: the cross term xi^2 a^2 P/D2 must
    # dominate the quartic xi^4 P^2, i.e. xi^2 << a^2 / |P D2|
    rng = np.random.default_rng(99)
    a = 0.01
    n_checked = 0
    while n_checked < 60:
        s, p, k = draw_model(rng)
        r = ow.index(s, p, k)
        if r.classification == "degenerate":
            continue
        try:
            w = ow.expand(s, p, k)
        except ow.ResonanceError:
            continue
        P = r.f2 * k**3
        D2 = 4.0 * k * k * r.f1
        xi = min(1e-3, 0.1 * a / np.sqrt(abs(P * D2) + 1.0))
        d = ow.discriminant(w, a, xi)
        if d == 0.0:
            continue
        assert np.sign(d) == np.sign(r.ratio), (s.name, p, k, xi)
        n_checked += 1


def test_discriminant_raises_on_resonance():
    s = ow.make_symbol("kdv")
    p = ow.ModelParams(beta=-1.0, gamma=1.0)
    w = ow.expand(s, p, 1.3)  # non-resonant k, fine
    assert ow.discriminant(w, 0.01, 1e-3) != 0.0
    rk = 0.25**0.25
    with pytest.raises(ow.ResonanceError):
        # construct the wave just off resonance, then ask at resonance
        ow.discriminant(
            ow.StokesWave(
                symbol=s, params=p, k=rk, c0=0.0, c2=0.0, A2=0.0, A3=0.0
            ),
            0.01,
            1e-3,
        )
