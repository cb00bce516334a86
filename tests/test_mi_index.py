"""Index factors, the projected 2x2 pencil, discriminant, growth rates."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ostwave as ow
from ostwave import floquet_hill, mi_index, stokes
from ostwave.symbols import _tension_symbol
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


def test_index_rejects_nan_at_finite_k():
    # m = sqrt(1 - k) is NaN past k = 1, so delta has no sign there
    s = ow.make_symbol(
        "custom",
        {"m": lambda k: np.sqrt(1.0 - k), "m1": lambda k: -0.5 / np.sqrt(1.0 - k),
         "m2": lambda k: -0.25 / (1.0 - k) ** 1.5},
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        assert ow.index(s, P11, 0.1).classification in ("stable", "unstable")
        for k in (2.0, [0.1, 2.0], np.array([[0.1], [2.0]])):
            with pytest.raises(ValueError, match="NaN at the finite wavenumber k=2.0"):
                ow.index(s, P11, k)


SIX_FAMILIES = [
    ("kdv", {}),
    ("fkdv", {"delta": 1.5}),
    ("ilw", {}),
    ("whitham", {}),
    ("kdv_st", {"T": 0.2}),
    ("whitham_st", {"T": 0.3}),
]


def test_f1_sign_is_the_resonance_denominator_sign_at_the_f1_locus():
    # the diagram's f1 curve points, and the points 1 ulp and 8e-15 relative off them
    total = 0
    for family, alpha, k_max, t_max in (
        ("kdv_st", 1.0, 2.0, 0.8),
        ("whitham_st", 0.1, 2.0, 0.8),
        ("whitham_st", -0.1, 5.0, 0.4),
        ("whitham_st", -0.3, 2.0, 0.8),
        ("whitham_st", 0.5, 2.0, 0.8),
    ):
        d = ow.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=50, nt=50)
        k, T = np.array(d.f1_curve).T
        ks = np.concatenate([k, np.nextafter(k, 0.0), np.nextafter(k, np.inf), k * (1 - 8e-15), k * (1 + 8e-15)])
        s, p = _tension_symbol(family, np.tile(T, 5)), ow.params_from_alpha(alpha)
        f1 = ow.index(s, p, ks).f1
        np.testing.assert_array_equal(np.sign(f1), np.sign(stokes.harmonic_denominator(s, p, ks, 2)))
        total += ks.size
    assert total > 500


def test_index_evaluates_the_symbol_three_times():
    s = ow.make_symbol("whitham_st", {"T": 0.2})
    orders = []

    def logged(k, order):
        orders.append(order)
        return s.jet_fn(k, order)

    ow.index(dataclasses.replace(s, jet_fn=logged), P11, 1.3)
    assert orders == [0, 0, 2]  # m(k) and m(2k) for D2, then the order-2 jet at k for P


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


MODELS = dict(
    name=st.sampled_from([name for name, _ in SIX_FAMILIES]),
    delta=st.floats(0.75, 2.5),
    T=st.floats(0.0, 0.8),
    sign=st.sampled_from([-1.0, 1.0]),
    log_beta=st.floats(-1.0, 1.0),
    log_gamma=st.floats(-1.0, 1.0),
    k=st.floats(0.05, 5.0),
)


def _model(name, delta, T, sign, log_beta, log_gamma):
    params = {"fkdv": {"delta": delta}, "kdv_st": {"T": T}, "whitham_st": {"T": T}}.get(name)
    return ow.make_symbol(name, params), ow.ModelParams(sign * 10.0**log_beta, 10.0**log_gamma)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**MODELS, log_lam=st.floats(-2.0, 2.0))
def test_label_invariant_under_joint_scaling(name, delta, T, sign, log_beta, log_gamma, k, log_lam):
    # (beta, gamma) -> lam (beta, gamma) scales f1 and f2 by lam, so delta keeps its sign
    s, p = _model(name, delta, T, sign, log_beta, log_gamma)
    lam = 10.0**log_lam
    r = ow.index(s, p, k)
    rs = ow.index(s, ow.ModelParams(lam * p.beta, lam * p.gamma), k)
    for x in (r, rs):  # clear the degeneracy floor with margin at both scales
        assume(abs(x.delta) > 1e3 * 1e-10 * (1.0 + abs(x.f1)) * (1.0 + abs(x.f2)))
    assert rs.classification == r.classification


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**MODELS)
def test_delta_and_ratio_signs_agree(name, delta, T, sign, log_beta, log_gamma, k):
    s, p = _model(name, delta, T, sign, log_beta, log_gamma)
    r = ow.index(s, p, k)
    assume(r.classification != "degenerate")
    assert np.sign(r.delta) == np.sign(r.ratio)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda w, a, xi: ow.assemble_b_matrix(w, 0.0, a, xi),
        lambda w, a, xi: ow.bmatrix_det_roots(w, a, xi),
        lambda w, a, xi: ow.growth_rate_leading(w, a, xi),
    ],
    ids=["assemble_b_matrix", "bmatrix_det_roots", "growth_rate_leading"],
)
def test_pencil_refuses_nan_amplitude_and_offset(call):
    # NaN fails every bound test, so it is refused rather than carried into the roots
    for w in (_kdv_wave(), ow.expand(ow.make_symbol("whitham_st", {"T": 0.2}), ow.ModelParams(1.0, 0.1), 0.7)):
        with pytest.raises(ValueError, match="amplitude"):
            call(w, math.nan, 1e-3)
        with pytest.raises(ValueError, match="sideband offset"):
            call(w, 0.01, math.nan)


# ----------------------------------------------------------------- roots


def test_roots_purely_imaginary_at_zero_amplitude():
    rng = np.random.default_rng(31)
    for _ in range(40):
        s, p, k = draw_model(rng)
        try:
            w = ow.expand(s, p, k)
        except ow.ResonanceError:
            continue
        xi = float(rng.uniform(1e-4, mi_index.XI_BOUND))
        r1, r2 = ow.bmatrix_det_roots(w, 0.0, xi)
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


# ------------------------------------------------------------------ batch


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _seeded_batch(name, params, seed, n=120):
    """A seeded model of the family and a 1-D batch of k, with the scalar symbol of each k.

    The tension families get one T per k, through the broadcast-T symbol;
    the batch also holds the family's resonant wavenumbers.
    """
    rng = np.random.default_rng(seed)
    p = ow.ModelParams(
        beta=float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0)),
        gamma=float(10.0 ** rng.uniform(-1.0, 1.0)),
    )
    ks = np.exp(rng.uniform(math.log(0.05), math.log(5.0), n))
    resonances = [k for k, _ in stokes.find_resonances(ow.make_symbol(name, params), p)]
    ks = np.concatenate([ks, resonances])
    if "T" not in params:
        s = ow.make_symbol(name, params)
        return s, p, ks, [s] * ks.size
    Ts = np.concatenate([rng.uniform(0.0, 0.8, n), np.full(len(resonances), params["T"])])
    return _tension_symbol(name, Ts), p, ks, [ow.make_symbol(name, {"T": float(T)}) for T in Ts]


def test_batch_resonance_mask_flags_exact_resonances():
    # kdv, beta = -1, gamma = 1: D2 = 0 at k^4 = 1/4 and D3 = 0 at k^4 = 1/9
    ks = np.array([0.25**0.25, 1.0, (1.0 / 9.0) ** 0.25])
    resonant = stokes._stokes(ow.make_symbol("kdv"), ow.ModelParams(-1.0, 1.0), ks)[3]
    assert resonant.tolist() == [True, False, True]


@pytest.mark.parametrize("name,params", SIX_FAMILIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_expansion_and_pencil_match_scalar_calls(name, params, seed):
    s, p, ks, scalar = _seeded_batch(name, params, seed)
    c0, A2, A3, resonant = stokes._stokes(s, p, ks)
    wave = ow.StokesWave(s, p, ks, c0, A2, A2, A3)
    waves = []
    for i, k in enumerate(ks):
        try:
            one = ow.expand(scalar[i], p, float(k))
        except ow.ResonanceError:
            assert resonant[i]
            waves.append(None)
            continue
        assert not resonant[i]
        assert _bits([c0[i], A2[i], A3[i]]) == _bits([one.c0, one.A2, one.A3])
        waves.append(one)
    for a, xi in ((0.01, 1e-3), (0.05, 0.05), (0.0, 1e-3), (0.03, -0.02)):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r1, r2 = ow.bmatrix_det_roots(wave, a, xi)
            growth = ow.growth_rate_leading(wave, a, xi)
            ratio = ow.detuning_ratio(wave, a, xi)
        for i, one in enumerate(waves):
            if one is None:
                continue
            assert _bits([r1[i], r2[i]]) == _bits(ow.bmatrix_det_roots(one, a, xi))
            assert _bits(growth[i]) == _bits(ow.growth_rate_leading(one, a, xi))
            assert _bits(ratio[i]) == _bits(ow.detuning_ratio(one, a, xi))


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
