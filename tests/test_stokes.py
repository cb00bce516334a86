"""Small-amplitude wave construction, resonances, residual order."""

from __future__ import annotations

import numpy as np
import pytest

import ostwave as ow
from ostwave import stokes

P11 = ow.ModelParams(beta=1.0, gamma=1.0)
PN1 = ow.ModelParams(beta=-1.0, gamma=1.0)


def _kdv_wave(k: float = 1.0) -> ow.StokesWave:
    return ow.expand(ow.make_symbol("kdv"), P11, k)


# -------------------------------------------------------------- expand


def test_kdv_expand_reference_values():
    w = _kdv_wave()
    assert w.c0 == pytest.approx(1.0, abs=1e-15)
    assert w.A2 == pytest.approx(2.0 / 15.0, rel=1e-15)
    assert w.A3 == pytest.approx(0.015, rel=1e-13)
    assert w.c2 == w.A2  # speed correction equals the second coefficient


def test_speed_profile_series_values():
    w = _kdv_wave()
    a = 0.01
    assert ow.speed(w, a) == pytest.approx(1.0 + a * a * 2.0 / 15.0, rel=1e-15)
    want = a + a * a * (2.0 / 15.0) + a**3 * 0.015
    assert ow.profile(w, a, 0.0) == pytest.approx(want, rel=1e-14)
    assert ow.profile(w, 0.0, 1.2345) == 0.0
    assert ow.speed(w, 0.0) == w.c0


def test_profile_even_speed_even():
    w = _kdv_wave()
    rng = np.random.default_rng(42)
    for z in rng.uniform(-np.pi, np.pi, size=20):
        assert ow.profile(w, 0.03, -z) == ow.profile(w, 0.03, z)
    for a in rng.uniform(0.0, 0.1, size=10):
        assert ow.speed(w, a) == ow.speed(w, -a)


def test_fourier_coefficients_order():
    w = _kdv_wave()
    a = 0.02
    coeffs = w.fourier_coefficients(a)
    assert coeffs == pytest.approx([0.0, a, a * a * w.A2, a**3 * w.A3])


def test_fkdv_delta2_expand_identical_to_kdv():
    wk = _kdv_wave(0.9)
    wf = ow.expand(ow.make_symbol("fkdv", {"delta": 2.0}), P11, 0.9)
    assert (wf.c0, wf.c2, wf.A2, wf.A3) == (wk.c0, wk.c2, wk.A2, wk.A3)


def test_amplitude_bound_enforced():
    w = _kdv_wave()
    with pytest.raises(ValueError):
        ow.profile(w, 0.2, 0.0)
    with pytest.raises(ValueError):
        ow.speed(w, -0.11)
    with pytest.raises(ValueError):
        ow.residual_norm(w, 0.2)


@pytest.mark.parametrize("a", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_amplitude_rejected(a):
    w = _kdv_wave()
    for evaluate in (ow.speed, ow.residual_norm, lambda w, a: ow.profile(w, a, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            evaluate(w, a)


# ------------------------------------------------------------ resonance


def test_kdv_positive_beta_never_resonant():
    s = ow.make_symbol("kdv")
    for k in np.geomspace(0.05, 20.0, 50):
        assert ow.check_resonance(s, P11, k) == []
    assert stokes.find_resonances(s, P11) == []


def test_kdv_negative_beta_resonances_closed_form():
    # denominators 3 - 12 k^4 and 8 - 72 k^4 vanish at these k
    s = ow.make_symbol("kdv")
    found = stokes.find_resonances(s, PN1)
    ks = [k for k, n in found]
    ns = [n for k, n in found]
    assert ns == [3, 2]
    assert ks[0] == pytest.approx((1.0 / 9.0) ** 0.25, abs=1e-9)
    assert ks[1] == pytest.approx((1.0 / 4.0) ** 0.25, abs=1e-9)
    assert ow.check_resonance(s, PN1, 0.25**0.25) == [2]


def test_resonance_lists_frozen():
    # located by dense sign scan + bisection on each denominator
    cases = [
        ("whitham", PN1, [(1.7273146414993115, 3), (1.9591914540987505, 2)]),
        ("ilw", P11, [(0.8273516120133428, 3), (0.9956913201370606, 2)]),
        ("whitham", P11, []),
    ]
    for name, p, want in cases:
        got = stokes.find_resonances(ow.make_symbol(name), p)
        assert len(got) == len(want)
        for (gk, gn), (wk, wn) in zip(got, want):
            assert gn == wn
            assert gk == pytest.approx(wk, abs=1e-9)


def test_expand_raises_on_resonance_with_harmonics():
    s = ow.make_symbol("kdv")
    with pytest.raises(ow.ResonanceError) as exc:
        ow.expand(s, PN1, 0.25**0.25)
    assert list(exc.value.harmonics) == [2]
    with pytest.raises(ow.ResonanceError) as exc:
        ow.expand(s, PN1, (1.0 / 9.0) ** 0.25)
    assert 3 in exc.value.harmonics


def test_check_resonance_matches_denominator_floor():
    # check_resonance reports n exactly when the harmonic denominator
    # falls below the configured floor
    s = ow.make_symbol("kdv")
    floor = stokes.denominator_floor(PN1)
    for k in np.geomspace(0.3, 1.5, 200):
        flagged = ow.check_resonance(s, PN1, k)
        for n in (2, 3):
            below = abs(stokes.harmonic_denominator(s, PN1, k, n)) < floor
            assert (n in flagged) == below


# -------------------------------------------------------------- residual


def test_residual_zero_at_zero_amplitude():
    assert ow.residual_norm(_kdv_wave(), 0.0) == 0.0


@pytest.mark.parametrize(
    "name,p,k",
    [
        ("kdv", P11, 1.0),
        ("ilw", P11, 0.5),
        ("whitham", P11, 0.5),
        ("kdv_st", P11, 0.7),
        ("fkdv", PN1, 0.4),
        ("whitham_st", P11, 0.8),
    ],
)
def test_residual_vanishes_at_fourth_order(name, p, k):
    params = {"T": 0.2} if name.endswith("_st") else (
        {"delta": 1.5} if name == "fkdv" else None
    )
    w = ow.expand(ow.make_symbol(name, params), p, k)
    r1 = ow.residual_norm(w, 0.02)
    r2 = ow.residual_norm(w, 0.01)
    assert 3.5 <= np.log2(r1 / r2) <= 4.5


def test_residual_band_factor_four():
    w = _kdv_wave()
    amps = [0.04, 0.02, 0.01, 0.005]
    ratios = [ow.residual_norm(w, a) / a**4 for a in amps]
    assert max(ratios) / min(ratios) < 4.0
