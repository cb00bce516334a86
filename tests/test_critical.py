"""Critical wavenumbers, tension thresholds, stability diagrams."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ostwave as ow
from ostwave import critical as cr
from ostwave import floquet_hill, mi_index, roots, stokes, symbols

from conftest import draw_model

P11 = ow.ModelParams(beta=1.0, gamma=1.0)
PN1 = ow.ModelParams(beta=-1.0, gamma=1.0)


# ------------------------------------------------------------ closed form


def test_kdv_closed_form_both_signs():
    r = cr.kc_closed_form(ow.make_symbol("kdv"), P11)
    assert r.kc == pytest.approx(3.0**-0.25, rel=1e-14)
    assert r.mechanism == "group_velocity_extremum"
    assert r.method == "closed_form"
    r = cr.kc_closed_form(ow.make_symbol("kdv"), PN1)
    assert r.kc == pytest.approx(0.25**0.25, rel=1e-14)
    assert r.mechanism == "phase_velocity_coincidence"


def test_kc_scales_with_parameters():
    # kc = (gamma/(3 beta))^{1/4} for beta > 0
    r = cr.kc_closed_form(ow.make_symbol("kdv"), ow.ModelParams(beta=2.0, gamma=0.5))
    assert r.kc == pytest.approx((0.5 / 6.0) ** 0.25, rel=1e-14)


def test_fkdv_closed_form():
    r = cr.kc_closed_form(ow.make_symbol("fkdv", {"delta": 1.5}), P11)
    want = (2.0 / (1.5 * 2.5)) ** (1.0 / 3.5)
    assert r.kc == pytest.approx(want, rel=1e-14)
    assert r.params["delta"] == 1.5
    r = cr.kc_closed_form(ow.make_symbol("fkdv", {"delta": 1.5}), PN1)
    want = (3.0 / (4.0 * (2.0**1.5 - 1.0))) ** (1.0 / 3.5)
    assert r.kc == pytest.approx(want, rel=1e-14)


def test_fkdv_delta2_reduces_to_kdv():
    for p in (P11, PN1):
        assert cr.kc_closed_form(ow.make_symbol("fkdv", {"delta": 2.0}), p).kc == pytest.approx(
            cr.kc_closed_form(ow.make_symbol("kdv"), p).kc, abs=1e-12
        )


def test_power_law_reductions_are_exact():
    # one formula pair serves m = 1 - c k^d: at d = 2, c = 1 every model is kdv, float for float
    rng = np.random.default_rng(14)
    reductions = [
        ow.make_symbol("fkdv", {"delta": 2.0}),
        ow.make_symbol("kdv_st", {"T": 0.0}),
        ow.make_symbol("kdv_st"),  # T defaults to 0, as on the CLI
    ]
    for _ in range(200):
        beta = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        p = ow.ModelParams(beta=beta, gamma=float(10.0 ** rng.uniform(-3.0, 3.0)))
        want = cr.kc_closed_form(ow.make_symbol("kdv"), p)
        for s in reductions:
            got = cr.kc_closed_form(s, p)
            assert (got.kc, got.mechanism) == (want.kc, want.mechanism), (s.name, s.params, p)


def test_kdv_st_closed_form():
    # effective quadratic coefficient flips sign at T = 1/3
    r = cr.kc_closed_form(ow.make_symbol("kdv_st", {"T": 2.0 / 3.0}), P11)
    assert r.kc == pytest.approx(0.25**0.25, rel=1e-14)
    assert r.mechanism == "phase_velocity_coincidence"
    r = cr.kc_closed_form(ow.make_symbol("kdv_st", {"T": 0.1}), P11)
    assert r.kc == pytest.approx((1.0 / (3.0 * 0.7)) ** 0.25, rel=1e-14)
    assert r.mechanism == "group_velocity_extremum"
    assert cr.kc_closed_form(ow.make_symbol("kdv_st", {"T": 0.0}), P11).kc == pytest.approx(
        cr.kc_closed_form(ow.make_symbol("kdv"), P11).kc, abs=1e-12
    )


def test_kdv_st_inconclusive_near_one_third():
    with pytest.raises(ow.InconclusiveError):
        cr.kc_closed_form(ow.make_symbol("kdv_st", {"T": 1.0 / 3.0}), P11)
    with pytest.raises(ow.InconclusiveError):
        cr.kc_closed_form(ow.make_symbol("kdv_st", {"T": 0.333333}), P11)


def test_unsupported_model_rejected():
    with pytest.raises(ValueError):
        cr.kc_closed_form(ow.make_symbol("ilw"), P11)


def test_closed_form_refuses_an_overflowed_kc():
    # kc = (gamma / (3 beta))^(1/4) overflows to inf at gamma / beta = 1e600 and underflows to 0 at 1e-600
    s = ow.make_symbol("kdv")
    for beta, gamma, kc in ((1e-300, 1e300, "inf"), (1e300, 1e-300, "0.0"), (-1e-300, 1e300, "inf")):
        with pytest.raises(ValueError, match=f"critical wavenumber is kc={kc} "):
            cr.kc_closed_form(s, ow.ModelParams(beta, gamma))


@pytest.mark.parametrize(
    "s",
    [ow.make_symbol("ilw"), ow.make_symbol("whitham"), ow.make_symbol("whitham_st", {"T": 0.2}),
     ow.make_symbol("custom", {"m": lambda k: 1.0 - k * k, "m1": lambda k: -2.0 * k, "m2": lambda k: -2.0})],
    ids=lambda s: s.name,
)
def test_closed_form_refuses_symbols_off_the_power_laws(s):
    with pytest.raises(ValueError, match="no closed-form"):
        cr.kc_closed_form(s, P11)


# --------------------------------------------------------------- numeric


FROZEN_NUMERIC = [
    ("ilw", P11, 0.9956913201370606, "phase_velocity_coincidence"),
    ("ilw", PN1, 1.0580949281940697, "group_velocity_extremum"),
    ("whitham", P11, 3.7309185576079753, "group_velocity_extremum"),
    ("whitham", PN1, 1.9591914540987505, "phase_velocity_coincidence"),
]


@pytest.mark.parametrize("name,p,kc,mech", FROZEN_NUMERIC)
def test_numeric_critical_wavenumbers(name, p, kc, mech):
    s = ow.make_symbol(name)
    results = cr.kc_numeric(s, p)
    assert len(results) == 1  # the uniqueness claim holds on this bracket
    r = results[0]
    assert r.method == "bisection"
    assert r.mechanism == mech
    assert r.kc == pytest.approx(kc, abs=1e-9)
    # bisection residual: the owning factor vanishes to solver tolerance
    res = ow.index(s, p, r.kc)
    owner = res.f2 if mech == "group_velocity_extremum" else res.f1
    other = res.f1 if mech == "group_velocity_extremum" else res.f2
    assert abs(owner) <= 1e-10 * (1.0 + abs(other))
    assert abs(other) > 1e-6


@pytest.mark.parametrize("name,p,kc,mech", FROZEN_NUMERIC)
def test_sign_change_across_critical_point(name, p, kc, mech):
    s = ow.make_symbol(name)
    lo = ow.index(s, p, kc * (1 - 1e-3)).delta
    hi = ow.index(s, p, kc * (1 + 1e-3)).delta
    assert lo * hi < 0.0


def test_kdv_numeric_matches_closed_form():
    s = ow.make_symbol("kdv")
    for p in (P11, PN1):
        closed = cr.kc_closed_form(ow.make_symbol("kdv"), p).kc
        results = cr.kc_numeric(s, p)
        assert len(results) == 1
        assert abs(results[0].kc - closed) <= 1e-10


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(["kdv", "fkdv", "kdv_st"]),
    sign=st.sampled_from([-1.0, 1.0]),
    log_beta=st.floats(-1.0, 1.0),
    log_gamma=st.floats(-1.0, 1.0),
    delta=st.floats(0.75, 2.5),
    T=st.floats(0.0, 0.8),
)
def test_kc_closed_form_matches_numeric(model, sign, log_beta, log_gamma, delta, T):
    extra = {"fkdv": {"delta": delta}, "kdv_st": {"T": T}}.get(model)
    if model == "kdv_st":
        assume(abs(T - 1.0 / 3.0) > 0.02)
    p = ow.ModelParams(beta=sign * 10.0**log_beta, gamma=10.0**log_gamma)
    closed = cr.kc_closed_form(ow.make_symbol(model, extra), p)
    assume(0.05 < closed.kc < 20.0)  # well inside kc_numeric's bracket (0.01, 100)
    (numeric,) = cr.kc_numeric(ow.make_symbol(model, extra), p)
    assert numeric.mechanism == closed.mechanism
    assert numeric.kc == pytest.approx(closed.kc, rel=1e-9, abs=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["ilw", "whitham"])
def test_unique_critical_wavenumber_claim_holds_on_a_parameter_grid(name):
    # the zero sets depend on (beta, gamma) only through alpha = gamma/beta, so 161
    # alphas a tenth of a decade apart of each sign cover the claim: one root wherever the scan finds any
    answered = 0
    for alpha in np.concatenate([np.geomspace(1e-8, 1e8, 161), -np.geomspace(1e-8, 1e8, 161)]).tolist():
        try:
            found = cr.kc_numeric(ow.make_symbol(name), cr.params_from_alpha(alpha))
        except ow.NoRootError:
            continue
        assert len(found) == 1, (alpha, [r.kc for r in found])
        answered += 1
    assert answered > 200


def test_numeric_no_root_raises():
    # kc = (gamma/3)^(1/4), about 240, lies outside the scanned (0.01, 100)
    with pytest.raises(ow.NoRootError, match=r"in \(0\.01, 100\)"):
        cr.kc_numeric(ow.make_symbol("kdv"), ow.ModelParams(beta=1.0, gamma=1e10))


def test_probe_window_messages_read_their_grids(monkeypatch):
    monkeypatch.setattr(cr, "_SCAN_GRID", np.geomspace(0.1, 10, 400))
    monkeypatch.setattr(cr, "_TC_ROWS", np.geomspace(0.02, 0.5, 20))
    # kc = (gamma/3)^(1/4), about 31.6, lies outside the patched (0.1, 10)
    with pytest.raises(ow.NoRootError, match=r"in \(0\.1, 10\) for kdv"):
        cr.kc_numeric(ow.make_symbol("kdv"), ow.ModelParams(beta=1.0, gamma=3e6))
    with pytest.raises(ow.BracketError, match=r"on T in \(0\.02, 0\.5\) for alpha=1") as err:
        cr.tc_of_alpha("whitham_st", 1.0)
    assert "at T=0.02 and" in str(err.value.__cause__) and str(err.value.__cause__).endswith("at T=0.5")


@pytest.mark.filterwarnings("error")
def test_second_harmonic_resonances_are_the_phase_velocity_coincidences():
    # f1's numerator is D_2, so the n = 2 resonances and the phase-velocity
    # coincidences are one scan of one function: the same grid and xtol, the same floats
    rng = np.random.default_rng(31)
    for _ in range(180):
        s, p, _ = draw_model(rng)
        resonant = [k for k, n in stokes.find_resonances(s, p) if n == 2]
        try:
            found = cr.kc_numeric(s, p)
        except ow.NoRootError:
            found = []
        assert [r.kc for r in found if r.mechanism == "phase_velocity_coincidence"] == resonant


def test_scan_grid_is_one_read_only_array():
    # kc_numeric and find_resonances probe the one grid built at import, which no caller can change
    grid = stokes._SCAN_GRID
    assert grid.tobytes() == np.geomspace(1e-2, 1e2, 400).tobytes()
    for fixed in (grid, symbols._H2_TAIL, symbols._H3_SCAN):
        assert not fixed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fixed[0] = 1.0


def test_non_finite_scan_end_raises():
    # a symbol that is non-finite at the scan's last point k = 100 has no bracket to trust there
    def m(k):
        return np.where(k < 99.0, 1.0 - k * k, np.inf)

    s = ow.make_symbol("custom", {"m": m, "m1": lambda k: -2.0 * k, "m2": lambda k: -2.0})
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="bracket endpoints evaluate non-finite"):
        cr.kc_numeric(s, P11)


def test_closed_form_sign_change():
    for model, p, extra in [
        ("kdv", P11, None),
        ("kdv", PN1, None),
        ("fkdv", P11, {"delta": 1.5}),
        ("kdv_st", P11, {"T": 0.6}),
    ]:
        r = cr.kc_closed_form(ow.make_symbol(model, extra), p)
        s = ow.make_symbol(model, extra)
        lo = ow.index(s, p, r.kc * (1 - 1e-3)).delta
        hi = ow.index(s, p, r.kc * (1 + 1e-3)).delta
        assert lo * hi < 0.0


# --------------------------------------------------------------- intervals


def test_classify_intervals_kdv():
    ivs = cr.classify_intervals(ow.make_symbol("kdv"), P11, (0.05, 3.0))
    assert [label for _, label in ivs] == ["S", "U"]
    (a0, b0), _ = ivs[0]
    assert a0 == 0.05
    assert b0 == pytest.approx(3.0**-0.25, abs=1e-6)
    assert ivs[1][0][1] == 3.0


@pytest.mark.parametrize("p", [P11, PN1], ids=["beta+", "beta-"])
def test_classify_intervals_ends_on_kc(p):
    # a range ending on the critical wavenumber is one interval with no sliver past it
    s = ow.make_symbol("kdv")
    kc = cr.kc_closed_form(s, p).kc
    ivs = cr.classify_intervals(s, p, (0.1, kc))
    assert len(ivs) == 1
    (lo, hi), _ = ivs[0]
    assert (lo, hi) == (0.1, kc)


def test_classify_intervals_whitham_st_below_threshold():
    p = cr.params_from_alpha(0.1)
    s = ow.make_symbol("whitham_st", {"T": 0.02})
    ivs = cr.classify_intervals(s, p, (0.05, 10.0))
    assert [label for _, label in ivs] == ["S", "U", "S", "U"]
    bounds = [b for (_, b), _ in ivs[:-1]]
    assert bounds == pytest.approx([0.7920, 3.0106, 5.0797], abs=2e-3)


def test_classify_intervals_whitham_st_above_threshold():
    p = cr.params_from_alpha(0.1)
    s = ow.make_symbol("whitham_st", {"T": 0.5})
    ivs = cr.classify_intervals(s, p, (0.05, 5.0))
    assert [label for _, label in ivs] == ["S", "U"]
    assert ivs[0][0][1] == pytest.approx(0.8403, abs=2e-3)


def test_classify_intervals_merges_equal_labels_across_a_loci_crossing():
    # at the crossing tension of the alpha = -0.1 diagram both loci pass k = 2.0079
    # within 1.2e-13: one boundary, and U on both sides of it
    p = cr.params_from_alpha(-0.1)
    s = ow.make_symbol("whitham_st", {"T": 0.0970275958082918})
    kcs = sorted(r.kc for r in cr.kc_numeric(s, p))
    assert len(kcs) == 3 and kcs[2] - kcs[1] < 1.2e-13
    ivs = cr.classify_intervals(s, p, (0.05, 10.0))
    assert [label for _, label in ivs] == ["S", "U"]
    assert ivs[0][0] == (0.05, ivs[1][0][0]) and ivs[1][0][1] == 10.0
    assert ivs[0][0][1] == pytest.approx(0.88965, abs=1e-5)


def test_classify_intervals_keeps_a_range_narrower_than_its_merge_tolerance():
    # boundaries within 1e-10 (1 + hi) merge, but never the range's own two ends
    s = ow.make_symbol("kdv")
    kc = cr.kc_closed_form(s, P11).kc
    for k_range in ((0.5, 0.5 + 1e-11), (kc - 1e-11, kc + 1e-11)):
        ivs = cr.classify_intervals(s, P11, k_range)
        want = ow.index(s, P11, math.sqrt(k_range[0] * k_range[1])).classification
        assert ivs == [(k_range, {"stable": "S", "unstable": "U", "degenerate": "degenerate"}[want])]
    assert cr.classify_intervals(s, P11, (0.5, 0.5 + 1e-9)) == [((0.5, 0.500000001), "S")]


def test_classify_intervals_refuses_an_empty_range():
    for k_range in ((2.0, 2.0), (3.0, 1.0), (0.0, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="0 < lo < hi"):
            cr.classify_intervals(ow.make_symbol("kdv"), P11, k_range)


# --------------------------------------------------------------- threshold


def test_tc_whitham_st_reference_values():
    assert cr.tc_of_alpha("whitham_st", 0.1) == pytest.approx(0.132, abs=5e-3)
    assert cr.tc_of_alpha("whitham_st", -0.1) == pytest.approx(0.141, abs=5e-3)


def test_tc_kdv_st_is_one_third():
    assert cr.tc_of_alpha("kdv_st", 0.7) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cr.tc_of_alpha("kdv_st", -2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_tc_validation():
    # alpha is checked for every variant, before kdv_st's closed form
    for variant in ("kdv_st", "whitham_st"):
        for alpha in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
                cr.tc_of_alpha(variant, alpha)
    with pytest.raises(ValueError):
        cr.tc_of_alpha("ilw", 0.1)


def _owner_double_root(alpha, k0, T0):
    """(k, T) where the owner numerator of whitham_st and its k-derivative both vanish, in mpmath."""
    mp = pytest.importorskip("mpmath")
    beta, gamma = mp.sign(alpha), abs(mp.mpf(alpha))

    def m(k, T):
        return mp.sqrt(mp.tanh(k) / k * (1 + T * k * k))

    if alpha > 0:  # f2's numerator 2 gamma + beta k^3 (k m)''
        def km(T):
            return lambda x: x * m(x, T)

        def F(k, T):
            return 2 * gamma + beta * k**3 * mp.diff(km(T), k, 2)

        def G(k, T):
            return beta * (3 * k**2 * mp.diff(km(T), k, 2) + k**3 * mp.diff(km(T), k, 3))
    else:  # f1's numerator 3 gamma + 4 beta k^2 (m(k) - m(2k))
        def F(k, T):
            return 3 * gamma + 4 * beta * k**2 * (m(k, T) - m(2 * k, T))

        def G(k, T):
            return mp.diff(lambda x: F(x, T), k)

    with mp.workdps(30):
        return mp.findroot([F, G], (mp.mpf(k0), mp.mpf(T0)))


@pytest.mark.parametrize(
    "alpha, k0, T0",
    [
        (0.1, 1.2, 0.13),
        (-0.1, 1.23, 0.14),
        (0.02, 0.87, 0.227),
        (-0.02, 0.84, 0.222),
        (0.3, 1.62, 0.047),
        (-0.3, 1.72, 0.075),
        (0.5, 2.05, 0.015),
        (-0.5, 2.1, 0.048),
    ],
)
def test_tc_matches_mpmath_double_root(alpha, k0, T0):
    # at T_c the owner's pair of zeros merges into a double root in k: the fold solve lands on it
    k, T = _owner_double_root(alpha, k0, T0)
    assert float(k) == pytest.approx(k0, abs=0.01)
    assert cr.tc_of_alpha("whitham_st", alpha) == pytest.approx(float(T), abs=1e-13)


def _owner_sign_bisection(alpha, tol):
    """Bracket of width <= tol on T in (0.01, 0.9) where the owner's zoomed minimum over k turns positive."""
    k_grid = np.geomspace(1e-2, 1e2, 600)
    p, owner = cr.params_from_alpha(alpha), 1 if alpha > 0 else 0
    lo, hi, steps = 0.01, 0.9, 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        low = roots.minimize_scalar(cr._numerators(ow.make_symbol("whitham_st", {"T": mid}), p)[owner], k_grid)
        lo, hi = (mid, hi) if low < 0 else (lo, mid)
        steps += 1
    return lo, hi, steps


@pytest.mark.parametrize("tol", [1e-2, 5e-3, 1e-3])
def test_tc_evaluation_count(monkeypatch, tol):
    # the alphas of the benchmark's threshold searches
    alphas = (0.02, -0.02, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.5, -0.5)
    calls = []
    make = cr.make_symbol
    monkeypatch.setattr(cr, "make_symbol", lambda *args: calls.append(1) or make(*args))
    for name in ("brentq", "minimize_scalar"):
        monkeypatch.setattr(cr, name, lambda *args, name=name, **kwargs: pytest.fail(f"tc called {name}"))
    counts = []
    for alpha in alphas:
        calls.clear()
        tc = cr.tc_of_alpha("whitham_st", alpha)
        counts.append(len(calls))
        # a bisection on the owner minimum's sign down to width tol brackets the fold, at more symbols
        lo, hi, steps = _owner_sign_bisection(alpha, tol)
        assert lo <= tc <= hi, (alpha, lo, tc, hi)
        assert len(calls) <= 2 + steps, (alpha, counts)
    # one seed lattice, then one 3x3 stencil per Newton step
    assert max(counts) <= 1 + 8, counts


def test_tc_refuses_an_unverified_fold(monkeypatch):
    # a Newton solve that fails, or lands outside its two seed rows (0.107 and 0.135 at alpha = 0.1), is no T_c
    for fold in (None, (1.2, 0.5), (1.2, 0.05)):
        monkeypatch.setattr(cr, "_newton_kT", lambda *args, fold=fold, **kwargs: fold)
        with pytest.raises(ow.InconclusiveError, match="did not converge between its seed rows"):
            cr.tc_of_alpha("whitham_st", 0.1)


@pytest.mark.parametrize(
    "residuals, steps",
    [
        ((lambda ks, Ts: (ks + 5.0, Ts - 1.0)), 1),  # the first step lands at k = -5
        ((lambda ks, Ts: (np.ones_like(ks), np.ones_like(Ts))), 1),  # constant residuals: a singular Jacobian
        ((lambda ks, Ts: (ks - 1.0, Ts * Ts)), 20),  # T halves each step: 20 steps, no convergence
    ],
)
def test_newton_gives_up(residuals, steps):
    calls = []
    assert cr._newton_kT(lambda ks, Ts: calls.append(1) or residuals(ks, Ts), 1.0, 0.5) is None
    assert len(calls) == steps


def test_newton_lands_on_a_known_root():
    # k^2 = 2 and k T = 1: one residual call per step, on (k, T), (k + hk, T) and (k, T + hT)
    calls = []

    def residuals(ks, Ts):
        calls.append((ks.tolist(), Ts.tolist()))
        return ks * ks - 2.0, ks * Ts - 1.0

    k, T = cr._newton_kT(residuals, 1.3, 0.8)
    assert abs(k - math.sqrt(2.0)) <= 16 * math.ulp(math.sqrt(2.0))
    assert abs(T - math.sqrt(0.5)) <= 16 * math.ulp(math.sqrt(0.5))
    assert len(calls) == 5
    for (k0, k1, k2), (T0, T1, T2) in calls:
        assert k2 == k0 and 0 < k1 - k0 <= 2e-8 * k0
        assert T1 == T0 and 0 < T2 - T0 <= 2e-8 * T0


def test_tc_brackets_the_owner_minimum_sign_change():
    # either no threshold in the T bracket, or T_c sits where the owner's minimum over k changes
    # sign; the minimum is zoomed in on, since the bare grid's is 2.5e-6 high at alpha = 0.005
    k_grid = np.geomspace(1e-2, 1e2, 600)
    mags = np.geomspace(0.005, 5, 20)
    for alpha in np.concatenate([mags, -mags]).tolist():
        try:
            tc = cr.tc_of_alpha("whitham_st", alpha)
        except ow.BracketError:
            continue
        assert 0.01 < tc < 0.9, alpha
        p, owner = cr.params_from_alpha(alpha), 1 if alpha > 0 else 0
        for T, sign in ((tc - 1e-6, -1), (tc + 1e-6, 1)):
            low = roots.minimize_scalar(cr._numerators(ow.make_symbol("whitham_st", {"T": T}), p)[owner], k_grid)
            assert sign * low > 0, (alpha, T, low)


def test_kc_numeric_loses_the_owner_pair_at_tc():
    # T_c is where the count of critical wavenumbers drops from three to one: just below it
    # kc_numeric finds the owner mechanism's pair, just above it none of the owner's roots
    alphas = (0.02, -0.02, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.5, -0.5)
    for alpha in alphas:
        tc, p = cr.tc_of_alpha("whitham_st", alpha), cr.params_from_alpha(alpha)
        owner = "group_velocity_extremum" if alpha > 0 else "phase_velocity_coincidence"
        for T, n_owner, n_all in ((tc - 1e-3, 2, 3), (tc + 1e-3, 0, 1)):
            found = cr.kc_numeric(ow.make_symbol("whitham_st", {"T": T}), p)
            assert [r.mechanism for r in found].count(owner) == n_owner, (alpha, T, found)
            assert len(found) == n_all, (alpha, T, found)


def test_tc_without_threshold_raises_bracket_error():
    with pytest.raises(ow.BracketError, match="does not straddle") as exc:
        cr.tc_of_alpha("whitham_st", 1.0)
    assert isinstance(exc.value.__cause__, ValueError)


def test_params_from_alpha():
    p = cr.params_from_alpha(-0.4)
    assert p.beta == -1.0 and p.gamma == 0.4
    p = cr.params_from_alpha(2.5)
    assert p.beta == 1.0 and p.gamma == 2.5
    for alpha in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
            cr.params_from_alpha(alpha)
        with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
            cr.diagram("whitham_st", alpha, nk=4, nt=4)


# ----------------------------------------------------------------- diagram


def test_diagram_grid_and_labels():
    d = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=40, nt=40)
    assert d.labels.shape == (40, 40)
    assert d.region_counts == {"S": 1, "U": 2}
    assert d.t_s is None
    blocks = list(d.row_blocks())
    assert len(blocks) == 40  # one block per T row, T ascending
    assert all(list(b) == ["k", "T", "k_sqrtT", "label", "f1", "f2", "delta"] for b in blocks)
    # cell centers and the auxiliary coordinate
    assert blocks[0]["k"][0] == pytest.approx(0.025)
    assert blocks[0]["T"] == pytest.approx(0.01)
    assert all(label in ("S", "U", "degenerate") for b in blocks for label in b["label"])
    # exactly float, T-major, and k*sqrt(T) rounded as the scalar product rounds it
    for j, b in enumerate(blocks):
        assert type(b["T"]) is float and b["T"] == d.Ts[j]
        assert all(len(b[name]) == 40 for name in ("k", "k_sqrtT", "label", "f1", "f2", "delta"))
        for i in range(40):
            assert all(type(b[name][i]) is float for name in ("k", "k_sqrtT", "f1", "f2", "delta"))
            assert type(b["label"][i]) is str
            assert b["k"][i] == d.ks[i]
            assert b["k_sqrtT"][i] == d.ks[i] * math.sqrt(d.Ts[j])
            assert (b["f1"][i], b["f2"][i], b["delta"][i]) == (d.f1[j, i], d.f2[j, i], d.delta[j, i])
            assert b["label"][i] == d.labels[j, i]
    # the ks are one list for every row, so the writer spells them once
    assert all(b["k"] is blocks[0]["k"] for b in blocks)


def test_diagram_refusals():
    with pytest.raises(ValueError, match="unsupported diagram family 'kdv'"):
        cr.diagram("kdv", 1.0, nk=4, nt=4)
    with pytest.raises(ValueError, match="resolutions >= 2"):
        cr.diagram("kdv_st", 1.0, nk=1, nt=4)
    for k_max, t_max in ((math.inf, 0.8), (2.0, math.inf), (math.nan, 0.8), (2.0, math.nan), (-1.0, 0.8)):
        with pytest.raises(ValueError, match="^extents must be positive and finite and resolutions >= 2$"):
            cr.diagram("whitham_st", 0.1, k_max=k_max, t_max=t_max, nk=4, nt=4)


def test_diagram_labels_match_index_at_cell_centers():
    d = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=15, nt=15)
    for j, T in enumerate(d.Ts):
        s = ow.make_symbol("kdv_st", {"T": float(T)})
        for i, k in enumerate(d.ks):
            verdict = ow.index(s, P11, float(k)).classification
            want = {"stable": "S", "unstable": "U", "degenerate": "degenerate"}
            assert d.labels[j, i] == want[verdict]


@pytest.mark.parametrize("alpha,k_max,t_max", [(0.1, 2.0, 0.8), (-0.1, 5.0, 0.4)])
def test_whitham_st_diagram_matches_index_at_cell_centers(alpha, k_max, t_max):
    d = cr.diagram("whitham_st", alpha, k_max=k_max, t_max=t_max, nk=25, nt=25)
    p = cr.params_from_alpha(alpha)
    want = {"stable": "S", "unstable": "U", "degenerate": "degenerate"}
    assert {"S", "U"} <= set(d.labels.flat)
    for j, T in enumerate(d.Ts):
        s = ow.make_symbol("whitham_st", {"T": float(T)})
        for i, k in enumerate(d.ks):
            r = ow.index(s, p, float(k))
            assert d.labels[j, i] == want[r.classification]
            np.testing.assert_allclose(d.f1[j, i], r.f1, rtol=1e-14, atol=0)
            np.testing.assert_allclose(d.f2[j, i], r.f2, rtol=1e-14, atol=0)


def test_diagram_slice_matches_classify_intervals():
    d = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=40, nt=40)
    j = 10
    T = float(d.Ts[j])
    s = ow.make_symbol("kdv_st", {"T": T})
    ivs = cr.classify_intervals(s, P11, (float(d.ks[0]), float(d.ks[-1])))

    def interval_label(k):
        for (a, b), lab in ivs:
            if a <= k <= b:
                return lab
        raise AssertionError(k)

    for i, k in enumerate(d.ks):
        assert d.labels[j, i] == interval_label(float(k))


def test_diagram_curves_lie_on_zero_loci():
    d = cr.diagram("whitham_st", 0.1, k_max=5.0, t_max=0.4, nk=50, nt=50)
    assert len(d.f1_curve) > 0 and len(d.f2_curve) > 0
    for pts, owner in ((d.f1_curve, "f1"), (d.f2_curve, "f2")):
        for k, T in pts[:10]:
            s = ow.make_symbol("whitham_st", {"T": float(T)})
            r = ow.index(s, cr.params_from_alpha(0.1), float(k))
            val = r.f1 if owner == "f1" else r.f2
            other = r.f2 if owner == "f1" else r.f1
            assert abs(val) <= 1e-6 * (1.0 + abs(other))


def test_diagram_evaluates_the_lattice_three_times(monkeypatch):
    shapes = []
    make_symbol = cr.make_symbol

    def logged_symbol(family, params):
        s = make_symbol(family, params)

        def jet_fn(k, order):
            out = s.jet_fn(k, order)
            shapes.append(np.shape(out[0]))
            return out

        return dataclasses.replace(s, jet_fn=jet_fn)

    monkeypatch.setattr(cr, "make_symbol", logged_symbol)
    cr.diagram("whitham_st", 0.1, k_max=2.0, t_max=0.8, nk=50, nt=50)
    # m(k) and m(2k) for f1, the order-2 jet for f2; the curves scan the same values
    assert shapes.count((50, 50)) == 3


def test_diagram_curve_intersection_reported_for_negative_alpha():
    d = cr.diagram("whitham_st", -0.1, k_max=5.0, t_max=0.4, nk=40, nt=40)
    assert d.t_s == pytest.approx(0.0970, abs=2e-3)
    d = cr.diagram("whitham_st", 0.1, k_max=5.0, t_max=0.4, nk=40, nt=40)
    assert d.t_s is None


@pytest.fixture(scope="module")
def whitham_st_crossing():
    """gamma -> (k*, T*) where both numerators of whitham_st at beta = -1 vanish, to 40 digits.

    m = sqrt(g), g = u v with u = tanh(k)/k and v = 1 + T k^2; the
    numerators are 3 gamma + 4 beta k^2 (m(k) - m(2k)) and
    2 gamma + beta k^3 (k m'' + 2 m').  Newton starts from (2, 0.1) for
    every gamma; at the gammas tested, 0.02 to 3, it reaches the crossing
    the diagrams find.
    """
    mp = pytest.importorskip("mpmath")

    def jet(k, T):
        t, sech2 = mp.tanh(k), mp.sech(k) ** 2
        u, u1 = t / k, sech2 / k - t / k**2
        u2 = -2 * sech2 * t / k - 2 * sech2 / k**2 + 2 * t / k**3
        v, v1, v2 = 1 + T * k**2, 2 * T * k, 2 * T
        g, g1, g2 = u * v, u1 * v + u * v1, u2 * v + 2 * u1 * v1 + u * v2
        m = mp.sqrt(g)
        return m, g1 / (2 * m), g2 / (2 * m) - g1**2 / (4 * m**3)

    @functools.cache
    def crossing(gamma):
        beta, gamma = -1, mp.mpf(gamma)

        def numerators(k, T):
            m, m1, m2 = jet(k, T)
            return (
                3 * gamma + 4 * beta * k**2 * (m - jet(2 * k, T)[0]),
                2 * gamma + beta * k**3 * (k * m2 + 2 * m1),
            )

        with mp.workdps(40):
            k, T = mp.findroot(numerators, (mp.mpf(2), mp.mpf("0.1")))
            return float(k), float(T)

    return crossing


@pytest.mark.parametrize("n", [20, 40, 50, 100])
def test_diagram_t_s_matches_mpmath_crossing(whitham_st_crossing, n):
    d = cr.diagram("whitham_st", -0.1, k_max=5.0, t_max=0.4, nk=n, nt=n)
    assert abs(d.t_s - whitham_st_crossing("0.1")[1]) <= 1e-12


@pytest.mark.parametrize("n", [20, 40, 50, 100])
@pytest.mark.parametrize("gamma", ["0.05", "0.2", "0.5"])
def test_diagram_t_s_matches_mpmath_crossing_at_more_alphas(whitham_st_crossing, gamma, n):
    # alpha = -gamma; T_s = 0.1237, 0.0683 and 0.0338, read off the lattice both factors fill
    d = cr.diagram("whitham_st", -float(gamma), k_max=5.0, t_max=0.4, nk=n, nt=n)
    assert abs(d.t_s - whitham_st_crossing(gamma)[1]) <= 1e-12


@pytest.mark.parametrize("gamma,n", [("1", n) for n in (20, 30, 40, 50, 64, 100)] + [("0.7", 20)])
def test_diagram_t_s_near_the_lowest_rows(whitham_st_crossing, gamma, n):
    # T_s = 0.0157 and 0.0239 lie within a row or two of the lattice's bottom edge, where
    # f2's locus need not have points in the two rows around the crossing
    d = cr.diagram("whitham_st", -float(gamma), k_max=5.0, t_max=0.4, nk=n, nt=n)
    assert abs(d.t_s - whitham_st_crossing(gamma)[1]) <= 1e-12


@pytest.mark.parametrize("n", [20, 50])
def test_diagram_symbol_count(monkeypatch, n):
    # the benchmark's crossing diagram: one lattice, the lanes of both loci and one crossing solve
    calls = []
    make = cr.make_symbol
    monkeypatch.setattr(cr, "make_symbol", lambda *args: calls.append(1) or make(*args))
    d = cr.diagram("whitham_st", -0.1, k_max=5.0, t_max=0.4, nk=n, nt=n)
    assert d.t_s is not None
    assert len(calls) <= 23, len(calls)


def test_diagram_t_s_needs_no_brent_solve(monkeypatch, whitham_st_crossing):
    def refuse(*args, **kwargs):
        raise AssertionError("brentq called")

    monkeypatch.setattr(cr, "brentq", refuse)
    monkeypatch.setattr(roots, "brentq", refuse)
    d = cr.diagram("whitham_st", -0.1, k_max=5.0, t_max=0.4, nk=50, nt=50)
    assert abs(d.t_s - whitham_st_crossing("0.1")[1]) <= 1e-12


# the whitham_st scan: 12 alphas = -gamma, 5 (k_max, t_max) extents and 6 resolutions n, 360 diagrams
SCAN_GAMMAS = ("0.02", "0.05", "0.1", "0.2", "0.3", "0.5", "0.7", "1", "1.5", "2", "2.5", "3")
SCAN_EXTENTS = ((2.0, 0.8), (5.0, 0.4), (10.0, 1.0), (3.0, 0.2), (1.0, 0.8))
SCAN_N = (20, 30, 40, 50, 64, 100)


def _count_converged_solves(monkeypatch) -> list:
    """Patch ``critical._newton_kT`` to log, per call, whether it returned a root."""
    newton, converged = cr._newton_kT, []

    def counted(*args):
        hit = newton(*args)
        converged.append(hit is not None)
        return hit

    monkeypatch.setattr(cr, "_newton_kT", counted)
    return converged


def test_diagram_t_s_is_the_crossing_inside_the_lattice(monkeypatch, whitham_st_crossing):
    # t_s is the mpmath crossing (k*, T*) when the lattice's cell centres span it, else None,
    # and no diagram solves past its first converged root
    converged = _count_converged_solves(monkeypatch)
    found = 0
    for gamma in SCAN_GAMMAS:
        k_star, t_star = whitham_st_crossing(gamma)
        for k_max, t_max in SCAN_EXTENTS:
            for n in SCAN_N:
                converged.clear()
                d = cr.diagram("whitham_st", -float(gamma), k_max=k_max, t_max=t_max, nk=n, nt=n)
                where = (gamma, k_max, t_max, n, d.t_s)
                if d.ks[0] <= k_star <= d.ks[-1] and d.Ts[0] <= t_star <= d.Ts[-1]:
                    assert d.t_s is not None and abs(d.t_s - t_star) <= 1e-12, where
                    found += 1
                else:
                    assert d.t_s is None, where
                assert sum(converged) <= 1, where
    assert found == 138


def test_diagram_t_s_stops_at_a_crossing_outside_the_lattice(monkeypatch, whitham_st_crossing):
    # the loci cross at (8.3122, 0.0047174), below this lattice's lowest row T = 0.005: the
    # nearest seed's solve lands there, and the other candidate squares are not solved from
    converged = _count_converged_solves(monkeypatch)
    d = cr.diagram("whitham_st", -2.5, k_max=10.0, t_max=1.0, nk=100, nt=100)
    assert whitham_st_crossing("2.5")[1] < d.Ts[0]
    assert d.t_s is None
    assert converged == [True]


def test_diagram_t_s_none_without_crossing():
    # the loci do not cross for alpha > 0, and not below T = 0.05 for alpha = -0.1
    assert cr.diagram("whitham_st", 0.1, k_max=5.0, t_max=0.4, nk=50, nt=50).t_s is None
    assert cr.diagram("whitham_st", -0.1, k_max=5.0, t_max=0.05, nk=50, nt=50).t_s is None


def _numerators(s, p):
    return (
        lambda k: ow.harmonic_denominator(s, p, k, 2),
        lambda k: ow.group_velocity_derivative(s, p, k).numerator,
    )


def _reference_crossing(family, p, t_grid, k_window, n_probe=200):
    """T where the loci cross: a scalar solve along one locus, nested in a scalar solve."""
    grid = np.geomspace(k_window[0], k_window[1], n_probe)

    def inner(T, which):
        fs = _numerators(ow.make_symbol(family, {"T": float(T)}), p)
        return fs, next(roots.scan(fs[which], grid), None)

    for follow, other in ((1, 0), (0, 1)):

        def outer(T):
            fs, kr = inner(T, follow)
            return math.nan if kr is None else fs[other](kr)

        try:
            ts = next(roots.scan(outer, t_grid, [outer(T) for T in t_grid], xtol=1e-13), None)
        except ValueError:  # the followed curve left the window inside the cell
            return None
        if ts is not None:
            return ts
    return None


def _reference_diagram(family, alpha, k_max, t_max, n):
    """The diagram built row by row: a symbol per T row, index and roots.scan along it."""
    p = cr.params_from_alpha(alpha)
    ks = (np.arange(n) + 0.5) * (k_max / n)
    Ts = (np.arange(n) + 0.5) * (t_max / n)
    short = {"stable": "S", "unstable": "U", "degenerate": "degenerate"}
    labels, f1, f2, delta, curves = [], [], [], [], ([], [])
    for T in Ts:
        s = ow.make_symbol(family, {"T": float(T)})
        r = ow.index(s, p, ks)
        labels.append([short[c] for c in r.classification])
        f1.append(r.f1)
        f2.append(r.f2)
        delta.append(r.delta)
        for curve, f in zip(curves, _numerators(s, p)):
            curve.extend((root, float(T)) for root in roots.scan(f, ks))
    t_s = None
    if family == "whitham_st" and alpha < 0:
        t_s = _reference_crossing(family, p, Ts, (ks[0], ks[-1]))
    return np.array(labels, dtype=object), np.array(f1), np.array(f2), np.array(delta), curves, t_s


@pytest.mark.parametrize(
    "family,alpha,k_max,t_max",
    [("kdv_st", 1.0, 2.0, 0.8), ("whitham_st", 0.1, 2.0, 0.8), ("whitham_st", -0.1, 5.0, 0.4)],
)
def test_lattice_diagram_matches_row_by_row_reference(family, alpha, k_max, t_max):
    d = cr.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=50, nt=50)
    labels, f1, f2, delta, (f1_curve, f2_curve), t_s = _reference_diagram(family, alpha, k_max, t_max, 50)
    assert np.array_equal(d.labels, labels)
    for got, want in ((d.f1, f1), (d.f2, f2), (d.delta, delta)):
        assert got.tobytes() == want.tobytes()  # bit for bit
    assert len(d.f1_curve) > 0 and len(d.f2_curve) > 0
    assert d.f1_curve == f1_curve
    assert d.f2_curve == f2_curve
    assert d.t_s == t_s or abs(d.t_s - t_s) <= 1e-12
    assert (t_s is not None) == (alpha < 0)


def test_spot_check_passes_on_reference_diagram():
    d = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=40, nt=40)
    rows = cr.spot_check(d, n_cells=10, seed=1)
    assert len(rows) == 10
    assert all(r["ok"] for r in rows)
    assert {r["label"] for r in rows} <= {"S", "U"}


def test_spot_check_deterministic_per_seed():
    d = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=30, nt=30)
    r1 = cr.spot_check(d, n_cells=5, seed=7)
    r2 = cr.spot_check(d, n_cells=5, seed=7)
    assert r1 == r2


def _reference_spot_check(diag, n_cells, a=0.01, xi=1e-3, N=32, seed=0):
    """spot_check as a loop over the cells, testing one cell at a time with the scalar calls."""
    p = cr.params_from_alpha(diag.alpha)
    window = floquet_hill.default_window(p)
    order = np.random.default_rng(seed).permutation(diag.nk * diag.nt)
    modes = np.arange(-N, N + 1)
    modes = np.concatenate(([-1, 1], modes[np.abs(modes) != 1]))
    out = []
    threshold = 1e-8
    for flat in order:
        if len(out) >= n_cells:
            break
        j, i = divmod(int(flat), diag.nk)
        label = str(diag.labels[j, i])
        if label not in ("S", "U"):
            continue
        T, k = float(diag.Ts[j]), float(diag.ks[i])
        s = ow.make_symbol(diag.family, {"T": T})
        try:
            wave = ow.expand(s, p, k)
        except ow.ResonanceError:
            continue
        predicted = mi_index.growth_rate_leading(wave, a, xi)
        if label == "U" and predicted <= 10.0 * threshold:
            continue
        if mi_index.detuning_ratio(wave, a, xi) > 0.05:
            continue
        if label == "S" and predicted >= 0.1 * threshold:
            continue
        lam = np.abs(floquet_hill.unperturbed_eigenvalue(wave, modes, xi))
        if lam[:2].max() > 0.5 * window or lam[2:].min() <= 2.0 * window:
            continue
        # a batch of one wave: the windowed solve that spot_check's batch takes
        one = stokes._stokes(s, p, np.array([[k]]))[0]
        (spec,) = floquet_hill.spectrum(floquet_hill.FloquetProblem(one, a, xi, N), window)
        hill = spec.max_real_in_window
        ok = hill > threshold if label == "U" else hill <= threshold
        out.append(
            {"i": i, "j": j, "k": k, "T": T, "label": label,
             "predicted": predicted, "hill": float(hill), "ok": bool(ok)}
        )
    return out


BENCH_DIAGRAMS = [
    ("kdv_st", 1.0, 2.0, 0.8),
    ("whitham_st", 0.1, 2.0, 0.8),
    ("whitham_st", -0.1, 5.0, 0.4),
]


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("family,alpha,k_max,t_max", BENCH_DIAGRAMS)
def test_spot_check_matches_reference_loop(family, alpha, k_max, t_max, n):
    d = cr.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=n, nt=n)
    for seed in range(3):
        got = cr.spot_check(d, n_cells=20, seed=seed)
        want = _reference_spot_check(d, 20, seed=seed)
        assert len(got) == 20
        assert repr(got) == repr(want)  # bit for bit, types too


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("family,alpha,k_max,t_max", BENCH_DIAGRAMS)
def test_spot_check_dense_growth_matches_banded_solve(family, alpha, k_max, t_max, n):
    d = cr.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=n, nt=n)
    p = cr.params_from_alpha(alpha)
    window = floquet_hill.default_window(p)
    for seed in range(3):
        for row in cr.spot_check(d, n_cells=20, seed=seed):
            wave = ow.expand(ow.make_symbol(family, {"T": row["T"]}), p, row["k"])
            banded = floquet_hill.max_growth(wave, 0.01, 1e-3, N=32, window=window)
            if row["label"] == "U":
                assert abs(row["hill"] - banded) <= 1e-9 * banded
            else:
                assert row["hill"] <= 1e-8 and banded <= 1e-8


@pytest.mark.parametrize("family,alpha,k_max,t_max", BENCH_DIAGRAMS)
def test_spot_check_solves_its_picks_without_the_dense_fallback(family, alpha, k_max, t_max, monkeypatch):
    # every pick's block iteration converges and certifies its window: no wave of the
    # 50x50 spot checks takes every eigenvalue of its dense B^-1
    d = cr.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=50, nt=50)
    waves, dense_spectra = [], floquet_hill._dense_spectra

    def counted(ab, window_radius):
        waves.append(len(ab))
        return dense_spectra(ab, window_radius)

    monkeypatch.setattr(floquet_hill, "_dense_spectra", counted)
    for seed in range(3):
        assert len(cr.spot_check(d, n_cells=20, seed=seed)) == 20
    assert waves == []


@pytest.mark.parametrize("family,alpha,k_max,t_max", BENCH_DIAGRAMS)
def test_spot_check_picks_only_checkable_cells(family, alpha, k_max, t_max):
    # S cells outside the trust region see finite-amplitude growth at a = 0.01;
    # whitham_st alpha = 0.1 at 100x100 used to return cell (k=1.01, T=0.292) with ok=False
    d = cr.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=100, nt=100)
    rows = cr.spot_check(d, n_cells=10, seed=0)
    assert len(rows) == 10
    assert all(r["ok"] for r in rows)


def test_spot_check_refusals():
    d = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=20, nt=20)
    with pytest.raises(ValueError, match="cell count"):
        cr.spot_check(d, n_cells=-2)
    assert cr.spot_check(d, n_cells=0) == []
    with pytest.raises(TypeError):  # the desk scale is fixed
        cr.spot_check(d, a=0.02)
