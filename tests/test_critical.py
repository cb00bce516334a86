"""Critical wavenumbers, tension thresholds, stability diagrams."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ostwave as ow
from ostwave import critical as cr
from ostwave import floquet_hill, mi_index, roots

P11 = ow.ModelParams(beta=1.0, gamma=1.0)
PN1 = ow.ModelParams(beta=-1.0, gamma=1.0)


# ------------------------------------------------------------ closed form


def test_kdv_closed_form_both_signs():
    r = cr.kc_closed_form("kdv", P11)
    assert r.kc == pytest.approx(3.0**-0.25, rel=1e-14)
    assert r.mechanism == "group_velocity_extremum"
    assert r.method == "closed_form"
    r = cr.kc_closed_form("kdv", PN1)
    assert r.kc == pytest.approx(0.25**0.25, rel=1e-14)
    assert r.mechanism == "phase_velocity_coincidence"


def test_kc_scales_with_parameters():
    # kc = (gamma/(3 beta))^{1/4} for beta > 0
    r = cr.kc_closed_form("kdv", ow.ModelParams(beta=2.0, gamma=0.5))
    assert r.kc == pytest.approx((0.5 / 6.0) ** 0.25, rel=1e-14)


def test_fkdv_closed_form():
    r = cr.kc_closed_form("fkdv", P11, {"delta": 1.5})
    want = (2.0 / (1.5 * 2.5)) ** (1.0 / 3.5)
    assert r.kc == pytest.approx(want, rel=1e-14)
    assert r.params["delta"] == 1.5
    r = cr.kc_closed_form("fkdv", PN1, {"delta": 1.5})
    want = (3.0 / (4.0 * (2.0**1.5 - 1.0))) ** (1.0 / 3.5)
    assert r.kc == pytest.approx(want, rel=1e-14)


def test_fkdv_delta2_reduces_to_kdv():
    for p in (P11, PN1):
        assert cr.kc_closed_form("fkdv", p, {"delta": 2.0}).kc == pytest.approx(
            cr.kc_closed_form("kdv", p).kc, abs=1e-12
        )


def test_kdv_st_closed_form():
    # effective quadratic coefficient flips sign at T = 1/3
    r = cr.kc_closed_form("kdv_st", P11, {"T": 2.0 / 3.0})
    assert r.kc == pytest.approx(0.25**0.25, rel=1e-14)
    assert r.mechanism == "phase_velocity_coincidence"
    r = cr.kc_closed_form("kdv_st", P11, {"T": 0.1})
    assert r.kc == pytest.approx((1.0 / (3.0 * 0.7)) ** 0.25, rel=1e-14)
    assert r.mechanism == "group_velocity_extremum"
    assert cr.kc_closed_form("kdv_st", P11, {"T": 0.0}).kc == pytest.approx(
        cr.kc_closed_form("kdv", P11).kc, abs=1e-12
    )


def test_kdv_st_inconclusive_near_one_third():
    with pytest.raises(ow.InconclusiveError):
        cr.kc_closed_form("kdv_st", P11, {"T": 1.0 / 3.0})
    with pytest.raises(ow.InconclusiveError):
        cr.kc_closed_form("kdv_st", P11, {"T": 0.333333})


def test_unsupported_model_rejected():
    with pytest.raises(ValueError):
        cr.kc_closed_form("ilw", P11)


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
        closed = cr.kc_closed_form("kdv", p).kc
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
    closed = cr.kc_closed_form(model, p, extra)
    assume(0.05 < closed.kc < 20.0)  # well inside kc_numeric's bracket (0.01, 100)
    (numeric,) = cr.kc_numeric(ow.make_symbol(model, extra), p)
    assert numeric.mechanism == closed.mechanism
    assert numeric.kc == pytest.approx(closed.kc, rel=1e-9, abs=0)


def test_numeric_no_root_raises():
    with pytest.raises(ow.NoRootError):
        cr.kc_numeric(ow.make_symbol("kdv"), P11, bracket=(1.5, 2.5))


def test_closed_form_sign_change():
    for model, p, extra in [
        ("kdv", P11, None),
        ("kdv", PN1, None),
        ("fkdv", P11, {"delta": 1.5}),
        ("kdv_st", P11, {"T": 0.6}),
    ]:
        r = cr.kc_closed_form(model, p, extra)
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


# --------------------------------------------------------------- threshold


def test_tc_whitham_st_reference_values():
    assert cr.tc_of_alpha("whitham_st", 0.1) == pytest.approx(0.132, abs=5e-3)
    assert cr.tc_of_alpha("whitham_st", -0.1) == pytest.approx(0.141, abs=5e-3)


def test_tc_kdv_st_is_one_third():
    assert cr.tc_of_alpha("kdv_st", 0.7) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cr.tc_of_alpha("kdv_st", -2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_tc_monotone_refinement():
    coarse = cr.tc_of_alpha("whitham_st", 0.1, tol=0.01)
    fine = cr.tc_of_alpha("whitham_st", 0.1, tol=0.001)
    assert abs(coarse - fine) <= 0.01


def test_tc_validation():
    with pytest.raises(ValueError):
        cr.tc_of_alpha("whitham_st", 0.0)
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


@pytest.mark.parametrize("alpha, k0, T0", [(0.1, 1.2, 0.13), (-0.1, 1.23, 0.14)])
def test_tc_matches_mpmath_double_root(alpha, k0, T0):
    # at T_c the owner's pair of zeros merges into a double root in k
    k, T = _owner_double_root(alpha, k0, T0)
    assert 1.0 < float(k) < 1.5
    assert cr.tc_of_alpha("whitham_st", alpha, tol=1e-10) == pytest.approx(float(T), abs=1e-9)


@pytest.mark.parametrize("tol", [1e-2, 5e-3, 1e-3])
def test_tc_evaluation_count(monkeypatch, tol):
    # the alphas of the benchmark's threshold searches
    alphas = (0.02, -0.02, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.5, -0.5)
    calls = []
    minimize = cr.minimize_scalar
    monkeypatch.setattr(cr, "minimize_scalar", lambda f, grid: calls.append(1) or minimize(f, grid))
    counts = []
    for alpha in alphas:
        calls.clear()
        cr.tc_of_alpha("whitham_st", alpha, tol=tol)
        counts.append(len(calls))
    # a bisection of [0.01, 0.9] down to a bracket of width tol: both ends, then the halvings
    bisection = 2 + math.ceil(math.log2(0.89 / tol))
    assert sum(counts) <= len(alphas) * bisection, counts
    # Brent stops at a bracket of width tol/2, one halving further
    assert max(counts) <= bisection + 1, counts


def test_tc_without_threshold_raises_bracket_error():
    with pytest.raises(ow.BracketError, match="does not straddle") as exc:
        cr.tc_of_alpha("whitham_st", 1.0)
    assert isinstance(exc.value.__cause__, ValueError)


def test_params_from_alpha():
    p = cr.params_from_alpha(-0.4)
    assert p.beta == -1.0 and p.gamma == 0.4
    p = cr.params_from_alpha(2.5)
    assert p.beta == 1.0 and p.gamma == 2.5
    with pytest.raises(ValueError):
        cr.params_from_alpha(0.0)


# ----------------------------------------------------------------- diagram


def test_diagram_grid_and_labels():
    d = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=40, nt=40)
    assert d.labels.shape == (40, 40)
    assert d.region_counts == {"S": 1, "U": 2}
    assert d.t_s is None
    rec = d.to_records()
    assert len(rec) == 1600
    # cell centers and the auxiliary coordinate
    assert rec[0]["k"] == pytest.approx(0.025)
    assert rec[0]["T"] == pytest.approx(0.01)
    assert rec[0]["k_sqrtT"] == pytest.approx(0.025 * np.sqrt(0.01))
    assert all(r["label"] in ("S", "U", "degenerate") for r in rec)


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
    tension_symbol = cr._tension_symbol

    def logged_symbol(family, T):
        s = tension_symbol(family, T)

        def jet_fn(k, order):
            out = s.jet_fn(k, order)
            shapes.append(np.shape(out[0]))
            return out

        return dataclasses.replace(s, jet_fn=jet_fn)

    monkeypatch.setattr(cr, "_tension_symbol", logged_symbol)
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
    """(k*, T*) where both numerators of whitham_st at beta = -1, gamma = 0.1 vanish, to 40 digits.

    m = sqrt(g), g = u v with u = tanh(k)/k and v = 1 + T k^2; the
    numerators are 3 gamma + 4 beta k^2 (m(k) - m(2k)) and
    2 gamma + beta k^3 (k m'' + 2 m').
    """
    mp = pytest.importorskip("mpmath")
    beta, gamma = -1, mp.mpf("0.1")

    def jet(k, T):
        t, sech2 = mp.tanh(k), mp.sech(k) ** 2
        u, u1 = t / k, sech2 / k - t / k**2
        u2 = -2 * sech2 * t / k - 2 * sech2 / k**2 + 2 * t / k**3
        v, v1, v2 = 1 + T * k**2, 2 * T * k, 2 * T
        g, g1, g2 = u * v, u1 * v + u * v1, u2 * v + 2 * u1 * v1 + u * v2
        m = mp.sqrt(g)
        return m, g1 / (2 * m), g2 / (2 * m) - g1**2 / (4 * m**3)

    def numerators(k, T):
        m, m1, m2 = jet(k, T)
        return (
            3 * gamma + 4 * beta * k**2 * (m - jet(2 * k, T)[0]),
            2 * gamma + beta * k**3 * (k * m2 + 2 * m1),
        )

    with mp.workdps(40):
        k, T = mp.findroot(numerators, (mp.mpf(2), mp.mpf("0.1")))
        return float(k), float(T)


@pytest.mark.parametrize("n", [20, 40, 50, 100])
def test_diagram_t_s_matches_mpmath_crossing(whitham_st_crossing, n):
    d = cr.diagram("whitham_st", -0.1, k_max=5.0, t_max=0.4, nk=n, nt=n)
    assert abs(d.t_s - whitham_st_crossing[1]) <= 1e-12


def test_diagram_t_s_needs_no_brent_solve(monkeypatch, whitham_st_crossing):
    def refuse(*args, **kwargs):
        raise AssertionError("brentq called")

    monkeypatch.setattr(cr, "brentq", refuse)
    monkeypatch.setattr(roots, "brentq", refuse)
    d = cr.diagram("whitham_st", -0.1, k_max=5.0, t_max=0.4, nk=50, nt=50)
    assert abs(d.t_s - whitham_st_crossing[1]) <= 1e-12


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
        hill = floquet_hill.max_growth(wave, a, xi, N=N, window=window)
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
    with pytest.raises(ValueError, match="amplitude"):
        cr.spot_check(d, n_cells=2, a=1.5 * mi_index.A_BOUND)
    with pytest.raises(ValueError, match="sideband offset"):
        cr.spot_check(d, n_cells=2, xi=-1.5 * mi_index.XI_BOUND)
    with pytest.raises(ValueError, match="cell count"):
        cr.spot_check(d, n_cells=-2)
    assert cr.spot_check(d, n_cells=0) == []


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"xi": 0.0}, "xi"),
        ({"xi": -1e-3}, "xi"),
        ({"a": math.nan}, "amplitude"),
        ({"N": 4}, "truncation N"),
    ],
)
def test_spot_check_refuses_before_screening(monkeypatch, kwargs, message):
    d = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=20, nt=20)

    def screened(*args):
        raise AssertionError("a batch was screened")

    monkeypatch.setattr(cr, "_stokes", screened)
    with pytest.raises(ValueError, match=message):
        cr.spot_check(d, n_cells=2, **kwargs)
