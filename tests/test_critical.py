"""Critical wavenumbers, tension thresholds, stability diagrams."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ostwave as ow
from ostwave import critical as cr
from ostwave import roots

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


def test_classify_intervals_needs_probes():
    with pytest.raises(ValueError):
        cr.classify_intervals(ow.make_symbol("kdv"), P11, (0.05, 3.0), n_probe=10)


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


def test_diagram_curve_intersection_reported_for_negative_alpha():
    d = cr.diagram("whitham_st", -0.1, k_max=5.0, t_max=0.4, nk=40, nt=40)
    assert d.t_s == pytest.approx(0.0970, abs=2e-3)
    d = cr.diagram("whitham_st", 0.1, k_max=5.0, t_max=0.4, nk=40, nt=40)
    assert d.t_s is None


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
            ts = next(roots.scan(outer, t_grid, [outer(T) for T in t_grid], xtol=1e-8), None)
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
    assert d.t_s == t_s
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
