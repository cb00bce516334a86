"""Dispersion symbols: point values, derivatives, reductions, hypotheses."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ostwave as ow
from ostwave import symbols

P11 = ow.ModelParams(beta=1.0, gamma=1.0)

ALL_BUILTINS = [
    ("kdv", None),
    ("fkdv", {"delta": 1.5}),
    ("ilw", None),
    ("whitham", None),
    ("kdv_st", {"T": 0.2}),
    ("whitham_st", {"T": 0.2}),
]


def _grid():
    return np.geomspace(0.1, 50.0, 48)


# ---------------------------------------------------------------- values


def test_kdv_point_values():
    s = ow.make_symbol("kdv")
    assert s.m(1.0) == 0.0
    assert s.m1(1.0) == -2.0
    assert s.m2(1.0) == -2.0
    assert s.m(0.0) == 1.0


def test_phase_velocity_examples():
    s = ow.make_symbol("kdv")
    assert ow.phase_velocity(s, P11, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert ow.phase_velocity(s, P11, 2.0) == pytest.approx(-2.75, abs=1e-14)


def test_phase_velocity_vanishes_at_large_k_for_decaying_symbol():
    s = ow.make_symbol("whitham")
    assert abs(ow.phase_velocity(s, P11, 1e6)) < 1e-2


def test_group_velocity_derivative_examples():
    s = ow.make_symbol("kdv")
    assert ow.group_velocity_derivative(s, P11, 1.0).value == pytest.approx(
        -4.0, abs=1e-13
    )
    assert ow.group_velocity_derivative(s, P11, 0.5).value == pytest.approx(
        13.0, abs=1e-12
    )
    kc = (1.0 / 3.0) ** 0.25
    assert abs(ow.group_velocity_derivative(s, P11, kc).value) < 1e-12


def test_group_velocity_derivative_returns_numerator():
    s = ow.make_symbol("kdv")
    out = ow.group_velocity_derivative(s, P11, 0.5)
    # value = numerator / k^3
    assert out.value == pytest.approx(out.numerator / 0.5**3, rel=1e-15)


# ---------------------------------------------------- derivative checks


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_evenness(name, params):
    s = ow.make_symbol(name, params)
    for k in _grid():
        assert s.m_even(-k) == s.m_even(k)
        assert s.m1_odd(-k) == -s.m1_odd(k)
        assert s.m2_even(-k) == s.m2_even(k)


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_array_evaluation_matches_scalar_evaluation(name, params):
    # one k evaluated alone or inside an array gives the same bits
    s = ow.make_symbol(name, params)
    ks = np.geomspace(1e-5, 50.0, 1000)
    for ev in (s.m, s.m1, s.m2):
        assert np.array_equal(ev(ks), [ev(float(k)) for k in ks])


@pytest.mark.parametrize("name", ["kdv_st", "whitham_st"])
def test_tension_lattice_matches_symbol_per_tension(name):
    # T as a column broadcasts against k: every row is the symbol at that T, bit for bit
    Ts = np.array([0.0, 0.05, 1.0 / 3.0, 0.4, 0.8])
    ks = np.geomspace(1e-5, 50.0, 300)
    lattice = symbols._tension_symbol(name, Ts[:, None])
    for ev in ("m", "m1", "m2"):
        got = getattr(lattice, ev)(ks)
        assert got.shape == (len(Ts), len(ks))
        for row, T in zip(got, Ts):
            assert row.tobytes() == getattr(ow.make_symbol(name, {"T": float(T)}), ev)(ks).tobytes()
    assert lattice.growth_exponent.ravel().tolist() == [ow.make_symbol(name, {"T": float(T)}).growth_exponent for T in Ts]


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_derivatives_match_finite_differences(name, params):
    s = ow.make_symbol(name, params)
    for k in _grid():
        # k-relative step: a fixed step is ill-conditioned for the
        # second difference once |m| ~ k^2 dwarfs h^2 in doubles
        h = 1e-4 * max(1.0, k)
        fd1 = (s.m(k + h) - s.m(k - h)) / (2 * h)
        fd2 = (s.m(k + h) - 2 * s.m(k) + s.m(k - h)) / (h * h)
        assert abs(s.m1(k) - fd1) / (1 + abs(s.m1(k))) <= 1e-6
        assert abs(s.m2(k) - fd2) / (1 + abs(s.m2(k))) <= 1e-6


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
def test_group_velocity_derivative_matches_finite_difference(name, params):
    s = ow.make_symbol(name, params)
    p = ow.ModelParams(beta=-0.7, gamma=1.3)
    h = 1e-4
    for k in np.geomspace(0.2, 20.0, 24):
        fd = (ow.group_velocity(s, p, k + h) - ow.group_velocity(s, p, k - h)) / (
            2 * h
        )
        val = ow.group_velocity_derivative(s, p, k).value
        assert abs(val - fd) / (1 + abs(val)) <= 1e-6


# ------------------------------------------------------- one evaluator

_CUT = symbols._SERIES_CUTOFF
# nonnegative k, dense on both sides of the ilw/whitham series seam
_K = st.one_of(
    st.sampled_from([0.0, _CUT, float(np.nextafter(_CUT, 0.0)), float(np.nextafter(_CUT, 1.0))]),
    st.floats(0.0, 2.0 * _CUT),
    st.floats(0.0, 60.0),
)
_JET_SYMBOLS = {
    **{name: ow.make_symbol(name, params) for name, params in ALL_BUILTINS},
    "fkdv_0.75": ow.make_symbol("fkdv", {"delta": 0.75}),
    "kdv_st_lattice": symbols._tension_symbol("kdv_st", np.array([[0.0], [0.2], [1.0 / 3.0], [0.7]])),
    "whitham_st_lattice": symbols._tension_symbol("whitham_st", np.array([[0.0], [0.05], [0.4]])),
    "custom": ow.make_symbol(
        "custom",
        {
            "m": lambda k: np.sqrt(1.0 + k * k),
            "m1": lambda k: k / np.sqrt(1.0 + k * k),
            "m2": lambda k: 1.0 / np.float_power(1.0 + k * k, 1.5),
            "growth_exponent": 1.0,
        },
    ),
}


def _bits(x):
    return type(x), np.asarray(x).shape, np.asarray(x).tobytes()


@pytest.mark.parametrize("name", _JET_SYMBOLS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ks=st.lists(_K, min_size=1, max_size=24))
def test_jet_equals_single_order_evaluators(name, ks):
    # every order of a jet is the float the single-order view gives, for
    # scalar, 1-D and 2-D k (against a column of T on the lattices),
    # whichever orders are asked for with it
    s = _JET_SYMBOLS[name]
    views = (s.m, s.m1, s.m2)
    arr = np.array(ks)
    for k in (ks[0], np.float64(ks[-1]), arr, arr[None, :]):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = [_bits(view(k)) for view in views]
            for order in (0, 1, 2):
                got = s.jet(k, order)
                assert len(got) == order + 1
                assert [_bits(v) for v in got] == want[: order + 1]


def test_jet_refuses_negative_k_and_bad_order():
    s = ow.make_symbol("whitham")
    for order in (0, 1, 2):
        with pytest.raises(ValueError, match="k >= 0"):
            s.jet(-1.0, order)
        with pytest.raises(ValueError, match="k >= 0"):
            s.jet(np.array([0.5, -1e-300]), order)
    for order in (-1, 3):
        with pytest.raises(ValueError, match="order"):
            s.jet(0.5, order)


@pytest.mark.parametrize("name,params", ALL_BUILTINS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ks=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=24))
def test_even_extension_parity_property(name, params, ks):
    s = ow.make_symbol(name, params)
    k = np.array(ks)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(s.m_even(-k), s.m_even(k), equal_nan=True)
        assert np.array_equal(s.m1_odd(-k), -s.m1_odd(k), equal_nan=True)
        assert np.array_equal(s.m2_even(-k), s.m2_even(k), equal_nan=True)


def test_series_matches_direct_evaluation_at_seam():
    # the internal small-k series (used below _SERIES_CUTOFF) must agree with
    # the direct formula where both are well-conditioned
    ilw = ow.make_symbol("ilw")
    wh = ow.make_symbol("whitham")
    for k in (0.9e-3, 0.999e-3, 1.001e-3, 1.5e-3):
        assert ilw.m(k) == pytest.approx(k / math.tanh(k), abs=1e-12)
        assert wh.m(k) == pytest.approx(math.sqrt(math.tanh(k) / k), abs=1e-12)


# the ilw/whitham symbols in 40-digit arithmetic (T = 0.2 for whitham_st)
_MP_SYMBOLS = {
    "ilw": lambda mp, k: k / mp.tanh(k),
    "whitham": lambda mp, k: mp.sqrt(mp.tanh(k) / k),
    "whitham_st": lambda mp, k: mp.sqrt(mp.tanh(k) / k * (1 + mp.mpf(0.2) * k * k)),
}


@pytest.mark.parametrize("name", _MP_SYMBOLS)
def test_series_seam_against_mpmath(name):
    # m, m' and m'' on both sides of the series seam, at it and on a log
    # grid over the range where the series or a cancelling closed form serves
    mp = pytest.importorskip("mpmath")
    s = ow.make_symbol(name, {"T": 0.2} if name == "whitham_st" else None)
    cut = symbols._SERIES_CUTOFF
    ks = np.concatenate([[np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)], np.geomspace(1e-4, 0.2, 300)])
    with mp.workdps(40):
        f = lambda k: _MP_SYMBOLS[name](mp, k)  # noqa: E731
        for order, view, bound in ((0, s.m, 1e-15), (1, s.m1, 1e-10), (2, s.m2, 1e-10)):
            want = [mp.diff(f, mp.mpf(k), order) for k in ks.tolist()]
            rel = [abs((got - w) / w) for got, w in zip(view(ks).tolist(), want)]
            worst = max(range(len(ks)), key=rel.__getitem__)
            assert rel[worst] <= bound, f"{name} order {order}: {float(rel[worst]):.2e} at k={ks[worst]!r}"


def test_large_k_overflow_safe():
    for name, params in ALL_BUILTINS:
        s = ow.make_symbol(name, params)
        vals = [s.m(1e4), s.m1(1e4), s.m2(1e4)]
        assert all(math.isfinite(v) for v in vals)


# ------------------------------------------------------------ reductions


def test_fkdv_delta2_equals_kdv_exactly():
    f = ow.make_symbol("fkdv", {"delta": 2.0})
    k = ow.make_symbol("kdv")
    for x in _grid():
        assert f.m(x) == k.m(x)
        assert f.m1(x) == k.m1(x)
        assert f.m2(x) == k.m2(x)


def test_kdv_st_t0_equals_kdv_exactly():
    f = ow.make_symbol("kdv_st", {"T": 0.0})
    k = ow.make_symbol("kdv")
    for x in _grid():
        assert f.m(x) == k.m(x)
        assert f.m1(x) == k.m1(x)
        assert f.m2(x) == k.m2(x)


# ------------------------------------------------------------ hypotheses


@pytest.mark.parametrize(
    "name,params,alpha",
    [
        ("kdv", None, 2.0),
        ("fkdv", {"delta": 1.5}, 1.5),
        ("ilw", None, 1.0),
        ("whitham", None, -0.5),
        ("kdv_st", {"T": 0.2}, 2.0),
        ("whitham_st", {"T": 0.5}, 0.5),
    ],
)
def test_hypotheses_pass_for_well_behaved_symbols(name, params, alpha):
    rep = symbols.check_hypotheses(ow.make_symbol(name, params))
    assert rep.h1_ok and rep.h2_ok and rep.h3_ok
    assert rep.alpha == pytest.approx(alpha, abs=1e-12)
    assert rep.alpha_fit == pytest.approx(alpha, abs=0.05)
    assert 0.0 < rep.c1 <= rep.c2


def test_monotonicity_hypothesis_fails_where_expected():
    # whitham_st at small tension is non-monotone between harmonics 1..3
    rep = symbols.check_hypotheses(ow.make_symbol("whitham_st", {"T": 0.2}))
    assert not rep.h3_ok
    assert set(rep.h3_violations) == {2, 3}
    assert rep.h3_first_violation is not None

    # kdv_st at T=1/3 degenerates to a constant symbol
    rep = symbols.check_hypotheses(ow.make_symbol("kdv_st", {"T": 1.0 / 3.0}))
    assert rep.alpha == 0.0
    assert not rep.h3_ok


def test_hypothesis_report_records_fit_constants():
    rep = symbols.check_hypotheses(ow.make_symbol("whitham"))
    # constants are recorded from the fit, not asserted against anything
    assert rep.c1 > 0.0
    assert rep.c2 >= rep.c1
    assert rep.kmax == 100.0
    assert rep.n_samples == 400


# ------------------------------------------------------------ validation


def test_parse_symbol_spec():
    s = ow.parse_symbol_spec("fkdv:delta=1.5")
    assert s.name == "fkdv" and s.params["delta"] == 1.5
    s = ow.parse_symbol_spec("whitham_st:T=0.2")
    assert s.name == "whitham_st" and s.params["T"] == 0.2
    assert ow.parse_symbol_spec("kdv").name == "kdv"
    with pytest.raises(ValueError):
        ow.parse_symbol_spec("nope")
    with pytest.raises(ValueError):
        ow.parse_symbol_spec("kdv:T")


def test_make_symbol_validation():
    with pytest.raises(ValueError):
        ow.make_symbol("fkdv", {"delta": 0.4})
    with pytest.raises(ValueError):
        ow.make_symbol("whitham_st", {"T": -0.1})
    with pytest.raises(ValueError):
        ow.make_symbol("unknown")


def test_custom_symbol_requires_all_derivatives():
    with pytest.raises(ValueError):
        ow.make_symbol("custom", {"m": lambda k: 1.0})
    s = ow.make_symbol(
        "custom",
        {
            "m": lambda k: 1.0 - k * k,
            "m1": lambda k: -2.0 * k,
            "m2": lambda k: -2.0,
            "alpha": 2.0,
        },
    )
    assert s.m(2.0) == -3.0


def test_model_params_validation():
    with pytest.raises(ValueError):
        ow.ModelParams(beta=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        ow.ModelParams(beta=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        ow.ModelParams(beta=1.0, gamma=-1.0)


@pytest.mark.parametrize(
    "beta,gamma",
    [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)],
)
def test_model_params_reject_non_finite(beta, gamma):
    with pytest.raises(ValueError, match="finite"):
        ow.ModelParams(beta=beta, gamma=gamma)


def test_negative_k_rejected():
    s = ow.make_symbol("kdv")
    with pytest.raises(ValueError):
        s.m(-1.0)
    with pytest.raises(ValueError):
        ow.phase_velocity(s, P11, 0.0)
    with pytest.raises(ValueError):
        ow.group_velocity(s, P11, -2.0)
