"""Dispersion symbols: point values, derivatives, reductions, hypotheses."""

from __future__ import annotations

import dataclasses
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
    lattice = ow.make_symbol(name, {"T": Ts[:, None]})
    for ev in ("m", "m1", "m2"):
        got = getattr(lattice, ev)(ks)
        assert got.shape == (len(Ts), len(ks))
        for row, T in zip(got, Ts):
            assert row.tobytes() == getattr(ow.make_symbol(name, {"T": float(T)}), ev)(ks).tobytes()
    assert lattice.growth_exponent.ravel().tolist() == [ow.make_symbol(name, {"T": float(T)}).growth_exponent for T in Ts]


_KINEMATICS = {
    "phase_velocity": ow.phase_velocity,
    "group_velocity": ow.group_velocity,
    "group_velocity_derivative": ow.group_velocity_derivative,
    "harmonic_denominator": lambda s, p, k: ow.harmonic_denominator(s, p, k, 2),
    "index": lambda s, p, k: dataclasses.astuple(ow.index(s, p, k))[1:],  # every field but k itself
}


@pytest.mark.parametrize("fn", list(_KINEMATICS))
@pytest.mark.parametrize("name", ["kdv_st", "whitham_st"])
def test_lattice_symbol_at_scalar_k_matches_one_element_k(name, fn):
    # a lattice symbol makes the result an array even at a scalar k, the same bits as at k = [k]
    s = ow.make_symbol(name, {"T": np.array([[0.05], [0.2], [0.6]])})
    p = ow.ModelParams(beta=-1.0, gamma=0.3)
    got, want = (_KINEMATICS[fn](s, p, k) for k in (1.3, [1.3]))
    got, want = (x if isinstance(x, tuple) else (x,) for x in (got, want))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b) == (3, 1)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


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
    "kdv_st_lattice": ow.make_symbol("kdv_st", {"T": np.array([[0.0], [0.2], [1.0 / 3.0], [0.7]])}),
    "whitham_st_lattice": ow.make_symbol("whitham_st", {"T": np.array([[0.0], [0.05], [0.4]])}),
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


# k lists wholly below, wholly above and straddling the ilw/whitham series cutoff, in any order
_BELOW, _ABOVE = st.floats(0.0, _CUT, exclude_max=True), st.floats(_CUT, 60.0)
_K_SIDES = st.one_of(
    st.lists(_BELOW, min_size=1, max_size=12),
    st.lists(_ABOVE, min_size=1, max_size=12),
    st.tuples(st.lists(_BELOW, min_size=1, max_size=6), st.lists(_ABOVE, min_size=1, max_size=6))
    .map(lambda sides: sides[0] + sides[1])
    .flatmap(st.permutations),
)
_SERIES_SYMBOLS = ("ilw", "whitham", "whitham_st", "whitham_st_lattice")
_SERIES_KINEMATICS = (
    ow.phase_velocity,
    lambda s, p, k: tuple(ow.group_velocity_derivative(s, p, k)),
    lambda s, p, k: (ow.harmonic_denominator(s, p, k, 2), ow.harmonic_denominator(s, p, k, 3)),
)


def _parts(x):
    return [np.asarray(v) for v in (x if isinstance(x, tuple) else (x,))]


def _each_k_alone(f, ks):
    # f over ks at once, 1-D and as a row, gives each k the bits f gives it alone (0-d)
    alone = [_parts(f(np.array(k))) for k in ks]
    for k in (ks, ks[None, :]):
        for j, part in enumerate(_parts(f(k))):
            for i, one in enumerate(alone):
                assert part[..., i].ravel().tobytes() == one[j].ravel().tobytes()


@pytest.mark.parametrize("name", _SERIES_SYMBOLS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ks=_K_SIDES)
def test_series_branch_leaves_each_k_its_bits(name, ks):
    # the series are formed only when some k is below the cutoff, yet each k gives the
    # bits it gives alone, whichever side the others lie on: at every order and through
    # the kinematics, for 0-d, 1-D and 2-D k (a row against the lattice's column of T)
    s = _JET_SYMBOLS[name]
    p = ow.ModelParams(beta=-1.0, gamma=0.3)
    arr = np.array(ks)
    with np.errstate(divide="ignore", over="ignore"):
        for order in (0, 1, 2):
            _each_k_alone(lambda k: s.jet(k, order), arr)
            for k in ks:  # a float is the same 0-d k
                assert [_bits(v) for v in s.jet(k, order)] == [_bits(v) for v in s.jet(np.array(k), order)]
        for fn in _SERIES_KINEMATICS:
            _each_k_alone(lambda k: fn(s, p, k), arr[arr > 0])


@pytest.mark.parametrize("name", _SERIES_SYMBOLS)
def test_public_accessors_refuse_negative_k(name):
    # the accessors check k once per call, with the messages they always gave
    s = _JET_SYMBOLS[name]
    for k in (-1.0, np.array([0.5, -1e-300]), np.array([[2.0, -3.0]]), math.nan, np.array([0.5, np.nan])):
        for ev in (s.m, s.m1, s.m2, lambda k: s.jet(k, 0), lambda k: s.jet(k, 2)):
            with pytest.raises(ValueError, match="^symbol evaluation requires k >= 0; use m_even for signed k$"):
                ev(k)
        for fn in _SERIES_KINEMATICS:
            with pytest.raises(ValueError, match="^wavenumber k must be positive and finite$"):
                fn(s, P11, k)


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


def test_tail_fit_needs_eight_nonzero_values():
    # exp(-k) is below 1e-12 on the whole fitted tail k in [50, 100]: no fit, so no growth verdict
    s = ow.make_symbol("custom", {"m": lambda k: np.exp(-k), "m1": lambda k: -np.exp(-k), "m2": lambda k: np.exp(-k)})
    rep = symbols.check_hypotheses(s)
    assert not rep.h2_ok
    assert math.isnan(rep.alpha_fit) and math.isnan(rep.c1) and math.isnan(rep.c2)


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
    with pytest.raises(ValueError, match="non-numeric symbol parameter 'delta=x'"):
        ow.parse_symbol_spec("fkdv:delta=x")


def test_make_symbol_validation():
    with pytest.raises(ValueError):
        ow.make_symbol("fkdv", {"delta": 0.4})
    with pytest.raises(ValueError):
        ow.make_symbol("whitham_st", {"T": -0.1})
    with pytest.raises(ValueError):
        ow.make_symbol("unknown")
    with pytest.raises(ValueError, match="fkdv requires parameter 'delta'"):
        ow.make_symbol("fkdv")


@pytest.mark.parametrize(
    "name,params",
    [("kdv", {"T": 0.5}), ("whitham", {"delta": 3.0}), ("fkdv", {"delta": 1.5, "T": 2.0}),
     ("ilw", {"T": 0.0}), ("kdv_st", {"delta": 2.0}), ("whitham_st", {"T": 0.2, "t": 0.2})],
)
def test_make_symbol_refuses_parameters_the_family_does_not_take(name, params):
    with pytest.raises(ValueError, match="takes"):
        ow.make_symbol(name, params)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,key", [("fkdv", "delta"), ("kdv_st", "T"), ("whitham_st", "T")])
def test_make_symbol_refuses_non_finite_parameters(name, key, value):
    with pytest.raises(ValueError, match="finite"):
        ow.make_symbol(name, {key: value})
    if key == "T":
        # one bad entry anywhere in a lattice column refuses the whole lattice
        with pytest.raises(ValueError, match="finite"):
            ow.make_symbol(name, {"T": np.array([[0.0], [0.2], [value], [0.5]])})


def test_make_symbol_refuses_a_lattice_entry_out_of_range():
    with pytest.raises(ValueError, match=">= 0"):
        ow.make_symbol("kdv_st", {"T": np.array([0.1, -1e-300, 0.3])})


@pytest.mark.parametrize("name", ["kdv_st", "whitham_st"])
def test_make_symbol_takes_a_list_or_tuple_as_an_array(name):
    # nested lists and tuples of T build the lattice their np.array builds, bit for bit
    ks = np.geomspace(0.1, 5.0, 7)
    want = ow.make_symbol(name, {"T": np.array([[0.05], [0.2], [0.6]])}).jet(ks, 2)
    for T in ([[0.05], [0.2], [0.6]], ((0.05,), (0.2,), (0.6,))):
        got = ow.make_symbol(name, {"T": T}).jet(ks, 2)
        assert all(g.shape == (3, 7) and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("T", [[[0.05], [0.2, 0.6]], ["0.2", "x"], (0.1, "x", 0.3), [[0.1], {}]])
def test_make_symbol_refuses_a_sequence_that_is_no_array_of_numbers(T):
    with pytest.raises(ValueError, match="kdv_st requires T a number or an array of numbers"):
        ow.make_symbol("kdv_st", {"T": T})


def test_parse_symbol_spec_refuses_a_repeated_key():
    with pytest.raises(ValueError, match="repeated"):
        ow.parse_symbol_spec("kdv_st:T=0.2,T=0.5")
    with pytest.raises(ValueError, match="repeated"):
        ow.parse_symbol_spec("fkdv:delta=1.5, delta =2")


_POWER_LAWS = [
    ("kdv", None),
    *(("fkdv", {"delta": d}) for d in (0.6, 0.75, 1.0, 1.5, 2.0, 2.5, 3.7)),
    *(("kdv_st", {"T": T}) for T in (0.0, 0.1, 0.2, 1.0 / 3.0, 0.33333333333333337, 0.5, 0.8)),
    ("kdv_st", {"T": np.array([[0.0], [0.2], [1.0 / 3.0], [0.7]])}),
]


@pytest.mark.parametrize("name,params", _POWER_LAWS)
def test_power_law_symbol_is_its_declared_c_and_d(name, params):
    # m is 1 - c k^d bit for bit, with the symbol's own (c, d)
    s = ow.make_symbol(name, params)
    c, d = s.power_law
    ks = np.random.default_rng(5).uniform(0.0, 10.0, 500)
    assert s.m(ks).tobytes() == (1.0 - c * np.power(ks, d)).tobytes()
    assert np.array_equal(s.growth_exponent, d * (np.asarray(c) != 0))


def test_power_law_declarations():
    assert ow.make_symbol("kdv").power_law == (1.0, 2.0)
    assert ow.make_symbol("fkdv", {"delta": 1.5}).power_law == (1.0, 1.5)
    assert ow.make_symbol("kdv_st", {"T": 0.2}).power_law == (1.0 - 3.0 * 0.2, 2.0)
    # 1 - 3T rounds to 0 one ulp above 1/3: m is 1 there, and the symbol grows like k^0
    assert ow.make_symbol("kdv_st", {"T": 0.33333333333333337}).growth_exponent == 0.0
    for name in ("ilw", "whitham", "whitham_st"):
        assert ow.make_symbol(name).power_law is None


def test_custom_symbol_requires_all_derivatives():
    with pytest.raises(ValueError):
        ow.make_symbol("custom", {"m": lambda k: 1.0})
    # numbers where callables belong are refused when the symbol is built, not at its first evaluation
    with pytest.raises(ValueError, match="^custom symbol requires callables m, m1, m2$"):
        ow.make_symbol("custom", {"m": 1.0, "m1": 2.0, "m2": 3.0})
    with pytest.raises(ValueError, match="^custom symbol requires callables m, m1, m2$"):
        ow.make_symbol("custom", {"m": lambda k: 1.0, "m1": lambda k: 0.0, "m2": 0.0})
    s = ow.make_symbol(
        "custom",
        {
            "m": lambda k: 1.0 - k * k,
            "m1": lambda k: -2.0 * k,
            "m2": lambda k: -2.0,
            "growth_exponent": 2.0,
        },
    )
    assert s.m(2.0) == -3.0
    assert s.growth_exponent == 2.0
    # a misspelt key is refused, not read as a growth exponent of 0
    with pytest.raises(ValueError, match="not alpha"):
        ow.make_symbol("custom", {"m": s.m, "m1": s.m1, "m2": s.m2, "alpha": 2.0})


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
