"""Numpy-only root finding, minimisation and region counting against scipy."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage, optimize

import ostwave as ow
from ostwave import critical, roots
from ostwave.stokes import harmonic_denominator
from ostwave.symbols import group_velocity_derivative

from conftest import draw_symbol


def test_import_loads_no_scipy():
    code = "import sys, ostwave; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ow.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"


def test_spot_check_loads_no_scipy():
    # the picks are one batch problem, which floquet_hill.spectrum solves in
    # numpy; only its one-wave banded path loads scipy
    code = (
        "import sys, ostwave\n"
        "d = ostwave.diagram('kdv_st', 1.0, k_max=2.0, t_max=0.8, nk=20, nt=20)\n"
        "assert len(ostwave.spot_check(d, n_cells=5)) == 5\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ow.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"


def _factor_functions(s, p):
    return {
        "f1": lambda k: harmonic_denominator(s, p, k, 2),
        "f2": lambda k: group_velocity_derivative(s, p, k).numerator,
        "D3": lambda k: harmonic_denominator(s, p, k, 3),
    }


def _seeded_models(seed: int):
    """Per model: its name and the sign-change cells of its factor numerators
    and D_3 as (f, a, b), with random narrowings."""
    rng = np.random.default_rng(seed)
    grid = np.geomspace(1e-2, 1e2, 200)
    out = []
    for _ in range(40):
        s = draw_symbol(rng)
        p = ow.ModelParams(
            beta=float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1)),
            gamma=float(10.0 ** rng.uniform(-1, 1)),
        )
        cells = []
        for f in _factor_functions(s, p).values():
            vals = np.asarray(f(grid), dtype=float)
            for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
                lo, hi = float(grid[i]), float(grid[i + 1])
                cells.append((f, lo, hi))
                root = optimize.brentq(f, lo, hi, xtol=1e-14)
                a, b = rng.uniform(lo, root), rng.uniform(root, hi)
                if f(a) * f(b) < 0:
                    cells.append((f, a, b))
        out.append((s.name, cells))
    return out


def _seeded_brackets(seed: int):
    return [(name, f, a, b) for name, cells in _seeded_models(seed) for f, a, b in cells]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("xtol", [1e-12, 1e-8])
def test_brentq_matches_scipy_bit_for_bit(seed, xtol):
    brackets = _seeded_brackets(seed)
    assert len(brackets) >= 60
    for name, f, a, b in brackets:
        want = optimize.brentq(f, a, b, xtol=xtol)
        got = roots.brentq(f, a, b, xtol=xtol)
        assert got == want, (name, a, b)
        assert isinstance(got, float)


def test_brentq_families_covered():
    names = {b[0] for seed in (0, 1, 2) for b in _seeded_brackets(seed)}
    assert names == {"kdv", "fkdv", "ilw", "whitham", "kdv_st", "whitham_st"}


def test_brentq_returns_a_float_after_a_minimal_step():
    # ilw's root is reached by a step of the tolerance, which a numpy scalar tolerance made a numpy float
    kc = critical.kc_numeric(ow.make_symbol("ilw"), ow.ModelParams(0.1, 10.0))[0].kc
    assert type(kc) is float


def test_brentq_endpoint_root_and_errors():
    assert roots.brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert roots.brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0
    with pytest.raises(ValueError, match="different signs"):
        roots.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        roots.brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    # a step function admits only bisection: 100 halvings of 2e300 do not converge
    step = lambda x: 1.0 if x > 0.1 else -1.0  # noqa: E731
    for solve in (roots.brentq, optimize.brentq):
        with pytest.raises(RuntimeError, match="converge"):
            solve(step, -1e300, 1e300, xtol=1e-300)


def _lane_function(fns):
    """f(x) evaluating lane i's function fns[i] at x[i], one array call per distinct function."""
    ids = {}
    which = np.array([ids.setdefault(fn, len(ids)) for fn in fns])
    distinct = list(ids)

    def f(x):
        out = np.empty(len(x))
        for j, fn in enumerate(distinct):
            sel = which == j
            if sel.any():
                out[sel] = fn(x[sel])
        return out

    return f


def _one_lane(f, a, b, **kw):
    """falsi_lanes on one bracket, for a scalar-valued f and scan's solve."""
    return float(roots.falsi_lanes(lambda x: np.asarray([f(float(x[0]))]), a, b, **kw)[0])


def _tol(xtol, x):
    return xtol + 4.0 * np.finfo(float).eps * abs(x)


def _beside_a_sign_change(f, x, xtol, a, b):
    """f is 0 at x or changes sign on [x - tol, x + tol] within [a, b], tol = xtol + 4 eps |x|."""
    lo, hi = f(max(x - _tol(xtol, x), a)), f(min(x + _tol(xtol, x), b))
    return f(x) == 0 or (lo <= 0 <= hi) or (hi <= 0 <= lo)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("xtol", [1e-12, 1e-8])
def test_falsi_lanes_match_one_lane_calls_and_brentq_within_tolerance(seed, xtol):
    # all cells of a model are the lanes of one call
    for name, cells in _seeded_models(seed):
        if not cells:
            continue
        fns, a, b = zip(*cells)
        got = roots.falsi_lanes(_lane_function(fns), a, b, xtol=xtol)
        assert got.shape == (len(cells),)
        for (fn, lo, hi), root in zip(cells, got.tolist()):
            assert root == _one_lane(fn, lo, hi, xtol=xtol), (name, lo, hi)
            assert lo <= root <= hi and _beside_a_sign_change(fn, root, xtol, lo, hi), (name, lo, hi)
            assert abs(root - optimize.brentq(fn, lo, hi, xtol=xtol)) <= 2 * _tol(xtol, root), (name, lo, hi)


def test_falsi_lanes_call_f_once_a_step_with_every_lane():
    # lane 0 has an exact endpoint zero, lane 1 is linear, lanes 2-4 are cubics
    c = np.array([1.0, 0.3, 2.0, 5.0, 7.0])
    a = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    b = np.array([3.0, 1.0, 3.0, 3.0, 3.0])
    cubic = np.array([False, False, True, True, True])
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.where(cubic, x ** 3, x) - c

    got = roots.falsi_lanes(f, a, b, xtol=1e-12)
    for i in range(5):
        assert got[i] == _one_lane(lambda x: (x ** 3 if cubic[i] else x) - c[i], a[i], b[i], xtol=1e-12)
    assert got[0] == 1.0 and abs(got[1] - 0.3) <= _tol(1e-12, 0.3)
    # the a ends, the b ends, then one call a step, each with every lane; a finished lane holds its root
    assert [x.tolist() for x in calls[:2]] == [a.tolist(), b.tolist()]
    assert all(x.shape == (5,) and x[0] == 1.0 for x in calls[2:])
    assert 4 <= len(calls) - 2 <= 16
    assert [x[1] for x in calls[-2:]] == [got[1], got[1]]
    assert roots.falsi_lanes(lambda x: x, [], []).shape == (0,)


def test_falsi_lanes_errors():
    lines = lambda x: x - np.array([0.5, 5.0])  # noqa: E731
    with pytest.raises(ValueError, match="different signs"):
        roots.falsi_lanes(lines, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        roots.falsi_lanes(lambda x: np.where([False, True], math.nan, x - 0.5), [0.0, 0.0], [1.0, 1.0])
    # a NaN inside a bracket, met at a step
    with pytest.raises(ValueError, match="NaN"):
        roots.falsi_lanes(lambda x: np.where((x > 0.0) & (x < 1.0), math.nan, x - 0.5), [0.0], [1.0])
    # brackets and end values of different lengths are refused, not cut to the shortest
    for a, b, ends in (
        ([0, 0, 0], [1, 1], {}),
        ([0, 0], [1, 1, 1], {}),
        ([0, 0], [1, 1], {"fa": [-0.5, -0.5, -0.5]}),
        ([0, 0], [1, 1], {"fb": [0.5]}),
    ):
        with pytest.raises(ValueError, match="one length"):
            roots.falsi_lanes(lambda x: x - 0.5, a, b, **ends)


def test_falsi_lanes_bisect_a_step_function_after_16_steps():
    # false position on a step only halves the weight of the far end, so 16 steps leave [0, 1000] open
    calls = []

    def step(x):
        calls.append(x)
        return np.where(x > 0.1, 1.0, -1.0)

    got = roots.falsi_lanes(lambda x: np.where([True, False], step(x), x - 0.3), [0.0, 0.0], [1e3, 1.0], xtol=1e-12)
    assert 2 + 16 < len(calls) <= 2 + 100
    assert abs(got[0] - 0.1) <= _tol(1e-12, got[0]) and step(got[0] - _tol(1e-12, got[0])) == -1.0
    # the line closed within the budget, so bisecting the step lane leaves its root as a one-lane call has it
    assert got[1] == _one_lane(lambda x: x - 0.3, 0.0, 1.0, xtol=1e-12)
    # 100 halvings of 2e300 do not reach a width of 1e-300, where brentq does not converge either
    with pytest.raises(RuntimeError, match="converge"):
        roots.brentq(lambda x: float(step(x)), -1e300, 1e300, xtol=1e-300)
    with pytest.raises(RuntimeError, match="converge"):
        roots.falsi_lanes(step, [0.0, -1e300], [1.0, 1e300], xtol=1e-300)


def test_falsi_lanes_return_a_zero_width_lane_without_calling_f():
    def refuse(x):
        raise AssertionError("f called")

    assert roots.falsi_lanes(refuse, [0.25, 2.0], [0.25, 2.0], fa=[0.0, -0.0], fb=[0.0, 0.0]).tolist() == [0.25, 2.0]
    # an exact zero at a, whatever the value at b, is the lane's root
    assert roots.falsi_lanes(refuse, [0.25], [1.0], fa=[0.0], fb=[7.0]).tolist() == [0.25]
    assert roots.brentq(refuse, 0.25, 0.25, fa=0.0, fb=0.0) == 0.25


@pytest.mark.parametrize("family,alpha,k_max,t_max", [
    ("kdv_st", 1.0, 2.0, 0.8), ("whitham_st", 0.1, 2.0, 0.8), ("whitham_st", -0.1, 5.0, 0.4),
])
def test_benchmark_diagrams_close_every_lane_in_false_position(monkeypatch, family, alpha, k_max, t_max):
    # the diagram's one solve is handed its end values, so its f calls are its steps: at most 16 means
    # that no lane of these lattices reaches bisection
    solve, calls = roots.falsi_lanes, []  # the f calls of each solve

    def counted(f, *args, **kw):
        calls.append(0)

        def g(x):
            calls[-1] += 1
            return f(x)

        return solve(g, *args, **kw)

    monkeypatch.setattr(roots, "falsi_lanes", counted)
    for n in (20, 50, 100, 200):
        critical.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=n, nt=n)
    assert len(calls) == 4 and all(0 < c <= 16 for c in calls), calls


def _recorded(f, calls):
    def g(*args):
        calls.append(args)
        return f(*args)

    return g


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_brentq_given_end_values_returns_the_same_float_and_never_calls_f_there(seed):
    for name, f, a, b in _seeded_brackets(seed):
        want = optimize.brentq(f, a, b, xtol=1e-12)
        assert roots.brentq(f, a, b, xtol=1e-12) == want
        for ends in ({"fa": f(a), "fb": f(b)}, {"fa": f(a)}, {"fb": f(b)}):
            calls = []
            assert roots.brentq(_recorded(f, calls), a, b, xtol=1e-12, **ends) == want, (name, a, b)
            # an end whose value is not given is evaluated first, a before b; then only interior points
            missing = [x for x, key in ((a, "fa"), (b, "fb")) if key not in ends]
            xs = [x for x, in calls]
            assert xs[: len(missing)] == missing
            assert a not in xs[len(missing) :] and b not in xs[len(missing) :], (name, a, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_falsi_lanes_given_end_values_never_call_f_there(seed):
    for name, cells in _seeded_models(seed):
        if not cells:
            continue
        fns, a, b = zip(*cells)
        a, b, f = np.array(a), np.array(b), _lane_function(fns)
        plain, given = [], []
        want = roots.falsi_lanes(_recorded(f, plain), a, b, xtol=1e-12)
        got = roots.falsi_lanes(_recorded(f, given), a, b, xtol=1e-12, fa=f(a), fb=f(b))
        assert got.tolist() == want.tolist(), name
        # without the values the first two calls are the ends of every lane; with them, those two go
        assert [x.tolist() for x, in plain[:2]] == [a.tolist(), b.tolist()]
        assert len(given) == len(plain) - 2
        for x, in given:
            assert x.shape == a.shape and not np.any((x == a) | (x == b)), name


def test_cells_rule_along_the_last_axis():
    # one mask: the exact zeros, and the points whose cell to the next point changes sign
    vals = np.array([[1.0, 0.0, -1.0, -2.0, 3.0, math.nan, -1.0], [-1.0, -1.0, 2.0, 2.0, 0.0, 1.0, -1.0]])
    start = roots.cells(vals)
    assert start.tolist() == [[False, True, False, True, False, False, False],
                              [False, True, False, False, True, True, False]]
    assert np.array_equal(start, (vals == 0) | np.pad(vals[:, :-1] * vals[:, 1:] < 0, [(0, 0), (0, 1)]))
    for row, st in zip(vals, start):
        assert np.array_equal(roots.cells(row), st)
    assert roots.cells([2.0, -0.0, -1.0]).tolist() == [False, True, False]  # a signed zero is a zero


def test_scan_yields_zeros_and_cells_in_order():
    grid = np.linspace(-2.0, 3.0, 11)  # hits 0 and 1 exactly
    f = lambda x: (x - 0.0) * (x - 1.0) * (x - 2.25)  # noqa: E731
    found = list(roots.scan(f, grid))
    assert found[:2] == [0.0, 1.0]
    assert found[2] == pytest.approx(2.25, abs=1e-12)
    # a NaN value starts no cell, and consumption is lazy
    vals = np.where(grid > 1.5, np.nan, f(grid))
    assert list(roots.scan(f, grid, vals)) == [0.0, 1.0]
    calls = []

    def counted(x):
        calls.append(x)
        return math.sin(x)

    grid = np.linspace(0.5, 10.0, 50)
    assert next(roots.scan(counted, grid, np.sin(grid))) == pytest.approx(math.pi, abs=1e-12)
    assert all(abs(x - math.pi) < 0.5 for x in calls)


@pytest.mark.parametrize("solve", [roots.brentq, _one_lane])
def test_scan_yields_an_exact_zero_at_a_probe_as_its_float(solve):
    # zeros at an interior probe and at the last, each the zero-width bracket at its probe: f is called nowhere
    grid = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    vals = np.array([-1.0, -0.5, 0.0, 0.5, 0.0])

    def refuse(x):
        raise AssertionError("f called")

    found = list(roots.scan(refuse, grid, vals, solve=solve))
    assert found == [1.5, 3.0] and all(type(x) is float for x in found)
    # a NaN probe beside a zero does not reach the zero's bracket
    vals = np.array([-1.0, -0.5, 0.0, math.nan, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(roots.scan(refuse, grid, vals, solve=solve)) == [1.5]


def test_scan_warns_of_a_sign_change_across_a_nan_probe():
    grid = np.linspace(0.0, 1.0, 11)

    def f(x):  # NaN at the probe 0.5, beside the root 0.55
        return np.where(x == grid[5], math.nan, x - 0.55)

    with pytest.warns(RuntimeWarning, match=r"in \(0\.4, 0\.6\)") as caught:
        assert list(roots.scan(f, grid)) == []
    assert len(caught) == 1
    # a NaN beside no sign change, or at an end, says nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nan_at in (2, 0, 10):
            vals = np.where(grid == grid[nan_at], math.nan, grid - 0.55)
            assert list(roots.scan(lambda x: x - 0.55, grid, vals)) == [pytest.approx(0.55, abs=1e-12)]


def test_minimize_scalar_finds_interior_minimum():
    f = lambda x: (x - 0.3) ** 2 - 1e-9  # noqa: E731
    assert roots.minimize_scalar(f, np.geomspace(1e-2, 1e2, 600)) < 0.0
    assert roots.minimize_scalar(lambda x: x, np.linspace(1.0, 2.0, 5)) == 1.0


def test_minimize_scalar_on_one_point_has_nothing_to_zoom():
    calls = []
    assert roots.minimize_scalar(lambda x: calls.append(x) or 3.0 * x, [2.0]) == 6.0
    assert len(calls) == 1


def _random_masks(rng):
    for shape in ((1, 40), (40, 1), (1, 1), (17, 23), (50, 50), (100, 100)):
        for density in (0.0, 0.3, 0.5, 0.6, 1.0):
            yield rng.random(shape) < density
        yield np.indices(shape).sum(axis=0) % 2 == 0  # a checkerboard: corners do not connect
    for _ in range(20):
        shape = tuple(rng.integers(1, 30, size=2))
        yield rng.random(shape) < rng.uniform(0.2, 0.8)


def test_region_counts_match_ndimage_label():
    rng = np.random.default_rng(11)
    for mask in _random_masks(rng):
        labels = np.where(mask, "S", "U").astype(object)
        want = {lab: ndimage.label(labels == lab)[1] for lab in ("S", "U")}
        assert critical._region_counts(labels) == want, mask.shape


_COEF = st.floats(-10.0, 10.0, allow_nan=False)
_END = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    draws=st.lists(st.tuples(_COEF, _COEF, _COEF, _COEF, _END, _END), min_size=1, max_size=8),
    xtol=st.sampled_from([1e-12, 1e-8, 1e-3]),
)
@example(draws=[(0.0, 0.0, 0.0, 1.0, -1.0, 2.0), (0.0, 0.0, 0.0, -4.0, -2.0, 3.0)], xtol=1e-12)  # brentq raises
def test_falsi_lanes_match_one_lane_calls_on_random_cubics(draws, xtol):
    def cubic(c, x):
        return c[0] + x * (c[1] + x * (c[2] + x * c[3]))

    def solve_lanes(lanes):
        coef = np.array([c for c, _, _ in lanes]).T
        a, b = [lane[1] for lane in lanes], [lane[2] for lane in lanes]
        return roots.falsi_lanes(lambda x: cubic(coef, x), a, b, xtol=xtol)

    lanes = []
    for *c, a, b in draws:
        a, b = min(a, b), max(a, b)
        fa, fb = cubic(c, a), cubic(c, b)
        if not (a < b and (fa == 0.0 or fb == 0.0 or (fa < 0.0) != (fb < 0.0))):
            continue
        try:
            want = roots.brentq(lambda x: cubic(c, x), a, b, xtol=xtol)
        except RuntimeError:  # e.g. a triple root: the lane bisects to a root all the same
            want = None
        (got,) = solve_lanes([(c, a, b)]).tolist()
        assert a <= got <= b and _beside_a_sign_change(lambda x: cubic(c, x), got, xtol, a, b)
        assert want is None or abs(got - want) <= 2 * _tol(xtol, got)
        lanes.append((c, a, b, got))
    assume(lanes)
    assert solve_lanes([lane[:3] for lane in lanes]).tolist() == [got for *_, got in lanes]
