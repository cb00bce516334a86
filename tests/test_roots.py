"""Numpy-only root finding, minimisation and region counting against scipy."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    """f(x, lanes) evaluating lane i's function fns[i], one array call per distinct function."""
    ids = {}
    which = np.array([ids.setdefault(fn, len(ids)) for fn in fns])
    distinct = list(ids)

    def f(x, lanes):
        out = np.empty(len(x))
        for j, fn in enumerate(distinct):
            sel = which[lanes] == j
            if sel.any():
                out[sel] = fn(x[sel])
        return out

    return f


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("xtol", [1e-12, 1e-8])
def test_brentq_lanes_match_brentq_and_scipy_in_every_lane(seed, xtol):
    # all cells of a model are the lanes of one call
    for name, cells in _seeded_models(seed):
        if not cells:
            continue
        fns, a, b = zip(*cells)
        got = roots.brentq_lanes(_lane_function(fns), a, b, xtol=xtol)
        assert got.shape == (len(cells),)
        for (fn, lo, hi), root in zip(cells, got.tolist()):
            assert root == roots.brentq(fn, lo, hi, xtol=xtol), (name, lo, hi)
            assert root == optimize.brentq(fn, lo, hi, xtol=xtol), (name, lo, hi)


def test_brentq_lanes_finish_at_their_own_steps():
    # lane 0 has an exact endpoint zero, lane 1 is linear, lanes 2-4 are cubics
    c = np.array([1.0, 0.3, 2.0, 5.0, 7.0])
    a = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    b = np.array([3.0, 1.0, 3.0, 3.0, 3.0])
    shapes = [lambda x, c: x - c, lambda x, c: x - c] + [lambda x, c: x ** 3 - c] * 3
    live = []

    def f(x, lanes):
        live.append(lanes.tolist())
        return np.array([shapes[i](xi, c[i]) for xi, i in zip(x, lanes)])

    got = roots.brentq_lanes(f, a, b, xtol=1e-12)
    for i in range(5):
        assert got[i] == roots.brentq(lambda x: shapes[i](x, c[i]), a[i], b[i], xtol=1e-12)
    assert got[0] == 1.0
    # both endpoints of every lane are evaluated before any lane can leave
    assert live[0] == live[1] == [0, 1, 2, 3, 4]
    assert 0 not in live[2]
    sizes = [len(lanes) for lanes in live]
    assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) >= 3
    assert roots.brentq_lanes(f, [], []).shape == (0,)


def test_brentq_lanes_errors():
    lines = lambda x, lanes: x - np.array([0.5, 5.0])[lanes]  # noqa: E731
    with pytest.raises(ValueError, match="different signs"):
        roots.brentq_lanes(lines, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        roots.brentq_lanes(lambda x, lanes: np.where(lanes == 1, math.nan, x - 0.5), [0.0, 0.0], [1.0, 1.0])
    step = lambda x, lanes: np.where(x > 0.1, 1.0, -1.0)  # noqa: E731
    with pytest.raises(RuntimeError, match="converge"):
        roots.brentq_lanes(step, [0.0, -1e300], [1.0, 1e300], xtol=1e-300)


def test_cells_rule_along_the_last_axis():
    vals = np.array([[1.0, 0.0, -1.0, -2.0, 3.0, math.nan, -1.0], [-1.0, -1.0, 2.0, 2.0, 0.0, 1.0, -1.0]])
    zero, start = roots.cells(vals)
    assert zero.tolist() == [[False, True, False, False, False, False, False],
                             [False, False, False, False, True, False, False]]
    assert start.tolist() == [[False, True, False, True, False, False, False],
                              [False, True, False, False, True, True, False]]
    for row, z, st in zip(vals, zero, start):
        assert np.array_equal(roots.cells(row)[1], st) and np.array_equal(roots.cells(row)[0], z)


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
def test_brentq_lanes_match_brentq_on_random_cubics(draws, xtol):
    def cubic(c, x):
        return c[0] + x * (c[1] + x * (c[2] + x * c[3]))

    def solve_lanes(lanes):
        coef = np.array([c for c, _, _, _ in lanes]).T
        a, b = [lane[1] for lane in lanes], [lane[2] for lane in lanes]
        return roots.brentq_lanes(lambda x, live: cubic(coef[:, live], x), a, b, xtol=xtol)

    lanes = []
    for *c, a, b in draws:
        a, b = min(a, b), max(a, b)
        fa, fb = cubic(c, a), cubic(c, b)
        if not (a < b and (fa == 0.0 or fb == 0.0 or (fa < 0.0) != (fb < 0.0))):
            continue
        try:
            want = roots.brentq(lambda x: cubic(c, x), a, b, xtol=xtol)
        except RuntimeError:  # e.g. a triple root: the lane fails the same way
            with pytest.raises(RuntimeError, match="converge"):
                solve_lanes([(c, a, b, None)])
            continue
        lanes.append((c, a, b, want))
    assume(lanes)
    assert solve_lanes(lanes).tolist() == [want for *_, want in lanes]
