"""Spectral oracle: assembly structure, exactness, oracle agreement."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import ostwave as ow
from ostwave import floquet_hill as fh
from ostwave import stokes
from conftest import (
    DESK_A,
    DESK_N,
    DESK_XI,
    draw_hill_ready,
    draw_model,
    draw_unstable_trusted,
    trusted,
    try_expand,
    window_isolates,
)

P11 = ow.ModelParams(beta=1.0, gamma=1.0)


def _kdv_wave(k: float = 1.0) -> ow.StokesWave:
    return ow.expand(ow.make_symbol("kdv"), P11, k)


# -------------------------------------------------------------- assembly


def test_assemble_shapes_and_diagonal():
    prob = fh.FloquetProblem(_kdv_wave(), 0.01, 0.1, 16)
    L, D = fh.assemble(prob)
    assert L.shape == (33, 33) and D.shape == (33, 33)
    nu = np.arange(-16, 17) + 0.1
    assert np.allclose(np.diag(D), 1j * nu)
    assert np.count_nonzero(D - np.diag(np.diag(D))) == 0


def test_band_structure_three_harmonics():
    prob = fh.FloquetProblem(_kdv_wave(), 0.01, 0.1, 12)
    L, _ = fh.assemble(prob)
    off = L - np.diag(np.diag(L))
    n = L.shape[0]
    rows, cols = np.nonzero(off)
    assert set(abs(rows - cols)) == {1, 2, 3}
    # every entry on bands 1..3 away from the truncation edge is filled
    for j in (1, 2, 3):
        band = np.diag(off, k=j)
        assert np.count_nonzero(band) == n - j


def test_entries_real_and_band_symmetric():
    # real even profile + even symbol make every entry real, and the
    # two bands at +-j of a given row carry the same profile coefficient
    prob = fh.FloquetProblem(_kdv_wave(), 0.01, 0.3, 10)
    L, _ = fh.assemble(prob)
    assert np.all(L.imag == 0.0)
    n = L.shape[0]
    for i in range(3, n - 3):
        for j in (1, 2, 3):
            assert L[i, i + j] == pytest.approx(L[i, i - j], rel=1e-15)


def test_dense_matrix_from_bands_matches_gather_reference():
    # the diagonal assignment against a gather of ab[M + i - j, j] inside the band, bit for bit
    def gathered(ab):
        M, n = ab.shape[-2] // 2, ab.shape[-1]
        i, j = np.indices((n, n))
        return np.where(np.abs(i - j) <= M, ab[..., np.clip(M + i - j, 0, 2 * M), j], 0.0)

    rng = np.random.default_rng(5)
    for shape in [(7, 17), (7, 65), (20, 7, 65), (2, 3, 7, 9), (0, 7, 17), (3, 9), (5, 3)]:
        ab = rng.standard_normal(shape)
        got, want = fh._dense(ab), gathered(ab)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), shape
    prob = fh.FloquetProblem(_kdv_wave(), DESK_A, DESK_XI, DESK_N)
    ab = fh._bands(prob)[1]
    assert fh._dense(ab).tobytes() == gathered(ab).tobytes()


def test_zero_amplitude_diagonal_and_closed_form():
    w = _kdv_wave()
    prob = fh.FloquetProblem(w, 0.0, 0.1, 32)
    L, _ = fh.assemble(prob)
    assert np.count_nonzero(L - np.diag(np.diag(L))) == 0
    spec = fh.spectrum(prob, 1.0)
    assert spec.max_real_in_window <= 1e-10
    # window radius 1 captures exactly the two sideband branches
    assert len(spec.eigenvalues) == 2
    exact = sorted(
        (fh.unperturbed_eigenvalue(w, -1, 0.1), fh.unperturbed_eigenvalue(w, 1, 0.1)),
        key=lambda z: z.imag,
    )
    got = sorted(spec.eigenvalues, key=lambda z: z.imag)
    for g, e in zip(got, exact):
        assert abs(g - e) <= 1e-10


def test_unperturbed_eigenvalue_formula():
    w = _kdv_wave(0.8)
    s, p, k = w.symbol, w.params, w.k
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(-8, 9))
        xi = float(rng.uniform(0.01, 0.5))
        nu = n + xi
        want = 1j * (
            p.gamma * (nu - 1.0 / nu)
            + p.beta * k * k * nu * (s.m(k) - s.m_even(k * nu))
        )
        assert fh.unperturbed_eigenvalue(w, n, xi) == pytest.approx(want, rel=1e-13)


def test_unperturbed_eigenvalue_array_matches_scalar():
    # an array of n gives the scalar values bit for bit; a scalar n a complex
    rng = np.random.default_rng(11)
    n = np.arange(-32, 33)
    done = 0
    while done < 30:
        s, p, k = draw_model(rng)
        wave = try_expand(s, p, k)
        if wave is None:
            continue
        xi = float(rng.uniform(0.01, 0.5))
        got = fh.unperturbed_eigenvalue(wave, n, xi)
        want = [fh.unperturbed_eigenvalue(wave, int(m), xi) for m in n]
        assert all(type(z) is complex for z in want)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64)), s.name
        done += 1
    with pytest.raises(ValueError):
        fh.unperturbed_eigenvalue(_kdv_wave(), np.arange(-2, 3), 0.0)


# -------------------------------------------------------------- spectrum


def test_instability_detected_above_critical():
    g = fh.max_growth(_kdv_wave(1.0), 0.01, 0.001, N=32)
    assert g > 1e-8


def test_stability_below_critical():
    g = fh.max_growth(_kdv_wave(0.5), 0.01, 0.001, N=32, window=0.25)
    assert g <= 1e-8


def test_offaxis_eigenvalues_pair_up():
    # unstable eigenvalues come in (lambda, -conj lambda) pairs
    prob = fh.FloquetProblem(_kdv_wave(1.0), 0.01, 0.001, 32)
    spec = fh.spectrum(prob, fh.default_window(P11))
    off = [z for z in spec.eigenvalues if abs(z.real) > 1e-10]
    assert off, "expected off-axis spectrum on the unstable side"
    for z in off:
        partner = min(off, key=lambda y: abs(y - (-z.conjugate())))
        assert abs(partner - (-z.conjugate())) <= 1e-12


def test_eigenvalues_sorted_deterministically():
    prob = fh.FloquetProblem(_kdv_wave(1.0), 0.01, 0.001, 32)
    s1 = fh.spectrum(prob, 0.25)
    s2 = fh.spectrum(prob, 0.25)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    keys = [(z.real, z.imag) for z in s1.eigenvalues]
    assert keys == sorted(keys)


def test_bilinear_scaling_on_halving():
    w = _kdv_wave(1.0)
    g = fh.max_growth(w, 0.01, 0.001, N=32)
    g_half = fh.max_growth(w, 0.005, 0.0005, N=32)
    assert g_half / g == pytest.approx(0.25, rel=0.20)


def test_truncation_insensitivity():
    w = _kdv_wave(1.0)
    g32 = fh.max_growth(w, 0.01, 0.001, N=32)
    g64 = fh.max_growth(w, 0.01, 0.001, N=64)
    assert abs(g64 - g32) < 1e-8


def test_convergence_study_table():
    w = _kdv_wave(1.0)
    rows = fh.convergence_study(w, 0.01, 0.001, [8, 16, 32, 64])
    assert [r["N"] for r in rows] == [8, 16, 32, 64]
    assert rows[0]["diff"] is None
    diffs = [r["diff"] for r in rows[1:]]
    # successive differences shrink until they sit at solver noise
    noise = 1e-12
    for prev, nxt in zip(diffs, diffs[1:]):
        assert nxt <= max(prev, noise)
    assert diffs[-1] < noise


def test_convergence_study_refuses_descending_sizes():
    with pytest.raises(ValueError, match="ascending"):
        fh.convergence_study(_kdv_wave(1.0), 0.01, 0.001, [32, 16])


def test_convergence_study_zero_amplitude_all_zero():
    rows = fh.convergence_study(_kdv_wave(1.0), 0.0, 0.001, [8, 16, 32])
    assert all(r["max_growth"] == 0.0 for r in rows)


def test_convergence_whitham_by_32():
    w = ow.expand(ow.make_symbol("whitham"), P11, 0.5)
    rows = fh.convergence_study(w, 0.01, 0.001, [32, 64])
    assert abs(rows[1]["max_growth"] - rows[0]["max_growth"]) < 1e-10


def test_problem_validation():
    w = _kdv_wave()
    for bad_xi in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            fh.FloquetProblem(w, 0.01, bad_xi, 32)
    with pytest.raises(ValueError):
        fh.FloquetProblem(w, 0.01, 0.1, 4)
    with pytest.raises(ValueError):
        fh.FloquetProblem(w, 0.2, 0.1, 32)
    for bad_a in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            fh.FloquetProblem(w, bad_a, 0.1, 32)
    for bad_N in (32.5, 32.0, "32"):
        with pytest.raises(ValueError, match="integer"):
            fh.FloquetProblem(w, 0.01, 0.1, bad_N)
    assert fh.FloquetProblem(w, 0.01, 0.1, np.int64(32)).N == 32


def test_spectrum_refuses_a_non_positive_window():
    prob = fh.FloquetProblem(_kdv_wave(), 0.01, 0.001)
    for window in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="window_radius must be positive"):
            fh.spectrum(prob, window)


def test_default_window():
    assert fh.default_window(P11) == 0.25
    assert fh.default_window(ow.ModelParams(2.0, 0.4)) == 0.1
    assert fh.default_window(ow.ModelParams(2.0, 3.0)) == 0.25


def _dense_reference(prob, window):
    """Window eigenvalues of -D^{-1} L from a dense solve of assemble's pencil."""
    L, D = fh.assemble(prob)
    A = -L / np.diag(D)[:, None]
    eig = np.linalg.eigvals(A)
    return eig[np.abs(eig) <= window], A


def test_banded_solve_matches_dense_reference():
    # the dense QR solve is accurate only to about eps * |A| absolute,
    # which put growth rates near 2e-6 off by up to 8e-7 relative in 600
    # seeded draws; the growth comparison allows 100 eps |A|_1 for it on
    # top of 1e-8 relative (the extended-precision test below holds the
    # banded solve itself to 1e-9 relative)
    rng = np.random.default_rng(4242)
    n_unstable = 0
    for _ in range(20):
        for N in (32, 64):
            s, p, k, wave, window = draw_hill_ready(rng)
            prob = fh.FloquetProblem(wave, DESK_A, DESK_XI, N)
            ref, A = _dense_reference(prob, window)
            spec = fh.spectrum(prob, window)
            assert len(spec.eigenvalues) == len(ref), (s.name, p, k, N)
            for z in ref:
                assert np.min(np.abs(spec.eigenvalues - z)) <= 1e-9 * window
            g = float(np.max(np.abs(ref.real))) if ref.size else 0.0
            noise = 100 * np.finfo(float).eps * np.linalg.norm(A, 1)
            assert abs(spec.max_real_in_window - g) <= 1e-8 * g + noise, (s.name, p, k, N)
            n_unstable += g > 1e-8
    assert n_unstable >= 5


def test_banded_solve_matches_extended_precision():
    # growth of a desk-scale unstable kdv model against a 20-digit
    # eigen-solve of the same pencil
    mp = pytest.importorskip("mpmath")
    w = ow.expand(ow.make_symbol("kdv"), ow.ModelParams(0.7546696410796927, 5.214297905300546), 1.2408122215074926)
    window = fh.default_window(w.params)
    prob = fh.FloquetProblem(w, DESK_A, DESK_XI, 10)
    L, D = fh.assemble(prob)
    with mp.workdps(20):
        eig = mp.eig(mp.matrix((-L / np.diag(D)[:, None]).tolist()), left=False, right=False)
    eig = np.array([complex(z) for z in eig])
    want = np.max(np.abs(eig[np.abs(eig) <= window].real))
    assert want > 1e-6
    assert fh.spectrum(prob, window).max_real_in_window == pytest.approx(want, rel=1e-9, abs=0.0)


def test_large_truncation_agrees_with_n64():
    w = _kdv_wave(1.0)
    g64 = fh.max_growth(w, DESK_A, DESK_XI, N=64)
    assert g64 > 1e-6
    for N in (256, 4096):
        assert fh.max_growth(w, DESK_A, DESK_XI, N=N) == pytest.approx(g64, rel=1e-8, abs=0.0)


def test_window_certification_and_whole_window_fallback():
    # windows holding 5, 12, 30 and then all 65 eigenvalues size the one
    # iterated block past 4, up to the dense solve of the whole window
    prob = fh.FloquetProblem(_kdv_wave(1.0), DESK_A, 0.1, 32)
    every, _ = _dense_reference(prob, np.inf)
    radii = np.sort(np.abs(every))
    for count in (5, 12, 30, 65):
        window = radii[count - 1] * 1.0001 if count == 65 else 0.5 * (radii[count - 1] + radii[count])
        spec = fh.spectrum(prob, window)
        assert len(spec.eigenvalues) == count
        scale = max(window, 1.0)
        for z in every[np.abs(every) <= window]:
            assert np.min(np.abs(spec.eigenvalues - z)) <= 1e-9 * scale


def test_one_wave_iterates_one_block_sized_from_the_diagonal(monkeypatch):
    # one wave is one iteration of b wanted vectors and 2b guards on its banded LU:
    # b = 4 at the default window, and 8, 16 and 32 for the windows of the
    # certification test holding 5, 12 and 30 eigenvalues (32 wanted and 33 guards
    # fill the 65 modes); the whole window of 65 goes dense without iterating
    calls, dense = _counted_iteration(monkeypatch), _counted_dense_spectra(monkeypatch)
    fh.spectrum(fh.FloquetProblem(_kdv_wave(1.0), DESK_A, DESK_XI, DESK_N), fh.default_window(P11))
    assert calls == [{"waves": 1, "b": 4, "widths": {12}, "converged": 1}] and dense == []
    prob = fh.FloquetProblem(_kdv_wave(1.0), DESK_A, 0.1, 32)
    radii = np.sort(np.abs(_dense_reference(prob, np.inf)[0]))
    for count, b in ((5, 8), (12, 16), (30, 32)):
        calls.clear()
        assert len(fh.spectrum(prob, 0.5 * (radii[count - 1] + radii[count])).eigenvalues) == count
        assert calls == [{"waves": 1, "b": b, "widths": {min(3 * b, 65)}, "converged": 1}] and dense == []
    calls.clear()
    assert len(fh.spectrum(prob, 1e9).eigenvalues) == 65
    assert calls == [] and dense == [1]


def test_max_growth_loads_no_scipy_sparse():
    # the one-wave solve applies B^-1 through scipy.linalg's banded LU alone
    code = (
        "import sys, ostwave\n"
        "wave = ostwave.expand(ostwave.make_symbol('kdv'), ostwave.ModelParams(1.0, 1.0), 1.0)\n"
        "assert ostwave.max_growth(wave, 0.01, 1e-3, N=128) > 1e-8\n"
        "print('scipy.linalg' in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ow.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "True []"


def test_empty_window_has_no_eigenvalues():
    prob = fh.FloquetProblem(_kdv_wave(1.0), DESK_A, DESK_XI, DESK_N)
    spec = fh.spectrum(prob, 1e-300)
    assert len(spec.eigenvalues) == 0
    assert spec.max_real_in_window == 0.0


def test_whole_window_growth_matches_default_window():
    # the whole-window solve takes every theta of the dense B^-1, the iterated
    # solve a few of the banded one; the small sideband growth does not
    # depend on which
    prob = fh.FloquetProblem(_kdv_wave(1.0), DESK_A, DESK_XI, 8)
    whole = fh.spectrum(prob, 1e9)
    assert len(whole.eigenvalues) == 17
    want = fh.spectrum(prob, fh.default_window(P11)).max_real_in_window
    assert whole.max_real_in_window == pytest.approx(want, rel=1e-11, abs=0.0)
    # the same on seeded draws of every family, at N = 8 and 12
    rng = np.random.default_rng(13)
    families = set()
    n_done = 0
    while n_done < 40:
        s, p, k = draw_model(rng)
        wave = try_expand(s, p, k)
        window = fh.default_window(p)
        N = (8, 12)[n_done % 2]
        if wave is None or not window_isolates(wave, DESK_XI, window, n_span=N):
            continue
        prob = fh.FloquetProblem(wave, DESK_A, DESK_XI, N)
        whole = fh.spectrum(prob, 1e9).max_real_in_window
        want = fh.spectrum(prob, window).max_real_in_window
        assert whole == pytest.approx(want, rel=1e-11, abs=0.0), (s, p, k, N)
        families.add(s.name)
        n_done += 1
    assert len(families) == 6


def test_singular_band_matrix_raises():
    # kdv, beta = -4, gamma = 1, k = 1, a = 0: the mode nu = 1/2 has
    # B = k^2 nu (-c + beta m(k nu)) + gamma / nu = 0 exactly
    w = ow.expand(ow.make_symbol("kdv"), ow.ModelParams(-4.0, 1.0), 1.0)
    prob = fh.FloquetProblem(w, 0.0, 0.5, 16)
    assert fh.unperturbed_eigenvalue(w, 0, 0.5) == 0
    with pytest.raises(RuntimeError, match="eigenvalue solve failed"):
        fh.spectrum(prob, 0.25)
    with pytest.raises(ow.DomainError):
        fh.spectrum(prob, 0.25)


def test_dense_solve_of_singular_matrix_raises_solve_error():
    # the singular problem of the CLI's singular-solve test: numpy's
    # LinAlgError becomes the package's SolveError, for a batch of one wave
    # or of two (kdv, beta = -4, gamma = 1 at k = 0.9 and the singular k = 1)
    s, p = ow.make_symbol("kdv"), ow.ModelParams(-4.0, 1.0)
    for k in ([[1.0]], [[0.9], [1.0]]):
        problem = fh.FloquetProblem(stokes._stokes(s, p, np.array(k))[0], 0.0, 0.5, 8)
        with pytest.raises(ow.SolveError, match="eigenvalue solve failed") as info:
            fh.spectrum(problem, 0.25)
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("family", ["kdv_st", "whitham_st"])
def test_dense_spectra_of_batch_wave_matches_one_wave_calls(family):
    # one wave per (k, T) of a seeded draw, T broadcast as a column: each
    # spectrum of the batch is that wave's batch of one, bit for bit
    rng = np.random.default_rng(29)
    p = ow.ModelParams(float(rng.choice([-1.0, 1.0])), float(rng.uniform(0.05, 1.0)))
    Ts, ks = rng.uniform(0.0, 0.8, (40, 1)), rng.uniform(0.3, 2.0, (40, 1))
    wave, resonant = stokes._stokes(ow.make_symbol(family, {"T": Ts}), p, ks)
    keep = ~resonant.ravel()
    assert keep.sum() >= 20
    Ts, ks = Ts[keep], ks[keep]
    wave = stokes._stokes(ow.make_symbol(family, {"T": Ts}), p, ks)[0]
    window = fh.default_window(p)
    specs = fh.spectrum(fh.FloquetProblem(wave, DESK_A, DESK_XI, DESK_N), window)
    assert len(specs) == len(ks)
    for T, k, spec in zip(Ts.ravel(), ks.ravel(), specs):
        one = stokes._stokes(ow.make_symbol(family, {"T": float(T)}), p, np.array([[k]]))[0]
        (want,) = fh.spectrum(fh.FloquetProblem(one, DESK_A, DESK_XI, DESK_N), window)
        assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert spec.max_real_in_window == want.max_real_in_window


def test_dense_spectra_of_empty_batch_is_empty():
    empty = np.empty((0, 1))
    wave = stokes._stokes(ow.make_symbol("kdv_st", {"T": empty}), P11, empty)[0]
    assert fh.spectrum(fh.FloquetProblem(wave, DESK_A, DESK_XI, DESK_N), 0.25) == []


def test_spectrum_solves_a_batch_and_max_growth_refuses_one():
    wave = stokes._stokes(ow.make_symbol("kdv"), P11, np.array([[0.9], [1.1]]))[0]
    specs = fh.spectrum(fh.FloquetProblem(wave, DESK_A, DESK_XI, DESK_N), 0.25)
    assert len(specs) == 2 and all(isinstance(spec, fh.FloquetSpectrum) for spec in specs)
    with pytest.raises(ValueError, match="batch"):
        fh.max_growth(wave, DESK_A, DESK_XI)


def test_batch_of_one_matches_banded_solve_on_every_family():
    # the dense batch path against the banded one-wave path on seeded draws
    # of all six families: the same growth where it is resolvable (U), both
    # below the 1e-8 detection threshold elsewhere (S)
    rng = np.random.default_rng(1919)
    families, n_unstable = set(), 0
    for _ in range(120):
        s, p, k, wave, window = draw_hill_ready(rng)
        one = stokes._stokes(s, p, np.array([[k]]))[0]
        (spec,) = fh.spectrum(fh.FloquetProblem(one, DESK_A, DESK_XI, DESK_N), window)
        banded = fh.max_growth(wave, DESK_A, DESK_XI, N=DESK_N, window=window)
        if banded > 1e-8:
            assert spec.max_real_in_window == pytest.approx(banded, rel=1e-9, abs=0.0), (s.name, p, k)
            n_unstable += 1
        else:
            assert spec.max_real_in_window <= 1e-8, (s.name, p, k)
        families.add(s.name)
    assert len(families) == 6
    assert n_unstable >= 20


def _draw_batch(rng, N):
    """A batch wave of four k of one seeded model, none resonant or near it, with its bands."""
    while True:
        s, p, _ = draw_model(rng)
        ks = np.exp(rng.uniform(np.log(0.05), np.log(5.0), (4, 1)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            wave, resonant = stokes._stokes(s, p, ks)
        if resonant.any() or not (np.all(np.abs(wave.A2) <= 5.0) and np.all(np.abs(wave.A3) <= 50.0)):
            continue
        prob = fh.FloquetProblem(wave, DESK_A, DESK_XI, N)
        return s, prob, fh._bands(prob)[1]


def _counted_dense_spectra(monkeypatch):
    """Patch fh._dense_spectra to record the number of waves of each call."""
    calls, dense_spectra = [], fh._dense_spectra

    def counted(ab, window_radius):
        calls.append(len(ab) if ab.ndim > 2 else 1)
        return dense_spectra(ab, window_radius)

    monkeypatch.setattr(fh, "_dense_spectra", counted)
    return calls


def _counted_iteration(monkeypatch):
    """Patch fh._subspace_iteration to record, per call, its waves, b, the width of every
    block it solves, and how many waves converge."""
    calls, iterate = [], fh._subspace_iteration

    def counted(solve, diagonal, b):
        call = {"waves": len(diagonal), "b": b, "widths": set(), "converged": 0}
        calls.append(call)

        def recorded(waves, Q):
            call["widths"].add(Q.shape[-1])
            return solve(waves, Q)

        for wave, theta in iterate(recorded, diagonal, b):
            call["converged"] += 1
            yield wave, theta

    monkeypatch.setattr(fh, "_subspace_iteration", counted)
    return calls


def test_windowed_batch_solve_matches_dense_spectra(monkeypatch):
    # seeded draws of all six families at N = 8, 16 and 32, each a batch of
    # four waves in a window holding 2 to 30 of the first wave's eigenvalues:
    # every wave's window eigenvalues are the dense solve's, count for count
    dense_spectra = fh._dense_spectra
    calls, iterations = _counted_dense_spectra(monkeypatch), _counted_iteration(monkeypatch)
    rng = np.random.default_rng(2828)
    families, counts, n_waves = set(), set(), 0
    for trial in range(60):
        N = (8, 16, 32)[trial % 3]
        s, prob, ab = _draw_batch(rng, N)
        radii = np.sort(np.abs(dense_spectra(ab[0], np.inf)[0].eigenvalues))
        count = int(rng.integers(2, min(30, 2 * N - 2) + 1))
        if not radii[count] > radii[count - 1] * (1 + 1e-6):
            continue  # no window edge between them
        window = 0.5 * (radii[count - 1] + radii[count])
        got = fh.spectrum(prob, window)
        want = dense_spectra(ab, window)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert len(g.eigenvalues) == len(w.eigenvalues), (s.name, N, count)
            for z in w.eigenvalues:
                assert np.min(np.abs(g.eigenvalues - z)) <= 1e-9 * max(window, 1.0), (s.name, N, count)
        assert len(got[0].eigenvalues) == count
        families.add(s.name)
        counts.add(count)
        n_waves += 4
    assert len(families) == 6
    assert min(counts) <= 4 and max(counts) >= 24
    # most of the large windows go dense (b >= 2N - 1), but many waves are solved
    # by the iteration, and every wave it iterates converges before the step cap
    assert n_waves - sum(calls) >= 0.3 * n_waves
    assert sum(c["waves"] for c in iterations) >= 0.3 * n_waves
    assert [c["converged"] for c in iterations] == [c["waves"] for c in iterations]


def test_windowed_batch_solve_falls_back_to_the_dense_answer(monkeypatch):
    # a wave whose iteration does not converge, or whose farthest Ritz value
    # lies inside the window, takes every eigenvalue of its dense B^-1: the
    # floats of _dense_spectra, bit for bit
    def check(prob, window):
        want = fh._dense_spectra(fh._bands(prob)[1], window)
        calls.clear()
        got = fh.spectrum(prob, window)
        assert calls == [len(want)]
        for g, w in zip(got, want, strict=True):
            assert g.eigenvalues.tobytes() == w.eigenvalues.tobytes()
            assert g.max_real_in_window == w.max_real_in_window

    calls = _counted_dense_spectra(monkeypatch)
    rng = np.random.default_rng(6)
    _, prob, _ = _draw_batch(rng, 16)
    with monkeypatch.context() as m:
        m.setattr(fh, "_STEPS", 0)
        check(prob, 0.25)
    # kdv at a = 0.05: the wave moves the modes n = +-2 inward by about 1e-4, so a
    # window edge between the second one's eigenvalue and its |B_ii| holds three
    # |B_ii| (a block of 4) and four eigenvalues, the farthest Ritz value among them
    wave = stokes._stokes(ow.make_symbol("kdv"), P11, np.array([[1.0]]))[0]
    prob = fh.FloquetProblem(wave, 0.05, DESK_XI, 16)
    ab = fh._bands(prob)[1]
    diagonal = np.sort(np.abs(ab[0, 3]))
    radii = np.sort(np.abs(fh._dense_spectra(ab, np.inf)[0].eigenvalues))
    assert radii[3] < diagonal[3]
    window = 0.5 * (radii[3] + diagonal[3])
    assert np.count_nonzero(diagonal <= window) == 3 and np.count_nonzero(radii <= window) == 4
    check(prob, window)
    calls.clear()
    fh.spectrum(prob, 0.5 * (radii[3] + radii[4]))  # four |B_ii| and a block of 8: certified
    assert calls == []


def test_lattice_wave_at_one_k_is_a_batch():
    # a lattice symbol over three T at one k: the bands have a leading axis of 3,
    # so spectrum solves three waves, each its batch of one, and max_growth refuses them
    p, k = ow.ModelParams(1.0, 0.3), 1.3
    Ts = np.array([[0.05], [0.2], [0.6]])
    wave = ow.expand(ow.make_symbol("kdv_st", {"T": Ts}), p, k)
    specs = fh.spectrum(fh.FloquetProblem(wave, DESK_A, DESK_XI, 8), 0.25)
    assert isinstance(specs, list) and len(specs) == 3
    for T, spec in zip(Ts.ravel(), specs):
        one = stokes._stokes(ow.make_symbol("kdv_st", {"T": float(T)}), p, np.array([[k]]))[0]
        (want,) = fh.spectrum(fh.FloquetProblem(one, DESK_A, DESK_XI, 8), 0.25)
        assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert spec.max_real_in_window == want.max_real_in_window
    with pytest.raises(ValueError, match="batch"):
        fh.max_growth(wave, DESK_A, DESK_XI, N=8)


def test_batch_problem_refuses_a_row_of_k():
    # the bands put the modes on the last axis, so a batch k is a column
    wave = stokes._stokes(ow.make_symbol("kdv"), P11, np.linspace(0.8, 1.2, 17))[0]
    with pytest.raises(ValueError, match=r"column, got shape \(17,\)"):
        fh.FloquetProblem(wave, DESK_A, DESK_XI, 8)


# ------------------------------------------------------ randomized studies


def test_zero_amplitude_exactness_random():
    # every eigenvalue inside the window matches the closed form
    rng = np.random.default_rng(2024)
    n_done = 0
    while n_done < 20:
        s, p, k = draw_model(rng)
        wave = try_expand(s, p, k)
        if wave is None:
            continue
        xi = float(rng.uniform(0.01, 0.5))
        window = fh.default_window(p)
        spec = fh.spectrum(fh.FloquetProblem(wave, 0.0, xi, 32), window)
        closed = [
            fh.unperturbed_eigenvalue(wave, n, xi) for n in range(-32, 33)
        ]
        for z in spec.eigenvalues:
            assert min(abs(z - c) for c in closed) <= 1e-10
        assert spec.max_real_in_window <= 1e-10
        n_done += 1


def test_oracle_agrees_with_index_classification():
    # 50 samples: (max_growth > 1e-8) iff the index says unstable
    rng = np.random.default_rng(424242)
    n_done = 0
    while n_done < 50:
        s, p, k, wave, window = draw_hill_ready(rng)
        verdict = ow.index(s, p, k).classification
        if verdict == "degenerate":
            continue
        if verdict == "unstable" and not trusted(wave):
            continue  # growth not resolvable at desk scale there
        hill = fh.max_growth(wave, DESK_A, DESK_XI, N=DESK_N, window=window)
        assert (hill > 1e-8) == (verdict == "unstable"), (s.name, p, k)
        n_done += 1


def test_oracle_quantitative_agreement():
    # 20 unstable samples in the trust region: <= 15% relative error
    rng = np.random.default_rng(31337)
    for _ in range(20):
        s, p, k, wave, window = draw_unstable_trusted(rng)
        pred = ow.growth_rate_leading(wave, DESK_A, DESK_XI)
        hill = fh.max_growth(wave, DESK_A, DESK_XI, N=DESK_N, window=window)
        assert abs(hill - pred) / hill <= 0.15, (s.name, p, k)
