"""Acceptance gate: the ten go/no-go criteria at their stated tolerances.

Each test prints a single `criterion N: PASS/FAIL -- detail` line
(visible with `pytest -v -s`) and asserts the same condition, including
the runtime budgets where one is stated.
"""

from __future__ import annotations

import time

import numpy as np

import ostwave as ow
from ostwave import critical as cr
from ostwave import floquet_hill as fh
from conftest import (
    DESK_A,
    DESK_N,
    DESK_XI,
    draw_hill_ready,
    draw_model,
    draw_unstable_trusted,
    try_expand,
)

P11 = ow.ModelParams(beta=1.0, gamma=1.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_critical_wavenumber_reference():
    t0 = time.perf_counter()
    kc = cr.kc_closed_form(ow.make_symbol("kdv"), P11).kc
    elapsed = time.perf_counter() - t0
    exact = 3.0**-0.25
    ok = abs(kc - exact) < 1e-12 and abs(kc - 0.760) < 1e-3 and elapsed < 1.0
    _report(1, ok, f"kc={kc:.6f} (3^-1/4={exact:.6f}), {elapsed:.3f}s")


def test_criterion_02_index_ratio_sign_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    n_checked, n_bad = 0, 0
    while n_checked < 200:
        s, p, k = draw_model(rng)
        r = ow.index(s, p, k)
        if r.classification == "degenerate":
            continue  # one factor below the degeneracy floor
        if np.sign(r.delta) != np.sign(r.ratio):
            n_bad += 1
        n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = n_bad == 0 and elapsed < 5.0
    _report(2, ok, f"{n_checked} samples, {n_bad} sign mismatches, {elapsed:.2f}s")


def test_criterion_03_hill_exactness_at_zero_amplitude():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    worst = 0.0
    n_done = 0
    while n_done < 20:
        s, p, k = draw_model(rng)
        wave = try_expand(s, p, k)
        if wave is None:
            continue
        xi = float(rng.uniform(0.01, 0.5))
        spec = fh.spectrum(
            fh.FloquetProblem(wave, 0.0, xi, 32), fh.default_window(p)
        )
        closed = [fh.unperturbed_eigenvalue(wave, n, xi) for n in range(-32, 33)]
        for z in spec.eigenvalues:
            worst = max(worst, min(abs(z - c) for c in closed))
        worst = max(worst, spec.max_real_in_window)
        n_done += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(3, ok, f"20 tuples, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_instability_detection_both_sides():
    w_unstable = ow.expand(ow.make_symbol("kdv"), P11, 1.0)
    w_stable = ow.expand(ow.make_symbol("kdv"), P11, 0.5)
    g_u = fh.max_growth(w_unstable, 0.01, 0.001, N=32)
    g_s = fh.max_growth(w_stable, 0.01, 0.001, N=32, window=0.25)
    ok = g_u > 1e-8 and g_s <= 1e-8
    _report(4, ok, f"k=1: {g_u:.3e} > 1e-8; k=0.5: {g_s:.3e} <= 1e-8")


def test_criterion_05_quantitative_growth_agreement():
    rng = np.random.default_rng(662607)
    worst_rel, worst_scale_lo, worst_scale_hi = 0.0, 4.0, 4.0
    for _ in range(20):
        s, p, k, wave, window = draw_unstable_trusted(rng)
        pred = ow.growth_rate_leading(wave, DESK_A, DESK_XI)
        hill = fh.max_growth(wave, DESK_A, DESK_XI, N=DESK_N, window=window)
        worst_rel = max(worst_rel, abs(hill - pred) / hill)
        doubled = fh.max_growth(
            wave, 2 * DESK_A, 2 * DESK_XI, N=DESK_N, window=window
        )
        scale = doubled / hill
        worst_scale_lo = min(worst_scale_lo, scale)
        worst_scale_hi = max(worst_scale_hi, scale)
    ok = worst_rel <= 0.15 and worst_scale_lo >= 3.2 and worst_scale_hi <= 4.8
    _report(
        5,
        ok,
        f"20 unstable samples: worst |rel err| {100*worst_rel:.2f}% (<=15%), "
        f"doubling scale in [{worst_scale_lo:.2f}, {worst_scale_hi:.2f}] "
        f"(4x +-20%)",
    )


def test_criterion_06_stokes_residual_order():
    amps = [0.04, 0.02, 0.01, 0.005]
    cases = [("kdv", 1.0), ("ilw", 0.5), ("whitham", 0.5)]
    detail = []
    ok = True
    for name, k in cases:
        w = ow.expand(ow.make_symbol(name), P11, k)
        ratios = [ow.residual_norm(w, a) / a**4 for a in amps]
        band = max(ratios) / min(ratios)
        ok = ok and band < 4.0
        detail.append(f"{name}@k={k}: band {band:.3f}")
    _report(6, ok, "; ".join(detail) + " (all < 4)")


def test_criterion_07_surface_tension_thresholds():
    t0 = time.perf_counter()
    tc_pos = cr.tc_of_alpha("whitham_st", 0.1)
    t1 = time.perf_counter()
    tc_neg = cr.tc_of_alpha("whitham_st", -0.1)
    t2 = time.perf_counter()
    ok = (
        abs(tc_pos - 0.132) <= 5e-3
        and abs(tc_neg - 0.141) <= 5e-3
        and (t1 - t0) < 60.0
        and (t2 - t1) < 60.0
    )
    _report(
        7,
        ok,
        f"tc(+0.1)={tc_pos:.4f} (0.132+-0.005, {t1-t0:.2f}s), "
        f"tc(-0.1)={tc_neg:.4f} (0.141+-0.005, {t2-t1:.2f}s)",
    )


def test_criterion_08_interval_structure():
    p = cr.params_from_alpha(0.1)
    lo = cr.classify_intervals(
        ow.make_symbol("whitham_st", {"T": 0.02}), p, (0.05, 10.0)
    )
    hi = cr.classify_intervals(
        ow.make_symbol("whitham_st", {"T": 0.5}), p, (0.05, 5.0)
    )
    seq_lo = [label for _, label in lo]
    seq_hi = [label for _, label in hi]
    ok = seq_lo == ["S", "U", "S", "U"] and seq_hi == ["S", "U"]
    _report(8, ok, f"T=0.02: {'+'.join(seq_lo)}; T=0.5: {'+'.join(seq_hi)}")


def test_criterion_09_closed_form_reductions():
    worst = 0.0
    for p in (P11, ow.ModelParams(beta=-1.0, gamma=1.0)):
        worst = max(
            worst,
            abs(
                cr.kc_closed_form(ow.make_symbol("fkdv", {"delta": 2.0}), p).kc
                - cr.kc_closed_form(ow.make_symbol("kdv"), p).kc
            ),
        )
    worst = max(
        worst,
        abs(
            cr.kc_closed_form(ow.make_symbol("kdv_st", {"T": 0.0}), P11).kc
            - cr.kc_closed_form(ow.make_symbol("kdv"), P11).kc
        ),
    )
    ok = worst <= 1e-12
    _report(9, ok, f"max |kc difference| across reductions {worst:.2e} (<=1e-12)")


def test_criterion_10_diagram_consistency():
    t0 = time.perf_counter()
    diag = cr.diagram("kdv_st", 1.0, k_max=2.0, t_max=0.8, nk=100, nt=100)
    mismatches = 0
    to_label = {"stable": "S", "unstable": "U", "degenerate": "degenerate"}
    for j, T in enumerate(diag.Ts):
        s = ow.make_symbol("kdv_st", {"T": float(T)})
        for i, k in enumerate(diag.ks):
            verdict = to_label[ow.index(s, P11, float(k)).classification]
            if diag.labels[j, i] != verdict:
                mismatches += 1
    checks = cr.spot_check(diag, n_cells=10, seed=0)
    elapsed = time.perf_counter() - t0
    n_ok = sum(1 for c in checks if c["ok"])
    ok = mismatches == 0 and len(checks) == 10 and n_ok == 10 and elapsed < 120.0
    _report(
        10,
        ok,
        f"100x100 cells: {mismatches} label mismatches; Hill spot checks "
        f"{n_ok}/10 ok; {elapsed:.1f}s",
    )
