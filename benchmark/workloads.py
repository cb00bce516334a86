"""The four benchmark workloads and the checks of their outputs.

A workload is prepared once (untimed), then runs whole rounds; every
round attempts the same operations on the same inputs, so the share of
failed operations is the same however many rounds a run makes.  The
first round's outputs are checked against ``reference``; later rounds
must reproduce them.  ``probe=True`` shrinks a workload to a small round
of a second or two; a run interleaves such probe rounds with its own
rounds to report the end-to-end metrics its workload does not exercise.
Operations are timed by ``ctx.clock``, in units of a calibration kernel
(``clock.py``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref

# desk scale of the oracle comparisons, as in the acceptance gate
DESK_A, DESK_XI, DESK_N = 0.01, 1e-3, 32
THRESHOLD = 1e-8  # spot_check's detection threshold for Hill growth
TRUST_MAX = 0.05  # detuning ratio inside the projected model's trust region
CONV_RTOL = 1e-5  # successive N of a convergence study agree to this relative tolerance
FAMILIES = ("kdv", "fkdv", "ilw", "whitham", "kdv_st", "whitham_st")
DIAGRAMS = (
    ("kdv_st", 1.0, 2.0, 0.8),
    ("whitham_st", 0.1, 2.0, 0.8),
    ("whitham_st", -0.1, 5.0, 0.4),
)
SPOT_SEED = 0  # spot checks use fixed seeds: their failures do not depend on --seed
PROBE_SEED = 0
# trusted unstable samples come from a fixed seed: about 1 draw in 400 that
# passes the trust predicate still breaks the 15% or doubling check, which
# would fail some seeds and not others
TRUSTED_SEED = 0
TC_ALPHAS = (0.02, -0.02, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.5, -0.5)
TC_PAPER = {0.1: 0.132, -0.1: 0.141}


class Workload:
    name = ""
    owns = ()

    def __init__(self, ctx, seed: int, probe: bool = False):
        # a probe's inputs do not follow --seed, so its cost is the same in every run
        self.ctx, self.seed, self.probe = ctx, PROBE_SEED if probe else seed, probe
        self.attempted = self.failed = self.rounds = 0
        self.errors = []
        self.first = None

    def prepare(self):
        pass

    def round(self, between=lambda: None):
        """One round; ``between`` runs at the round's pauses, for probe rounds."""
        out = self.run_round(between)
        self.rounds += 1
        if self.first is None:
            self.first = out
        elif not self.same(self.first, out):
            self.errors.append(f"{self.name}: round {self.rounds} differs from round 1")

    def same(self, a, b) -> bool:
        return a == b

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _round_time(spans, per_round: int) -> float:
    """The typical time of one round's ``per_round`` operations.

    ``spans`` holds every round's spans in the same order; each operation
    contributes its median scaled time across rounds, so a burst that slows
    one round does not move the figure, and operations of different cost
    are not mixed in one median.
    """
    return sum(statistics.median(s.seconds for s in spans[i::per_round]) for i in range(per_round))


def _model(name, beta, gamma, params):
    return ref.Model(name, beta, gamma, T=params.get("T", 0.0), delta=params.get("delta", 2.0))


def _close(x, y, rtol) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


# ---------------------------------------------------------------------------
# diagram checks, shared by diagram-grid, hill-oracle and cli-cold


def factors_match(model, k, f1, f2) -> tuple:
    """(f1 and f2 agree with the reference, reference label or None inside the band).

    The tolerance is relative to the sum of the magnitudes of each factor's
    terms, the scale at which rounding cancels them: 1e-11 against the closed
    forms, 1e-9 against mpmath for the nonlocal symbols.
    """
    beta, gamma = model.beta, model.gamma
    if model.name in ref.POLYNOMIAL:
        r1, r2 = float(model.f1_closed(k)), float(model.f2_closed(k))
        s1, s2 = model.factor_scale(k)
        tol = 1e-11
    else:
        r1, r2 = model.factors(k)
        _, m1, m2 = (float(x) for x in model.derivs(k))
        s1 = abs(beta) * (abs(float(model.m(k))) + abs(float(model.m(2 * k)))) + 1.25 * gamma / k**2
        s2 = 2 * gamma / k**3 + abs(beta) * (k * abs(m2) + 2 * abs(m1))
        tol = 1e-9
    ok = abs(f1 - r1) <= tol * s1 and abs(f2 - r2) <= tol * s2
    return ok, ref.label_of(r1 * r2, r1, r2)


def check_diagram(d, rng, n_sample: int) -> list:
    """Labels, f1, f2, zero-locus curves, region counts and crossing of one diagram."""
    errs = []
    name = f"{d.family} alpha={d.alpha:g}"
    beta, gamma = math.copysign(1.0, d.alpha), abs(d.alpha)
    polynomial = d.family in ref.POLYNOMIAL
    if polynomial:
        cells = [(j, i) for j in range(d.nt) for i in range(d.nk)]
    else:
        flat = rng.choice(d.nt * d.nk, size=min(n_sample, d.nt * d.nk), replace=False)
        cells = [divmod(int(x), d.nk) for x in flat]
    bad_f, bad_label = 0, 0
    rows = {}
    for j, i in cells:
        if j not in rows:
            rows[j] = ref.Model(d.family, beta, gamma, T=float(d.Ts[j]))
        f_ok, want = factors_match(rows[j], float(d.ks[i]), d.f1[j, i], d.f2[j, i])
        bad_f += not f_ok
        if want is not None and d.labels[j, i] != want:
            bad_label += 1
    if bad_f:
        errs.append(f"{name}: f1/f2 differ from the reference on {bad_f} of {len(cells)} cells")
    if bad_label:
        errs.append(f"{name}: labels differ from the reference on {bad_label} of {len(cells)} cells")

    for lab in ("S", "U"):
        want = ref.region_count(d.labels == lab)
        if d.region_counts.get(lab) != want:
            errs.append(f"{name}: {lab} region count {d.region_counts.get(lab)} != flood fill {want}")

    for mech, pts in ((ref.PHASE, d.f1_curve), (ref.GROUP, d.f2_curve)):
        for k, T in pts:
            model = ref.Model(d.family, beta, gamma, T=T)
            if polynomial:
                kc, m = model.kc_closed()
                ok = m == mech and _close(k, kc, 1e-9)
            else:
                ok = ref.sign_change(lambda x: model.numerator(mech, x), k)
            if not ok:
                errs.append(f"{name}: curve point k={k:.12g}, T={T:.6g} is not a zero of the {mech} numerator")
    if polynomial:
        # every row whose closed-form root lies inside the grid has its curve point
        found = {T for _, T in d.f1_curve + d.f2_curve}
        for T in d.Ts:
            kc, _ = ref.Model(d.family, beta, gamma, T=float(T)).kc_closed()
            if d.ks[0] * 1.001 < kc < d.ks[-1] / 1.001 and float(T) not in found:
                errs.append(f"{name}: no curve point at T={T:.6g} though kc={kc:.6g} lies inside")

    if d.family == "whitham_st" and d.alpha < 0:
        if d.t_s is None:
            errs.append(f"{name}: no f1/f2 curve crossing reported")
        else:
            model = ref.Model(d.family, beta, gamma, T=d.t_s)
            lo, hi = float(d.ks[0]), float(d.ks[-1])
            k1s = ref.crossing_roots(model.n1, lo, hi)
            k2s = ref.crossing_roots(model.n2, lo, hi)
            if not any(_close(a, b, 1e-6) for a in k1s for b in k2s):
                errs.append(f"{name}: at t_s={d.t_s:.10g} the reference numerators share no zero: {k1s} vs {k2s}")
    return errs


def check_spot_cells(family, alpha, cells) -> list:
    """Errors in spot-check output; a cell may fail only through the known S-cell fault.

    spot_check tests S cells at a = 0.01 whatever their detuning ratio, so an
    S cell beside the second-harmonic resonance sees finite-amplitude growth
    there.  Such a cell is a failed operation; any other disagreement is an
    error.
    """
    errs = []
    beta, gamma = math.copysign(1.0, alpha), abs(alpha)
    for c in cells:
        model = ref.Model(family, beta, gamma, T=c["T"])
        f1, f2 = model.factors(c["k"])
        want = ref.label_of(f1 * f2, f1, f2)
        where = f"{family} alpha={alpha:g} cell k={c['k']:.6g} T={c['T']:.6g}"
        if want is not None and c["label"] != want:
            errs.append(f"{where}: label {c['label']} but reference says {want}")
        grows = c["hill"] > THRESHOLD
        if c["ok"] != (grows if c["label"] == "U" else not grows):
            errs.append(f"{where}: ok flag disagrees with the Hill growth {c['hill']:.3e}")
        if c["label"] == "U" and abs(c["hill"] - c["predicted"]) > 0.15 * c["hill"]:
            errs.append(f"{where}: Hill {c['hill']:.4e} and pencil {c['predicted']:.4e} differ by more than 15%")
        known_fault = c["label"] == "S" and model.detuning_ratio(c["k"], DESK_A, DESK_XI) > TRUST_MAX
        if not c["ok"] and not known_fault:
            errs.append(f"{where}: oracle rejects the verdict outside the known S-cell fault")
    return errs


# ---------------------------------------------------------------------------


class DiagramGrid(Workload):
    name = "diagram-grid"
    owns = ("diagram_cells_per_s",)

    def prepare(self):
        self.n = 20 if self.probe else 50
        self.spans = []

    def run_round(self, between):
        from ostwave import critical

        out = []
        for family, alpha, k_max, t_max in DIAGRAMS:
            with self.ctx.clock.span() as span:
                d = critical.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=self.n, nt=self.n)
            self.spans.append(span)
            self.attempted += 1
            out.append(d)
            between()
        return out

    def same(self, a, b):
        return all(
            np.array_equal(x.labels, y.labels) and np.array_equal(x.f1, y.f1) and np.array_equal(x.f2, y.f2)
            for x, y in zip(a, b)
        )

    def check(self):
        rng = np.random.default_rng(self.seed)
        for d in self.first:
            self.errors += check_diagram(d, rng, 60 if self.probe else 400)
        return self.errors

    def metrics(self):
        cells = len(DIAGRAMS) * self.n * self.n
        return {"diagram_cells_per_s": (cells / _round_time(self.spans, len(DIAGRAMS)), "cells/s")}


class CriticalSearch(Workload):
    name = "critical-search"
    owns = ("searches_per_s", "tc_s")

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        per_family = 2 if self.probe else 6
        self.models = [
            draw_search_model(rng, fam, (-1.0) ** (i + j)) for j, fam in enumerate(FAMILIES) for i in range(per_family)
        ]
        self.alphas = TC_ALPHAS
        self.search_spans, self.tc_spans = [], []

    def run_round(self, between):
        import ostwave as ow
        from ostwave import critical, stokes

        out = []
        for name, params, beta, gamma in self.models:
            s, p = ow.make_symbol(name, params), ow.ModelParams(beta, gamma)
            with warnings.catch_warnings():
                # kc_numeric warns when ilw/whitham show more than one root
                warnings.simplefilter("ignore")
                with self.ctx.clock.span() as span:
                    kcs = critical.kc_numeric(s, p)
                    intervals = critical.classify_intervals(s, p, (0.05, 10.0))
                    res = stokes.find_resonances(s, p)
            self.search_spans.append(span)
            self.attempted += 3
            out.append(([(r.kc, r.mechanism) for r in kcs], intervals, res))
            between()
        tcs = []
        for alpha in self.alphas:
            with self.ctx.clock.span() as span:
                tcs.append(critical.tc_of_alpha("whitham_st", alpha))
            self.tc_spans.append(span)
        self.attempted += len(self.alphas)
        between()
        return out, tcs

    def check(self):
        searches, tcs = self.first
        for (name, params, beta, gamma), (kcs, intervals, res) in zip(self.models, searches):
            model = _model(name, beta, gamma, params)
            where = f"{name} {params} beta={beta:.6g} gamma={gamma:.6g}"
            self.errors += [f"{where}: {e}" for e in check_kc(model, kcs)]
            self.errors += [f"{where}: {e}" for e in check_intervals(model, intervals, 0.05, 10.0)]
            self.errors += [f"{where}: {e}" for e in check_resonances(model, res, 1e-2, 1e2)]
        for alpha, tc in zip(self.alphas, tcs):
            self.errors += check_tc(alpha, tc)
        return self.errors

    def metrics(self):
        return {
            "searches_per_s": (3 * len(self.models) / _round_time(self.search_spans, len(self.models)), "searches/s"),
            "tc_s": (_round_time(self.tc_spans, len(self.alphas)) / len(self.alphas), "s"),
        }


def draw_search_model(rng, family, sign):
    """A seeded model of one family in the tests' box: beta in sign*[0.1, 10], gamma in [0.1, 10].

    The sign of beta decides which numerator owns the critical wavenumber and
    whether resonances exist, so every round draws both signs equally.

    Polynomial draws are redrawn until their reference critical and resonant
    wavenumbers sit inside the search brackets, so that every search has an
    answer; kdv_st close to T = 1/3 would otherwise push them out.
    """
    while True:
        beta = float(sign * 10.0 ** rng.uniform(-1.0, 1.0))
        gamma = float(10.0 ** rng.uniform(-1.0, 1.0))
        params = {}
        if family == "fkdv":
            params["delta"] = float(rng.uniform(0.75, 2.5))
        elif family == "kdv_st":
            params["T"] = float(rng.uniform(0.0, 0.8))
        elif family == "whitham_st":
            params["T"] = float(rng.uniform(0.01, 0.8))
        if family not in ref.POLYNOMIAL:
            return family, params, beta, gamma
        model = _model(family, beta, gamma, params)
        roots = [model.kc_closed()[0]] + [k for k, _ in model.resonances_closed(0.0, math.inf)]
        if all(0.011 < k < 90.0 for k in roots):
            return family, params, beta, gamma


def check_kc(model, kcs) -> list:
    if model.name in ref.POLYNOMIAL:
        kc, mech = model.kc_closed()
        if len(kcs) != 1 or kcs[0][1] != mech or not _close(kcs[0][0], kc, 1e-9):
            return [f"kc_numeric {kcs} != closed form ({kc!r}, {mech})"]
        return []
    errs = []
    if [k for k, _ in kcs] != sorted(k for k, _ in kcs):
        errs.append("kc_numeric roots are not sorted")
    for k, mech in kcs:
        if not ref.sign_change(lambda x: model.numerator(mech, x), k):
            errs.append(f"kc={k!r} is not a sign change of the {mech} numerator")
    return errs


def _reference_label(model, k):
    f1, f2 = model.factors(k)
    return ref.label_of(f1 * f2, f1, f2)


def check_intervals(model, intervals, lo, hi) -> list:
    errs = []
    if intervals[0][0][0] != lo or intervals[-1][0][1] != hi:
        errs.append(f"intervals do not span ({lo}, {hi}): {intervals}")
    for ((_, b), lab), ((c, _), lab2) in zip(intervals, intervals[1:]):
        if b != c or lab == lab2:
            errs.append(f"intervals not contiguous and alternating at {b!r}")
        for x, want in ((b * (1 - 1e-8), lab), (b * (1 + 1e-8), lab2)):
            got = _reference_label(model, x)
            if got is not None and got != want:
                errs.append(f"boundary {b!r}: reference says {got} at {x!r}, interval says {want}")
    for (a, b), lab in intervals:
        got = _reference_label(model, math.sqrt(a * b))
        if got is not None and got != lab:
            errs.append(f"interval ({a!r}, {b!r}) labelled {lab}, reference {got}")
    return errs


def check_resonances(model, res, kmin, kmax) -> list:
    if model.name in ref.POLYNOMIAL:
        want = model.resonances_closed(kmin, kmax)
        ok = len(res) == len(want) and all(
            n == wn and _close(k, wk, 1e-9) for (k, n), (wk, wn) in zip(res, want)
        )
        return [] if ok else [f"find_resonances {res} != closed form {want}"]
    return [
        f"resonance k={k!r} n={n} is not a sign change of D_{n}"
        for k, n in res
        if not ref.sign_change(lambda x: model.harmonic_denominator(x, n), k)
    ]


def check_tc(alpha, tc, tol=5e-3) -> list:
    """T_c(+-0.1) matches the paper; the owning numerator's minimum changes sign across T_c."""
    errs = []
    if alpha in TC_PAPER and abs(tc - TC_PAPER[alpha]) > 5e-3:
        errs.append(f"tc({alpha})={tc!r} is not within 5e-3 of {TC_PAPER[alpha]}")
    beta, gamma = math.copysign(1.0, alpha), abs(alpha)
    for T, sign in ((tc - tol, -1), (tc + tol, 1)):
        model = ref.Model("whitham_st", beta, gamma, T=T)
        owner = model.n2 if alpha > 0 else model.n1
        low = ref.window_minimum(owner, 1e-2, 1e2)
        if low * sign <= 0:
            errs.append(f"tc({alpha})={tc!r}: reference minimum {low:.3e} at T={T:.6g} has the wrong sign")
    return errs


# ---------------------------------------------------------------------------


class HillOracle(Workload):
    name = "hill-oracle"
    owns = ("hill_n32_ms", "hill_n256_ms", "oracle_cells_per_s", "oracle_unstable_checked")

    def prepare(self):
        import ostwave as ow
        from ostwave import critical

        n = 20 if self.probe else 50
        self.n_cells = 10 if self.probe else 20
        self.diagrams = [
            critical.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=n, nt=n)
            for family, alpha, k_max, t_max in DIAGRAMS
        ]
        rng = np.random.default_rng(TRUSTED_SEED)
        self.trusted = [draw_unstable_trusted(ow, rng) for _ in range(6 if self.probe else 12)]
        rng = np.random.default_rng(self.seed)
        self.conv = self.trusted[: 1 if self.probe else 2]
        self.zero = [draw_hill_ready(ow, rng) for _ in range(1 if self.probe else 4)]
        self.n32, self.n256 = [], []
        self.oracle_spans, self.oracle_cells, self.unstable_checked = [], 0, 0

    def run_round(self, between):
        from ostwave import critical, floquet_hill

        spots = []
        for d in self.diagrams:
            with self.ctx.clock.span() as span:
                cells = critical.spot_check(d, n_cells=self.n_cells, seed=SPOT_SEED)
            self.oracle_spans.append(span)
            self.unstable_checked += sum(c["label"] == "U" for c in cells)
            self.attempted += len(cells)
            spots.append(cells)
            between()
        self.oracle_cells = sum(map(len, spots))  # the same every round
        growth = []
        for s, p, k, wave, window in self.trusted:
            for scale in (1, 2):
                with self.ctx.clock.span() as span:
                    g = floquet_hill.max_growth(wave, scale * DESK_A, scale * DESK_XI, N=DESK_N, window=window)
                self.n32.append(span)
                growth.append(g)
            self.attempted += 2
        between()
        conv = []
        for s, p, k, wave, window in self.conv:
            with self.ctx.clock.span() as span:
                g = floquet_hill.max_growth(wave, DESK_A, DESK_XI, N=256, window=window)
            self.n256.append(span)
            self.attempted += 1
            if self.probe:
                continue
            rows = floquet_hill.convergence_study(wave, DESK_A, DESK_XI, [32, 64, 128, 256], window=window)
            conv.append((g, [r["max_growth"] for r in rows]))
            self.attempted += 1
            between()
        zero = []
        for s, p, k, wave, window, xi in self.zero:
            spec = floquet_hill.spectrum(floquet_hill.FloquetProblem(wave, 0.0, xi, DESK_N), window)
            zero.append(spec.eigenvalues)
            self.attempted += 1
        self.failed += sum(not c["ok"] for cells in spots for c in cells)
        between()
        return spots, growth, conv, zero

    def same(self, a, b):
        def key(cells):
            return [(c["i"], c["j"], c["label"], c["ok"]) for c in cells]

        return (
            all(key(x) == key(y) for x, y in zip(a[0], b[0]))
            and np.allclose(a[1], b[1], rtol=1e-9, atol=0)
            and all(np.allclose(x[1], y[1], rtol=1e-9, atol=0) for x, y in zip(a[2], b[2]))
        )

    def check(self):
        import ostwave as ow

        spots, growth, conv, zero = self.first
        rng = np.random.default_rng(self.seed)
        for (family, alpha, _, _), d, cells in zip(DIAGRAMS, self.diagrams, spots):
            self.errors += check_diagram(d, rng, 60 if self.probe else 200)
            self.errors += check_spot_cells(family, alpha, cells)
        for (s, p, k, wave, window), g in zip(self.trusted, zip(growth[::2], growth[1::2])):
            where = f"{s.name} {s.params} beta={p.beta:.6g} gamma={p.gamma:.6g} k={k:.6g}"
            pred = ow.growth_rate_leading(wave, DESK_A, DESK_XI)
            if abs(g[0] - pred) > 0.15 * g[0]:
                self.errors.append(f"{where}: Hill {g[0]:.4e} vs pencil {pred:.4e} differ by more than 15%")
            if not 3.2 <= g[1] / g[0] <= 4.8:
                self.errors.append(f"{where}: growth ratio on doubling (a, xi) is {g[1] / g[0]:.3f}")
        for (s, p, k, wave, window), (g256, rows) in zip(self.conv, conv):
            where = f"{s.name} {s.params} k={k:.6g}"
            if not all(_close(x, y, CONV_RTOL) for x, y in zip(rows, rows[1:])):
                self.errors.append(f"{where}: convergence study rows {rows} disagree beyond {CONV_RTOL}")
            if not _close(g256, rows[-1], 1e-9):
                self.errors.append(f"{where}: max_growth at N=256 {g256!r} != study {rows[-1]!r}")
        for (s, p, k, wave, window, xi), eigs in zip(self.zero, zero):
            model = _model(s.name, p.beta, p.gamma, s.params)
            self.errors += check_zero_amplitude(model, k, xi, DESK_N, window, eigs)
        return self.errors

    def metrics(self):
        return {
            "hill_n32_ms": (1e3 * _round_time(self.n32, 2 * len(self.trusted)) / (2 * len(self.trusted)), "ms"),
            "hill_n256_ms": (1e3 * _round_time(self.n256, len(self.conv)) / len(self.conv), "ms"),
            "oracle_cells_per_s": (self.oracle_cells / _round_time(self.oracle_spans, len(self.diagrams)), "cells/s"),
            "oracle_unstable_checked": (self.unstable_checked / self.rounds, "cells"),
        }


def check_zero_amplitude(model, k, xi, N, window, eigs) -> list:
    """At a = 0 the windowed eigenvalues are exactly the closed-form lambda_n."""
    closed = [model.unperturbed_eigenvalue(k, n, xi) for n in range(-N, N + 1)]
    errs = []
    worst = max((min(abs(z - c) for c in closed) for z in eigs), default=0.0)
    if worst > 1e-10:
        errs.append(f"a=0 eigenvalue off the closed form by {worst:.2e} ({model.name}, k={k:.6g})")
    inside = sum(abs(c) <= window * (1 - 1e-9) for c in closed)
    edge = sum(abs(abs(c) - window) <= 1e-9 * window for c in closed)
    if not inside <= len(eigs) <= inside + edge:
        errs.append(f"a=0 window holds {len(eigs)} eigenvalues, closed form {inside} ({model.name}, k={k:.6g})")
    return errs


def _window_isolates(fh, wave, xi, window):
    sideband = max(abs(fh.unperturbed_eigenvalue(wave, n, xi)) for n in (-1, 1))
    others = min(abs(fh.unperturbed_eigenvalue(wave, n, xi)) for n in range(-DESK_N, DESK_N + 1) if n not in (-1, 1))
    return sideband <= 0.5 * window and others > 2.0 * window


def _draw(ow, rng):
    name = FAMILIES[int(rng.integers(0, 6))]
    params = {}
    if name == "fkdv":
        params["delta"] = float(rng.uniform(0.75, 2.5))
    elif name == "kdv_st":
        params["T"] = float(rng.uniform(0.0, 0.8))
    elif name == "whitham_st":
        params["T"] = float(rng.uniform(0.01, 0.8))
    beta = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0))
    gamma = float(10.0 ** rng.uniform(-1.0, 1.0))
    k = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    return ow.make_symbol(name, params), ow.ModelParams(beta=beta, gamma=gamma), k


def draw_hill_ready(ow, rng, xi=None):
    """A seeded non-resonant model whose window isolates the sideband pair.

    Returns (symbol, params, k, wave, window, xi); xi is drawn in (0.01, 0.5)
    unless given.
    """
    from ostwave import floquet_hill as fh

    while True:
        s, p, k = _draw(ow, rng)
        x = float(rng.uniform(0.01, 0.5)) if xi is None else xi
        if ow.check_resonance(s, p, k):
            continue
        wave = ow.expand(s, p, k)
        if abs(wave.A2) > 5.0 or abs(wave.A3) > 50.0:
            continue
        window = fh.default_window(p)
        if _window_isolates(fh, wave, x, window):
            return s, p, k, wave, window, x


def draw_unstable_trusted(ow, rng):
    """A seeded unstable model inside the projected model's trust region at the desk scale."""
    while True:
        s, p, k, wave, window, _ = draw_hill_ready(ow, rng, DESK_XI)
        if ow.index(s, p, k).classification != "unstable":
            continue
        g = ow.growth_rate_leading(wave, DESK_A, DESK_XI)
        if 1e-7 <= g <= 1e-3 and ow.detuning_ratio(wave, DESK_A, DESK_XI) <= TRUST_MAX:
            return s, p, k, wave, window


# ---------------------------------------------------------------------------


SMALL_CALLS = [
    ["kc", "--symbol", "kdv", "--beta", "1", "--gamma", "1"],
    ["kc", "--symbol", "ilw", "--beta", "1", "--gamma", "1"],
    ["index", "--symbol", "kdv", "--beta", "1", "--gamma", "1", "--k", "1"],
    ["index", "--symbol", "fkdv:delta=1.5", "--beta", "-1", "--gamma", "1",
     "--k-min", "0.1", "--k-max", "4", "--nk", "1000"],
    ["tc", "--symbol", "whitham_st", "--alpha", "0.1"],
    ["spectrum", "--symbol", "kdv", "--beta", "1", "--gamma", "1", "--k", "1",
     "--a", "0.01", "--xi", "0.001", "--N", "128"],
    ["spectrum", "--symbol", "kdv", "--beta", "1", "--gamma", "1", "--k", "1",
     "--a", "0", "--xi", "0.001"],
    ["stokes", "--symbol", "kdv", "--beta", "1", "--gamma", "1", "--k", "1", "--a", "0.01"],
    ["symbols", "--symbol", "whitham_st:T=0.2", "--beta", "1", "--gamma", "1"],
]
DIAGRAM_FILES = (".csv", "-curves.csv", ".svg")


class CliCold(Workload):
    """The CLI script, every call in a fresh interpreter.

    The diagram call opens and closes the script, so a round times it
    twice.  As a probe, the same script runs in-process through
    ``ostwave.cli.main`` with a 20x20 diagram: there the CLI metrics leave
    out interpreter start-up and imports.
    """

    name = "cli-cold"
    owns = ("cli_call_s", "cli_diagram_s")

    def prepare(self):
        self.n = 20 if self.probe else 100
        self.base = os.path.join(self.ctx.out_dir, "cli-probe" if self.probe else "cli-diagram")
        diagram = ["diagram", "--symbol", "whitham_st", "--alpha", "0.1", "--nk", str(self.n), "--nt", str(self.n),
                   "--out", self.base + ".csv", "--curves-out", self.base + "-curves.csv", "--svg", self.base + ".svg",
                   "--spot-check", "2" if self.probe else "10", "--seed", "0"]
        self.script = [diagram, *SMALL_CALLS] if self.probe else [diagram, *SMALL_CALLS, diagram]
        self.call_spans, self.diagram_spans = [], []
        self.max_rss_kb = 0
        self.trace_files = []

    def call(self, argv, tag):
        """One CLI call; returns (exit code, stdout, stderr, timing span)."""
        if self.probe:
            from ostwave import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), self.ctx.clock.span() as span:
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue(), span
        paths = [os.path.join(self.ctx.out_dir, f"{tag}.{ext}") for ext in ("stdout", "stderr")]
        if self.ctx.tracing:
            trace_file = os.path.join(self.ctx.out_dir, f"cli-trace-{len(self.trace_files)}.json")
            self.trace_files.append(trace_file)
            cmd = [sys.executable, os.path.join(self.ctx.bench_dir, "cli_traced.py"), trace_file, *argv]
        else:
            cmd = [sys.executable, "-m", "ostwave.cli", *argv]
        with open(paths[0], "wb") as fo, open(paths[1], "wb") as fe:
            with self.ctx.clock.span() as span:
                proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=self.ctx.root, env=self.ctx.env)
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(paths[0], encoding="utf-8") as fo, open(paths[1], encoding="utf-8") as fe:
            return proc.returncode, fo.read(), fe.read(), span

    def run_round(self, between):
        out = []
        for i, argv in enumerate(self.script):
            code, stdout, stderr, span = self.call(argv, f"cli-{i}")
            self.attempted += 1
            if argv[0] == "diagram":
                self.diagram_spans.append(span)
                files, summary = {ext: "" for ext in DIAGRAM_FILES}, {}
                if code == 0:
                    for ext in DIAGRAM_FILES:
                        with open(self.base + ext, encoding="utf-8") as fh:
                            files[ext] = fh.read()
                    summary = json.loads(stderr.strip().splitlines()[-1])
                cells = summary.get("spot_check", {}).get("cells", [])
                self.attempted += len(cells)
                self.failed += sum(not c["ok"] for c in cells)
                out.append((argv, code, summary, files))
            else:
                self.call_spans.append(span)
                out.append((argv, code, stdout, stderr))
            between()
        return out

    def same(self, a, b):
        # exit codes and diagram files; eigenvalue digits may differ in the last place
        return [x[1] for x in a] == [x[1] for x in b] and all(
            x[3][".csv"] == y[3][".csv"] for x, y in zip(a, b) if x[0][0] == "diagram"
        )

    def check(self):
        for argv, code, *rest in self.first:
            if code != 0:
                self.errors.append(f"ostwave {' '.join(argv)} exited {code}")
            elif argv[0] == "diagram":
                self.errors += check_cli_diagram(*rest, self.n, np.random.default_rng(self.seed))
            else:
                self.errors += check_cli_output(argv, *rest)
        return self.errors

    def metrics(self):
        n_diagrams = sum(argv[0] == "diagram" for argv in self.script)
        n_calls = len(self.script) - n_diagrams
        return {
            "cli_call_s": (_round_time(self.call_spans, n_calls) / n_calls, "s"),
            "cli_diagram_s": (_round_time(self.diagram_spans, n_diagrams) / n_diagrams, "s"),
        }

    def peak_rss_mb(self):
        """The largest CLI child: the workload's own process only spawns."""
        return self.max_rss_kb / 1024.0


def _rows(text):
    return list(csv.DictReader(text.splitlines()))


def check_cli_output(argv, stdout, stderr) -> list:
    cmd, sym = argv[0], argv[2]
    rows = _rows(stdout)
    opt = dict(zip(argv[1::2], argv[2::2]))
    errs = []

    def want(cond, what):
        if not cond:
            errs.append(f"ostwave {' '.join(argv)}: {what}")

    if cmd == "kc" and sym == "kdv":
        want(len(rows) == 1 and _close(float(rows[0]["kc"]), 3.0**-0.25, 1e-12), f"kc {rows} != 3^(-1/4)")
    elif cmd == "kc":
        model = ref.Model(sym, float(opt["--beta"]), float(opt["--gamma"]))
        want(rows, "no critical wavenumber")
        for r in rows:
            want(ref.sign_change(lambda x: model.numerator(r["mechanism"], x), float(r["kc"])),
                 f"kc={r['kc']} is not a zero of the {r['mechanism']} numerator")
    elif cmd == "index" and "--k" in opt:
        r = rows[0]
        got = [float(r["f1"]), float(r["f2"]), float(r["delta"])]
        want(all(_close(x, y, 1e-12) for x, y in zip(got, (3.75, -4.0, -15.0))) and r["class"] == "unstable",
             f"row {r} is not f1=3.75, f2=-4, delta=-15")
    elif cmd == "index":
        model = ref.Model("fkdv", float(opt["--beta"]), float(opt["--gamma"]), delta=1.5)
        want(len(rows) == int(opt["--nk"]), f"{len(rows)} rows")
        bad = 0
        for r in rows:
            f_ok, lab = factors_match(model, float(r["k"]), float(r["f1"]), float(r["f2"]))
            cls = {"U": "unstable", "S": "stable"}.get(lab)
            bad += not f_ok or (cls is not None and r["class"] != cls)
        want(bad == 0, f"{bad} rows differ from the closed form")
    elif cmd == "tc":
        tc = float(rows[0]["tc"])
        want(abs(tc - TC_PAPER[float(opt["--alpha"])]) <= 5e-3, f"tc={tc} is not within 5e-3 of the paper")
    elif cmd == "spectrum":
        eigs = [complex(float(r["re"]), float(r["im"])) for r in rows]
        summ = json.loads(stderr.strip().splitlines()[-1])
        model = ref.Model(sym, float(opt["--beta"]), float(opt["--gamma"]))
        a, N = float(opt["--a"]), int(opt.get("--N", 32))
        if a == 0:
            errs += check_zero_amplitude(model, float(opt["--k"]), float(opt["--xi"]), N, summ["window"], eigs)
        else:
            # kdv at k = 1 > kc is unstable; the spectrum is symmetric under lambda -> -conj(lambda)
            grow = summ["max_real_in_window"]
            want(grow > THRESHOLD and _close(grow, max(abs(z.real) for z in eigs), 1e-12), f"growth {grow}")
            worst = max(min(abs(-z.conjugate() - w) for w in eigs) for z in eigs)
            want(worst <= 1e-3 * grow, f"spectrum not symmetric about the imaginary axis ({worst:.2e})")
    elif cmd == "stokes":
        r = {k: float(v) for k, v in rows[0].items()}
        model = ref.Model(sym, r["beta"], r["gamma"])
        k = r["k"]
        A2 = float(2 * k * k / model.harmonic_denominator(k, 2))
        A3 = float(9 * k * k * A2 / model.harmonic_denominator(k, 3))
        c0 = r["beta"] * float(model.m(k)) + r["gamma"] / k**2
        want(_close(r["c0"], c0, 1e-12) and _close(r["A2"], A2, 1e-12) and _close(r["c2"], A2, 1e-12)
             and _close(r["A3"], A3, 1e-12), f"coefficients {r} != c0={c0}, A2=c2={A2}, A3={A3}")
        a = float(opt["--a"])
        want(0 < r["residual_norm"] <= a**4, f"residual {r['residual_norm']} exceeds a^4")
    elif cmd == "symbols":
        r = rows[0]
        want(r["h1"] == "true" and r["h2"] == "true" and abs(float(r["alpha_fit"]) - float(r["alpha"])) <= 0.05,
             f"hypothesis report {r}")
        if r["h3"] == "false":
            name, _, tail = sym.partition(":")
            model = ref.Model(name, 1.0, 1.0, T=float(tail.split("=")[1]))
            k = float(r["h3_first_violation"])
            want(any(ref.sign_change(lambda x: model.m(x) - model.m(n * x), k) for n in (2, 3)),
                 f"h3 violation at k={k} is not a harmonic collision")
    return errs


def check_cli_diagram(summary, files, n, rng) -> list:
    """Row and rect counts, region counts, a seeded sample of rows and the spot check."""
    errs = []
    rows = _rows(files[".csv"])
    if len(rows) != n * n:
        errs.append(f"diagram CSV has {len(rows)} rows, not {n * n}")
    root = ET.fromstring(files[".svg"])
    ns = "{http://www.w3.org/2000/svg}"
    cells = [g for g in root.iter(ns + "g") if g.get("id") == "cells"]
    n_rects = len(cells[0].findall(ns + "rect")) if cells else 0
    if n_rects != n * n:
        errs.append(f"diagram SVG has {n_rects} cell rects, not {n * n}")
    curves = _rows(files["-curves.csv"])
    if not curves or {r["curve"] for r in curves} - {"f1", "f2"}:
        errs.append("diagram curves CSV is empty or malformed")
    labels = np.array([r["label"] for r in rows]).reshape(n, n)
    for lab in ("S", "U"):
        if summary["region_counts"].get(lab) != ref.region_count(labels == lab):
            errs.append(f"diagram {lab} region count differs from the flood fill")
    bad = 0
    for idx in rng.choice(len(rows), size=min(100, len(rows)), replace=False):
        r = rows[int(idx)]
        model = ref.Model("whitham_st", 1.0, 0.1, T=float(r["T"]))
        f_ok, want = factors_match(model, float(r["k"]), float(r["f1"]), float(r["f2"]))
        if not f_ok or (want is not None and r["label"] != want):
            bad += 1
    if bad:
        errs.append(f"diagram CSV: {bad} sampled rows differ from the reference")
    spot = summary.get("spot_check", {})
    if spot.get("n") != len(spot.get("cells", [])) or not spot.get("cells"):
        errs.append(f"diagram spot check summary malformed: {spot}")
    return errs + check_spot_cells("whitham_st", 0.1, spot.get("cells", []))
