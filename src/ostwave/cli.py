"""Command-line front end.

Subcommands mirror the library modules:

    symbols   hypothesis scan of a dispersion symbol
    stokes    small-amplitude wave coefficients (+ optional profile table)
    index     stability index at one k or over a sweep
    kc        critical wavenumbers (closed form where available)
    tc        surface-tension threshold T_c(alpha)
    spectrum  truncated sideband eigenvalues near the origin
    diagram   (k, T) stability diagram with zero-locus curves

All tables emit as CSV (header row, 17 significant digits) or JSON (an
array of flat objects); per-run scalar summaries go to stderr as a
single JSON line.  Exit codes: 0 success, 1 domain failure (resonance,
inconclusive tension, no root, failed eigen-solve), 2 usage error.  If
the environment variable OSTWAVE_OUT_DIR is set, relative --out/--svg
paths land there.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import critical, floquet_hill, mi_index, svg
from .errors import DomainError
from .stokes import expand, profile, residual_norm
from .symbols import ModelParams, check_hypotheses, make_symbol, parse_symbol_spec

ENV_OUT_DIR = "OSTWAVE_OUT_DIR"


# ---------------------------------------------------------------------------
# serialization


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _resolve_path(path):
    if path is None:
        return None
    base = os.environ.get(ENV_OUT_DIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def emit(records, fmt: str = "csv", path=None, fieldnames=None) -> None:
    """Write records as CSV (17 significant digits) or a JSON array."""
    records = list(records)
    if fieldnames is None:
        if not records:
            raise ValueError("fieldnames required for an empty record list")
        fieldnames = list(records[0].keys())
    path = _resolve_path(path)

    if fmt == "json":
        text = json.dumps(records, indent=1) + "\n"
    elif fmt == "csv":
        buf = []
        buf.append(",".join(fieldnames))
        for rec in records:
            buf.append(",".join(_csv_cell(rec.get(name)) for name in fieldnames))
        text = "\n".join(buf) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _summary(payload: dict) -> None:
    print(json.dumps(payload), file=sys.stderr)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_model_args(sub, need_symbol: bool = True):
    if need_symbol:
        sub.add_argument("--symbol", required=True, help="symbol spec, e.g. fkdv:delta=1.5")
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="sets beta=sign(alpha), gamma=|alpha| (exclusive with --beta/--gamma)",
    )
    sub.add_argument("--T", type=float, default=None, help="surface tension (overrides spec)")
    sub.add_argument("--delta", type=float, default=None, help="fractional order (overrides spec)")


def _add_io_args(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _params(args) -> ModelParams:
    if args.alpha is not None:
        if args.beta is not None or args.gamma is not None:
            raise ValueError("--alpha is mutually exclusive with --beta/--gamma")
        return critical.params_from_alpha(args.alpha)
    if args.beta is None or args.gamma is None:
        raise ValueError("provide both --beta and --gamma, or --alpha")
    return ModelParams(beta=args.beta, gamma=args.gamma)


def _alpha(args) -> float:
    if args.alpha is not None:
        return args.alpha
    if args.beta is not None and args.gamma is not None:
        return args.gamma / args.beta
    raise ValueError("provide --alpha, or --beta and --gamma")


def _symbol(args):
    s = parse_symbol_spec(args.symbol)
    overrides = {}
    if args.T is not None:
        overrides["T"] = args.T
    if args.delta is not None:
        overrides["delta"] = args.delta
    if overrides:
        merged = dict(s.params)
        merged.update(overrides)
        s = make_symbol(s.name, merged)
    return s


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_symbols(args) -> None:
    s = _symbol(args)
    rep = check_hypotheses(s, kmax=args.kmax, n_samples=args.n_samples)
    rec = {
        "name": rep.name,
        "h1": rep.h1_ok,
        "h2": rep.h2_ok,
        "h3": rep.h3_ok,
        "alpha": rep.alpha,
        "alpha_fit": rep.alpha_fit,
        "c1": rep.c1,
        "c2": rep.c2,
        "h3_first_violation": rep.h3_first_violation,
        "kmax": rep.kmax,
        "n_samples": rep.n_samples,
    }
    emit([rec], args.format, args.out)


def cmd_stokes(args) -> None:
    s = _symbol(args)
    p = _params(args)
    wave = expand(s, p, args.k)
    rec = {
        "k": wave.k,
        "beta": p.beta,
        "gamma": p.gamma,
        "c0": wave.c0,
        "c2": wave.c2,
        "A2": wave.A2,
        "A3": wave.A3,
        "residual_norm": residual_norm(wave, args.a, args.n_modes),
    }
    if args.profile_samples > 0:
        zs = np.linspace(0.0, 2.0 * math.pi, args.profile_samples, endpoint=False)
        rows = [{"z": float(z), "w": float(profile(wave, args.a, z)), "order": 3} for z in zs]
        emit(rows, args.format, args.out)
        _summary(rec)
    else:
        emit([rec], args.format, args.out)


def cmd_index(args) -> None:
    s = _symbol(args)
    p = _params(args)
    if args.k is not None:
        ks = [args.k]
    elif args.k_min is not None and args.k_max is not None:
        ks = np.linspace(args.k_min, args.k_max, args.nk)
    else:
        raise ValueError("provide --k, or --k-min/--k-max (optionally --nk)")
    r = mi_index.index(s, p, ks)
    names = ("k", "f1", "f2", "delta", "ratio", "class")
    values = (r.k, r.f1, r.f2, r.delta, r.ratio, r.classification)
    rows = [dict(zip(names, row)) for row in zip(*(v.tolist() for v in values))]
    emit(rows, args.format, args.out)


_CLOSED_FORM_MODELS = ("kdv", "fkdv", "kdv_st")


def cmd_kc(args) -> None:
    s = _symbol(args)
    p = _params(args)
    if s.name in _CLOSED_FORM_MODELS and not args.numeric:
        results = [critical.kc_closed_form(s.name, p, s.params)]
    else:
        results = critical.kc_numeric(s, p, bracket=(args.k_min, args.k_max), n_probe=args.n_probe)
    rows = []
    for r in results:
        row = {"model": r.model, "mechanism": r.mechanism, "kc": r.kc, "method": r.method}
        row.update(r.params)
        rows.append(row)
    emit(rows, args.format, args.out)


def cmd_tc(args) -> None:
    s = parse_symbol_spec(args.symbol)
    alpha = _alpha(args)
    tc = critical.tc_of_alpha(s.name, alpha, tol=args.tol)
    emit(
        [{"variant": s.name, "alpha": alpha, "tc": tc, "tol": args.tol}],
        args.format,
        args.out,
    )


def cmd_spectrum(args) -> None:
    s = _symbol(args)
    p = _params(args)
    if args.xi == 0:
        raise ValueError("xi = 0 is excluded; choose xi in (0, 1/2]")
    wave = expand(s, p, args.k)
    problem = floquet_hill.FloquetProblem(wave, args.a, args.xi, args.N)
    window = args.window if args.window is not None else floquet_hill.default_window(p)
    result = floquet_hill.spectrum(problem, window)
    rows = [{"re": float(ev.real), "im": float(ev.imag)} for ev in result.eigenvalues]
    emit(rows, args.format, args.out, fieldnames=["re", "im"])
    _summary(
        {
            "max_real_in_window": result.max_real_in_window,
            "N": result.N,
            "xi": args.xi,
            "a": args.a,
            "window": result.window_radius,
        }
    )


def cmd_diagram(args) -> None:
    s = parse_symbol_spec(args.symbol)
    alpha = _alpha(args)
    diag = critical.diagram(
        s.name, alpha, k_max=args.k_max, t_max=args.t_max, nk=args.nk, nt=args.nt
    )
    emit(
        diag.to_records(),
        args.format,
        args.out,
        fieldnames=["k", "T", "k_sqrtT", "label", "f1", "f2", "delta"],
    )
    if args.curves_out:
        emit(
            diag.curve_records(),
            args.format,
            args.curves_out,
            fieldnames=["curve", "k", "T", "k_sqrtT"],
        )
    if args.svg:
        svg.write_svg(diag, _resolve_path(args.svg))
    summary = {"region_counts": diag.region_counts, "t_s": diag.t_s}
    if args.spot_check > 0:
        checks = critical.spot_check(
            diag, n_cells=args.spot_check, a=args.a, xi=args.xi, N=args.N, seed=args.seed
        )
        summary["spot_check"] = {
            "n": len(checks),
            "ok": sum(1 for c in checks if c["ok"]),
            "cells": checks,
        }
    _summary(summary)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostwave",
        description="Sideband stability of small-amplitude periodic waves "
        "of rotation-modified dispersive model equations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("symbols", help="hypothesis scan of a dispersion symbol")
    _add_model_args(sp)
    _add_io_args(sp)
    sp.add_argument("--kmax", type=float, default=100.0)
    sp.add_argument("--n-samples", type=int, default=400)
    sp.set_defaults(func=cmd_symbols)

    sp = subs.add_parser("stokes", help="small-amplitude wave coefficients")
    _add_model_args(sp)
    _add_io_args(sp)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--a", type=float, default=0.01)
    sp.add_argument("--n-modes", type=int, default=16)
    sp.add_argument("--profile-samples", type=int, default=0)
    sp.set_defaults(func=cmd_stokes)

    sp = subs.add_parser("index", help="stability index at k or over a sweep")
    _add_model_args(sp)
    _add_io_args(sp)
    sp.add_argument("--k", type=float, default=None)
    sp.add_argument("--k-min", type=float, default=None)
    sp.add_argument("--k-max", type=float, default=None)
    sp.add_argument("--nk", type=int, default=100)
    sp.set_defaults(func=cmd_index)

    sp = subs.add_parser("kc", help="critical wavenumbers")
    _add_model_args(sp)
    _add_io_args(sp)
    sp.add_argument("--numeric", action="store_true", help="force bisection even for kdv/fkdv/kdv_st")
    sp.add_argument("--k-min", type=float, default=1e-2)
    sp.add_argument("--k-max", type=float, default=1e2)
    sp.add_argument("--n-probe", type=int, default=400)
    sp.set_defaults(func=cmd_kc)

    sp = subs.add_parser("tc", help="surface-tension threshold T_c(alpha)")
    _add_model_args(sp)
    _add_io_args(sp)
    sp.add_argument("--tol", type=float, default=5e-3)
    sp.set_defaults(func=cmd_tc)

    sp = subs.add_parser("spectrum", help="sideband eigenvalues near the origin")
    _add_model_args(sp)
    _add_io_args(sp)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--a", type=float, default=0.01)
    sp.add_argument("--xi", type=float, default=1e-3)
    sp.add_argument("--N", type=int, default=32)
    sp.add_argument("--window", type=float, default=None)
    sp.set_defaults(func=cmd_spectrum)

    sp = subs.add_parser("diagram", help="(k, T) stability diagram")
    _add_model_args(sp)
    _add_io_args(sp)
    sp.add_argument("--k-max", type=float, default=2.0)
    sp.add_argument("--t-max", type=float, default=0.8)
    sp.add_argument("--nk", type=int, default=100)
    sp.add_argument("--nt", type=int, default=100)
    sp.add_argument("--curves-out", default=None, help="also write the zero-locus curves here")
    sp.add_argument("--svg", default=None, help="write an SVG rendering here")
    sp.add_argument("--spot-check", type=int, default=0, help="re-validate N random cells")
    sp.add_argument("--a", type=float, default=0.01)
    sp.add_argument("--xi", type=float, default=1e-3)
    sp.add_argument("--N", type=int, default=32)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_diagram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
