"""Command-line front end.

Subcommands mirror the library modules:

    symbols   hypothesis scan of a dispersion symbol
    stokes    small-amplitude wave coefficients
    index     stability index at one k or over a sweep
    kc        critical wavenumbers (closed form where available)
    tc        surface-tension threshold T_c(alpha)
    spectrum  truncated sideband eigenvalues near the origin
    diagram   (k, T) stability diagram with zero-locus curves

``tc`` and ``diagram`` take a bare family name and the model as
``--alpha`` alone.  All tables emit as CSV (header row, floats to 17 significant digits as
Python spells them: ``nan``, ``inf``, ``-0``) or JSON (an array of flat
objects carrying the same floats); per-run scalar summaries go to stderr
as a single JSON line.  The diagram grid has the columns
``k,T,k_sqrtT,label,f1,f2,delta``, one row per cell, T rows ascending
and k ascending within a row; its SVG holds one rect per cell.  Exit
codes: 0 success, 1 domain failure (resonance, inconclusive tension, no
root, failed eigen-solve), 2 usage error, including a flag abbreviated
to a prefix, ``index --k`` given with a sweep flag, and ``--beta`` or
``--gamma`` given to ``tc`` or ``diagram``.  The desk scale is
``floquet_hill``'s ``DESK_A`` = 0.01, ``DESK_XI`` = 1e-3 and ``DEFAULT_N``
= 32: ``spectrum``'s ``--a``, ``--xi`` and ``--N`` default to it, and
``diagram --spot-check`` checks its cells at it.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import critical, floquet_hill, mi_index, svg
from .errors import DomainError
from .stokes import expand, residual_norm
from .symbols import ModelParams, check_hypotheses, parse_symbol_spec


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


def emit(records, fmt: str = "csv", path=None, fieldnames=None) -> None:
    """Write records as CSV (17 significant digits) or a JSON array."""
    records = list(records)
    if fieldnames is None:
        if not records:
            raise ValueError("fieldnames required for an empty record list")
        fieldnames = list(records[0].keys())

    if fmt == "json":
        text = json.dumps(records, indent=1) + "\n"
    elif fmt == "csv":
        # one formatter per column: a column of exact floats is written by one "%.17g"
        # %-format of the whole column, the digits of _csv_cell's format(value, ".17g")
        columns = []
        for name in fieldnames:
            values = [rec.get(name) for rec in records]
            if set(map(type, values)) == {float}:
                columns.append(("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n"))
            else:
                columns.append(map(_csv_cell, values))
        text = "\n".join([",".join(fieldnames), *map(",".join, zip(*columns))]) + "\n"
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


def _add_model_args(sub):
    sub.add_argument("--symbol", required=True, help="symbol spec, e.g. fkdv:delta=1.5")
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="sets beta=sign(alpha), gamma=|alpha| (exclusive with --beta/--gamma)",
    )


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


def _family(args) -> str:
    """The family named by --symbol for tc and diagram, which read a bare name and --alpha alone."""
    if ":" in args.symbol:
        raise ValueError(f"{args.command} takes a family name, not the symbol spec {args.symbol!r}")
    if args.alpha is None or args.beta is not None or args.gamma is not None:
        raise ValueError(f"{args.command} takes the model as --alpha alone, not --beta/--gamma")
    return parse_symbol_spec(args.symbol).name


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_symbols(args) -> None:
    rep = check_hypotheses(parse_symbol_spec(args.symbol))
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
    s = parse_symbol_spec(args.symbol)
    p = _params(args)
    wave = expand(s, p, args.k)
    rec = {
        "k": wave.k,
        "beta": p.beta,
        "gamma": p.gamma,
        "c0": wave.c0,
        "c2": wave.A2,
        "A2": wave.A2,
        "A3": wave.A3,
        "residual_norm": residual_norm(wave, args.a),
    }
    emit([rec], args.format, args.out)


def cmd_index(args) -> None:
    s = parse_symbol_spec(args.symbol)
    p = _params(args)
    if args.k is not None:
        if (args.k_min, args.k_max, args.nk) != (None, None, None):
            raise ValueError("--k is exclusive with --k-min/--k-max/--nk")
        ks = [args.k]
    elif args.k_min is not None and args.k_max is not None:
        ks = np.linspace(args.k_min, args.k_max, 100 if args.nk is None else args.nk)
    else:
        raise ValueError("provide --k, or --k-min/--k-max (optionally --nk)")
    r = mi_index.index(s, p, ks)
    names = ("k", "f1", "f2", "delta", "ratio", "class")
    values = (r.k, r.f1, r.f2, r.delta, r.ratio, r.classification)
    rows = [dict(zip(names, row)) for row in zip(*(v.tolist() for v in values))]
    emit(rows, args.format, args.out, fieldnames=names)


def cmd_kc(args) -> None:
    s = parse_symbol_spec(args.symbol)
    p = _params(args)
    if s.power_law is not None and not args.numeric:
        results = [critical.kc_closed_form(s, p)]
    else:
        results = critical.kc_numeric(s, p)
    rows = []
    for r in results:
        row = {"model": r.model, "mechanism": r.mechanism, "kc": r.kc, "method": r.method}
        row.update(r.params)
        rows.append(row)
    emit(rows, args.format, args.out)


def cmd_tc(args) -> None:
    family = _family(args)
    tc = critical.tc_of_alpha(family, args.alpha)
    emit([{"variant": family, "alpha": args.alpha, "tc": tc}], args.format, args.out)


def cmd_spectrum(args) -> None:
    s = parse_symbol_spec(args.symbol)
    p = _params(args)
    wave = expand(s, p, args.k)
    problem = floquet_hill.FloquetProblem(wave, args.a, args.xi, args.N)
    window = floquet_hill.default_window(p)
    result = floquet_hill.spectrum(problem, window)
    rows = [{"re": float(ev.real), "im": float(ev.imag)} for ev in result.eigenvalues]
    emit(rows, args.format, args.out, fieldnames=["re", "im"])
    _summary(
        {
            "max_real_in_window": result.max_real_in_window,
            "N": problem.N,
            "xi": args.xi,
            "a": args.a,
            "window": window,
        }
    )


def cmd_diagram(args) -> None:
    family = _family(args)
    diag = critical.diagram(
        family, args.alpha, k_max=args.k_max, t_max=args.t_max, nk=args.nk, nt=args.nt
    )
    summary = {"region_counts": diag.region_counts, "t_s": diag.t_s}
    if args.spot_check != 0:
        # before the first write: a refused or failed check leaves no output behind
        checks = critical.spot_check(diag, n_cells=args.spot_check, seed=args.seed)
        summary["spot_check"] = {
            "n": len(checks),
            "ok": sum(1 for c in checks if c["ok"]),
            "cells": checks,
        }
    emit(diag.to_records(), args.format, args.out)
    if args.curves_out:
        # the curve table can be empty, so it names its columns
        emit(
            diag.curve_records(),
            args.format,
            args.curves_out,
            fieldnames=["curve", "k", "T", "k_sqrtT"],
        )
    if args.svg:
        svg.write_svg(diag, args.svg)
    _summary(summary)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostwave",
        description="Sideband stability of small-amplitude periodic waves "
        "of rotation-modified dispersive model equations.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        # a prefix of a flag is refused: "--a" would otherwise parse as "--alpha"
        sp = subs.add_parser(name, help=summary, allow_abbrev=False)
        _add_model_args(sp)
        _add_io_args(sp)
        sp.set_defaults(func=func)
        return sp

    command("symbols", cmd_symbols, "hypothesis scan of a dispersion symbol")

    sp = command("stokes", cmd_stokes, "small-amplitude wave coefficients")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--a", type=float, default=0.01)

    sp = command("index", cmd_index, "stability index at k or over a sweep")
    sp.add_argument("--k", type=float, default=None)
    sp.add_argument("--k-min", type=float, default=None)
    sp.add_argument("--k-max", type=float, default=None)
    sp.add_argument("--nk", type=int, default=None)

    sp = command("kc", cmd_kc, "critical wavenumbers")
    sp.add_argument("--numeric", action="store_true", help="force the Brent scan even for kdv/fkdv/kdv_st")

    command("tc", cmd_tc, "surface-tension threshold T_c(alpha)")

    sp = command("spectrum", cmd_spectrum, "sideband eigenvalues near the origin")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--a", type=float, default=floquet_hill.DESK_A)
    sp.add_argument("--xi", type=float, default=floquet_hill.DESK_XI)
    sp.add_argument("--N", type=int, default=floquet_hill.DEFAULT_N)

    sp = command("diagram", cmd_diagram, "(k, T) stability diagram")
    sp.add_argument("--k-max", type=float, default=2.0)
    sp.add_argument("--t-max", type=float, default=0.8)
    sp.add_argument("--nk", type=int, default=100)
    sp.add_argument("--nt", type=int, default=100)
    sp.add_argument("--curves-out", default=None, help="also write the zero-locus curves here")
    sp.add_argument("--svg", default=None, help="write an SVG rendering here")
    sp.add_argument("--spot-check", type=int, default=0, help="re-validate N random cells")
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
