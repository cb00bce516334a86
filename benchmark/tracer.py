"""Per-layer tracing of ostwave from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces every
public function of each loaded ostwave module, wherever a module of the
package has bound it by name, with a timing wrapper; it wraps the symbol
evaluators of ``DispersionSymbol`` and the ``brentq``/``minimize_scalar``
bindings of ``ostwave.critical`` as well.  Nothing inside the package
changes: ``uninstall`` puts every original back.

Each wrapped call is a span.  Spans are folded into per-function totals in
memory as they close (calls, inclusive seconds, self seconds, where self
time is the span's duration minus that of the wrapped calls it made) and
``snapshot`` hands the totals over at the end of the run.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

LAYERS = ("symbols", "stokes", "mi_index", "floquet_hill", "critical", "cli", "svg")
EVALUATORS = ("m", "m1", "m2", "m_even", "m1_odd", "m2_even")


class Tracer:
    def __init__(self):
        # frame: [layer, key, seconds spent in child spans]
        self.stack = [["bench", "bench", 0.0]]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.entries = defaultdict(int)  # calls entering a layer from another one
        self.counts = defaultdict(int)
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer, key, fn, before=None, after=None):
        tracer, perf = self, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            tracer.calls[key] += 1
            if stack[-1][0] != layer:
                tracer.entries[layer] += 1
            if before is not None:
                args = before(tracer, args)
            frame = [layer, key, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stack[-1][2] += dur
                tracer.incl[key] += dur
                tracer.self_s[key] += dur - frame[2]
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _counted(self, key, fn, count_fevals=False):
        """Count calls of a solver; with count_fevals, also its objective calls."""
        tracer = self

        def wrapper(f, *args, **kwargs):
            tracer.calls[key] += 1
            if count_fevals:
                inner = f

                def f(*a, **kw):
                    tracer.counts[key + ".fevals"] += 1
                    return inner(*a, **kw)

            return fn(f, *args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        modules = [m for m in (sys.modules.get(f"ostwave.{n}") for n in LAYERS) if m is not None]
        bound = [sys.modules["ostwave"], *modules]
        hooks = {
            "make_symbol": (_count_examined, None),
            "spot_check": (None, _count_validated),
            "emit": (_count_rows, None),
        }
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                before, after = hooks.get(name, (None, None))
                wrapped = self._span(layer, f"{layer}.{name}", fn, before, after)
                for owner in bound:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, attr, wrapped)
        symbols = sys.modules["ostwave.symbols"]
        for name in EVALUATORS:
            fn = getattr(symbols.DispersionSymbol, name)
            self._set(
                symbols.DispersionSymbol,
                name,
                self._span("symbols", f"symbols.{name}", fn, _count_points),
            )
        critical = sys.modules["ostwave.critical"]
        self._set(critical, "brentq", self._counted("critical.brentq", critical.brentq, True))
        self._set(critical, "minimize_scalar", self._counted("critical.minimize", critical.minimize_scalar))
        return self

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self_s": dict(self.self_s),
            "entries": dict(self.entries),
            "counts": dict(self.counts),
        }


# -- hooks: counters kept at the layer boundary --------------------------------


def _count_points(tracer, args):
    k = args[1]
    tracer.counts["symbols.points"] += int(getattr(k, "size", 1))
    return args


def _count_examined(tracer, args):
    if tracer.stack[-1][1] == "critical.spot_check":
        tracer.counts["critical.spot_check.examined"] += 1
    return args


def _count_validated(tracer, result):
    tracer.counts["critical.spot_check.validated"] += len(result)


def _count_rows(tracer, args):
    records = list(args[0])
    tracer.counts["cli.rows_emitted"] += len(records)
    return (records, *args[1:])


# -- metrics -------------------------------------------------------------------


def merge(snapshots) -> dict:
    total = {"calls": {}, "incl": {}, "self_s": {}, "entries": {}, "counts": {}}
    for snap in snapshots:
        for table, values in snap.items():
            for key, value in values.items():
                total[table][key] = total[table].get(key, 0) + value
    return total


def layer_metrics(snap: dict, rounds: int) -> dict:
    """The per-layer metrics, each per round, from merged tracer totals."""

    def self_of(layer):
        return sum(v for k, v in snap["self_s"].items() if k.startswith(layer + "."))

    calls, incl, counts = snap["calls"], snap["incl"], snap["counts"]
    examined = counts.get("critical.spot_check.examined", 0)
    validated = counts.get("critical.spot_check.validated", 0)
    values = {
        "symbols.calls": (snap["entries"].get("symbols", 0), "count"),
        "symbols.points": (counts.get("symbols.points", 0), "count"),
        "symbols.self_s": (self_of("symbols"), "s"),
        "mi_index.index.calls": (calls.get("mi_index.index", 0), "count"),
        "mi_index.self_s": (self_of("mi_index"), "s"),
        "mi_index.pencil.calls": (
            calls.get("mi_index.bmatrix_det_roots", 0) + calls.get("mi_index.assemble_b_matrix", 0),
            "count",
        ),
        "stokes.expand.calls": (calls.get("stokes.expand", 0), "count"),
        "stokes.self_s": (self_of("stokes"), "s"),
        "critical.brentq.calls": (calls.get("critical.brentq", 0), "count"),
        "critical.brentq.fevals": (counts.get("critical.brentq.fevals", 0), "count"),
        "critical.minimize.calls": (calls.get("critical.minimize", 0), "count"),
        "critical.self_s": (self_of("critical"), "s"),
        "critical.spot_check.examined": (examined, "cells"),
        "floquet_hill.solves": (calls.get("floquet_hill.spectrum", 0), "count"),
        "floquet_hill.assemble_s": (incl.get("floquet_hill.assemble", 0.0), "s"),
        "floquet_hill.eig_s": (snap["self_s"].get("floquet_hill.spectrum", 0.0), "s"),
        "cli.self_s": (self_of("cli"), "s"),
        "cli.emit_s": (incl.get("cli.emit", 0.0), "s"),
        "cli.rows_emitted": (counts.get("cli.rows_emitted", 0), "count"),
        "svg.write_s": (incl.get("svg.write_svg", 0.0), "s"),
    }
    out = {name: {"value": value / rounds, "unit": unit} for name, (value, unit) in values.items()}
    out["critical.spot_check.yield"] = {
        "value": validated / examined if examined else 0.0,
        "unit": "ratio",
    }
    return out
