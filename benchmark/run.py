"""Run one workload of the ostwave benchmark and print its result.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree: the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer ones.  See README.md.
"""

from __future__ import annotations

import os

# each workload is one single-threaded process; set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# one CPU for this process and the children it starts: on a shared virtual
# machine the same call ran 1.6x slower on one CPU than on the other, and a
# process that migrates between them times both.  The last CPU was the
# steadier one there.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from clock import EVERY_S, Clock  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {w.name: w for w in (wl.DiagramGrid, wl.CriticalSearch, wl.HillOracle, wl.CliCold)}

END_TO_END = (
    "setup_s",
    "peak_rss_mb",
    "diagram_cells_per_s",
    "searches_per_s",
    "tc_s",
    "hill_n32_ms",
    "hill_n256_ms",
    "oracle_cells_per_s",
    "oracle_unstable_checked",
    "cli_call_s",
    "cli_diagram_s",
)
# the workload whose probe rounds report a metric a run's workload does not own
PROBED_BY = {
    "diagram_cells_per_s": "diagram-grid",
    "searches_per_s": "critical-search",
    "tc_s": "critical-search",
    "hill_n32_ms": "hill-oracle",
    "hill_n256_ms": "hill-oracle",
    "oracle_cells_per_s": "hill-oracle",
    "oracle_unstable_checked": "hill-oracle",
    "cli_call_s": "cli-cold",
    "cli_diagram_s": "cli-cold",
}
SETUP_REPEATS = 5
PROBE_EVERY_S = 1.5
CHILD_TIMEOUT_S = 150


@dataclass
class Context:
    root: str
    bench_dir: str
    out_dir: str
    env: dict
    clock: Clock
    tracing: bool = False


def child(argv, ctx) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ctx.root, env=ctx.env, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S
    )


def setup_seconds(ctx) -> float:
    """Median time of ``import ostwave`` in fresh interpreters, scaled by ``ctx.clock``."""
    code = "import time; t = time.perf_counter(); import ostwave; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_REPEATS):
        with ctx.clock.span() as span:
            seconds = float(child([sys.executable, "-c", code], ctx).stdout)
        times.append(seconds * ctx.clock.scale(span.t0, span.t1))
    return statistics.median(times)


def cumulative_import_ms(lines, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` lines.

    A package loaded through ``scipy``'s lazy attribute access has no line of
    its own; then its outermost submodules' cumulative times are summed.
    """
    entries = []
    for line in lines:
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    own = [us for _, name, us in entries if name == module]
    if own:
        return own[0] / 1000.0
    subs = [(depth, us) for depth, name, us in entries if name.startswith(module + ".")]
    top = min((depth for depth, _ in subs), default=None)
    return sum(us for depth, us in subs if depth == top) / 1000.0


def import_profile(ctx) -> dict:
    """Cumulative import times from ``-X importtime``, median of SETUP_REPEATS fresh interpreters."""
    wanted = {"ostwave": "import.ostwave_ms", "scipy.ndimage": "import.scipy_ndimage_ms",
              "scipy.optimize": "import.scipy_optimize_ms"}
    samples = {metric: [] for metric in wanted.values()}
    for _ in range(SETUP_REPEATS):
        lines = child([sys.executable, "-X", "importtime", "-c", "import ostwave"], ctx).stderr.splitlines()
        for module, metric in wanted.items():
            samples[metric].append(cumulative_import_ms(lines, module))
    return {metric: {"value": statistics.median(v), "unit": "ms"} for metric, v in samples.items()}


def run_rounds(work, probes, seconds: float) -> int:
    """Whole rounds of ``work`` until the round boundary nearest to ``seconds``;
    returns the count.  At a pause of the round, once PROBE_EVERY_S has passed
    since the last probe round, one round of each probe runs."""
    last = time.perf_counter()

    def between():
        nonlocal last
        if probes and time.perf_counter() - last >= PROBE_EVERY_S:
            for p in probes:
                p.round()
            last = time.perf_counter()

    t0 = time.perf_counter()
    n = 0
    while True:
        work.round(between)
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / n >= seconds:
            return n


def timed_run(ctx, work, seconds, seed) -> dict:
    """End-to-end metrics.  At each pause of the workload's rounds, one probe
    round runs of every workload owning a metric this one does not exercise;
    probe operations are checked but not counted as attempted."""
    setup = setup_seconds(ctx)
    owners = sorted({PROBED_BY[m] for m in PROBED_BY if m not in work.owns})
    probes = [WORKLOADS[name](ctx, seed, probe=True) for name in owners]
    for w in (work, *probes):
        w.prepare()
    run_rounds(work, probes, seconds)
    ctx.clock.sample()  # the last operations get a calibration run after them too
    metrics = {"setup_s": (setup, "s"), "peak_rss_mb": (work.peak_rss_mb(), "MB")}
    errors = work.check()
    for p in probes:
        errors += [f"probe {p.name}: {e}" for e in p.check()]
        metrics.update({k: v for k, v in p.metrics().items() if k not in work.owns})
    metrics.update(work.metrics())
    return {"metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in END_TO_END}, "errors": errors}


def traced_run(ctx, work, seconds) -> dict:
    """Per-layer metrics.  After one untraced warm-up round, untraced and traced
    rounds alternate until ``seconds``; the ratio of their wall times is the
    tracing overhead."""
    work.prepare()
    work.round()
    trace = tracer.Tracer()
    plain = traced = 0.0
    rounds = 0
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        work.round()
        t1 = time.perf_counter()
        if isinstance(work, wl.CliCold):
            ctx.tracing = True  # each CLI child runs under its own tracer
            work.round()
            ctx.tracing = False
        else:
            trace.install()
            try:
                work.round()
            finally:
                trace.uninstall()
        t2 = time.perf_counter()
        plain, traced, rounds = plain + t1 - t0, traced + t2 - t1, rounds + 1
        elapsed = t2 - t_start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    if isinstance(work, wl.CliCold):
        snaps = []
        for path in work.trace_files:
            with open(path, encoding="utf-8") as fh:
                snaps.append(json.load(fh))
        snap = tracer.merge(snaps)
    else:
        snap = trace.snapshot()
    with open(os.path.join(ctx.out_dir, f"trace-{work.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=1, sort_keys=True)
    metrics = tracer.layer_metrics(snap, rounds)
    metrics["trace.overhead"] = {"value": traced / plain, "unit": "ratio"}
    metrics.update(import_profile(ctx))
    return {"metrics": metrics, "errors": work.check()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ostwave", "__init__.py")):
        print(f"error: no ostwave sources under {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    # a traced run reports no timings that need the calibration kernel
    ctx = Context(ROOT, BENCH_DIR, out_dir, env, Clock(float("inf") if args.trace else EVERY_S))
    # byte-compile first, so no timed import pays for it
    compileall.compile_dir(os.path.join(SRC, "ostwave"), quiet=1)
    sys.path.insert(0, SRC)

    work = WORKLOADS[args.workload](ctx, args.seed)
    out = traced_run(ctx, work, args.seconds) if args.trace else timed_run(ctx, work, args.seconds, args.seed)
    for err in out["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not out["errors"],
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": out["metrics"],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
