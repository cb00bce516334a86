"""Run one ostwave CLI call with the per-layer tracer installed.

    python benchmark/cli_traced.py TRACE_JSON [ostwave arguments ...]

The call behaves as ``python -m ostwave.cli``; the tracer's totals are
written to TRACE_JSON when it returns.
"""

from __future__ import annotations

import json
import sys

import ostwave.cli
import tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    trace = tracer.Tracer().install()
    try:
        return ostwave.cli.main(argv)
    finally:
        trace.uninstall()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
