"""One traced ``bellbound`` CLI invocation.

    python3 bench/cli_child.py OUT.json CLI-ARGS...

Stands in for ``python -m bellbound.cli CLI-ARGS...`` in the traced run.
It times the numpy import and the ``bellbound.cli`` import, runs
``bellbound.cli.main`` with the library functions wrapped in spans, and writes
the timings and spans to OUT.json.  The first statement reads the clock, so
the parent can take interpreter start-up as that reading minus its own
reading before the spawn (both are CLOCK_MONOTONIC).
"""
import time

T_START_NS = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import numpy  # noqa: F401
    t1 = time.perf_counter_ns()
    import bellbound.cli as cli
    t2 = time.perf_counter_ns()

    import tracing

    tracer = tracing.Tracer()
    code = 1
    try:
        with tracer:
            code = tracer.call("cli.main", cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "start_ns": T_START_NS,
                "import_numpy_ms": (t1 - t0) / 1e6,
                "import_ms": (t2 - t0) / 1e6,
                "spans": [s.to_json() for s in tracer.spans],
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
