"""Measuring process: one workload, one seed, one run.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
    python3 bench/worker.py --setup-probe --workload NAME --work-dir DIR
    python3 bench/worker.py --full-domain --workload NAME --seed N --seconds S --work-dir DIR

run.py starts it in a fresh process with the pinned environment.  It prints
one JSON object on stdout.

The untraced run (--trace 0) times each operation and stops once the
operations have taken S seconds in total.  Each result is checked right
after its operation, outside the timed interval.  Between operations a fixed
reference kernel samples the machine's speed, and the reported times are
scaled to a nominal speed.  The traced run (--trace 1) runs the untraced
loop for S/2 seconds, replays the same inputs with the layer functions
wrapped in spans, and reports per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter, perf_counter_ns

import tracing
from workloads import FULL_DOMAIN, WORKLOADS, Tally


SLICES = 10                 # the run is cut into this many slices of equal operation time
REF_EVERY_NS = 20_000_000   # one reference-kernel sample per 20 ms of operation time
REF_NOMINAL_NS = 1_000_000  # nominal machine speed: the reference kernel takes 1 ms
CLI_REF_EVERY_NS = 1_000_000_000   # cli_cold: one start-up sample per second of operation time
CLI_REF_NOMINAL_NS = 200_000_000   # nominal speed: `python -c "import numpy"` takes 200 ms


def _reference_kernel() -> float:
    s = 0.0
    for k in range(1, 2701):
        s += math.lgamma(k) * 1e-3 + math.log(k)
    return s


def reference_ns(reps: int = 3) -> int:
    """The fastest of reps runs of a fixed pure-Python kernel, in ns: the
    machine's speed at this moment, independent of the program."""
    best = None
    for _ in range(reps):
        t0 = perf_counter_ns()
        _reference_kernel()
        dt = perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def cli_reference_ns() -> int:
    """The start-up time of an interpreter that imports numpy, scaled so that
    nominal speed reads REF_NOMINAL_NS.  A CLI invocation is mostly process
    start-up and imports, whose speed the pure-Python kernel tracks poorly
    on a shared machine; this does not depend on the program either."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return (perf_counter_ns() - t0) * REF_NOMINAL_NS // CLI_REF_NOMINAL_NS


def timed_loop(wl, ctx, inputs, budget_ns: int, after_op,
               reference=reference_ns, every_ns: int = REF_EVERY_NS):
    """Run operations until they have taken budget_ns in total.  Returns the
    per-operation latencies in ns and the reference samples as (operation
    time so far, reference ns), one per every_ns of operation time.
    after_op(x, out, error) and the reference run between operations,
    outside the timed interval.  A raised exception is a failed operation,
    never the end of the run."""
    latencies, total = array("q"), 0  # a list would grow RSS with the op count
    refs, last_ref = [], -every_ns
    for x in inputs:
        y = wl.prepare(ctx, x)
        t0 = perf_counter_ns()
        try:
            out, err = wl.op(ctx, y), None
        except Exception as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter_ns() - t0
        latencies.append(dt)
        total += dt
        after_op(x, out, err)
        if total - last_ref >= every_ns:
            refs.append((total, reference()))
            last_ref = total
        if total >= budget_ns:
            break
    return latencies, refs


def slices(latencies, refs, budget_ns: int) -> list[tuple[list[int], float]]:
    """Cut the run into SLICES consecutive slices of equal operation time.
    Returns (latencies, reference ns) for each non-empty slice.  An operation
    belongs to the slice in which it started; a slice's reference time is the
    median of the samples taken in it, or of the whole run if it has none."""
    lat = [[] for _ in range(SLICES)]
    ref = [[] for _ in range(SLICES)]

    def index(pos):
        return min(SLICES - 1, pos * SLICES // budget_ns)

    start = 0
    for dt in latencies:
        lat[index(start)].append(dt)
        start += dt
    for pos, r in refs:
        ref[index(pos)].append(r)
    overall = statistics.median(r for _, r in refs)
    return [(ls, statistics.median(rs) if rs else overall)
            for ls, rs in zip(lat, ref) if ls]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def end_to_end(latencies, refs, budget_ns, failed, tally, rss) -> dict:
    """Times are given at nominal machine speed: a slice's times are scaled
    by REF_NOMINAL_NS over the reference time measured during that slice,
    which removes the drift of a shared machine's speed.  Throughput is the
    median over the run's slices, so a slow phase shorter than half the run
    does not move it.  Latency quantiles are taken over every operation's
    scaled latency: a slice holds too few operations for a steady median
    when costs span decades.  The *_wall metrics are unscaled."""
    n = len(latencies)
    parts = slices(latencies, refs, budget_ns)
    scale = [REF_NOMINAL_NS / r for _, r in parts]
    tput = [len(ls) * 1e9 / sum(ls) for ls, _ in parts]
    scaled = sorted(dt * s for (ls, _), s in zip(parts, scale) for dt in ls)
    m = {
        "throughput_ops": (statistics.median(t / s for t, s in zip(tput, scale)), "1/s", n),
        "latency_p50_ms": (statistics.median(scaled) / 1e6, "ms", n),
        "peak_rss_mb": (rss, "MB", 1),
        "failed_frac": (failed / n, "frac", n),
        "max_rel_err": (tally.max_rel_err, "frac", tally.oracle_checks),
        "throughput_ops_wall": (statistics.median(tput), "1/s", n),
        "latency_p50_ms_wall": (statistics.median(latencies) / 1e6, "ms", n),
        "reference_ms": (statistics.median(r for _, r in refs) / 1e6, "ms", len(refs)),
    }
    if n >= 100:
        p90 = statistics.quantiles(scaled, n=10, method="inclusive")[-1]
        m["latency_p90_ms"] = (p90 / 1e6, "ms", n)
    if tally.ratios:
        m["bound_ratio_p50"] = (statistics.median(tally.ratios), "ratio",
                                len(tally.ratios))
    return m


def traced_pass(wl, ctx, inputs, work_dir):
    """Replay inputs with tracing on.  Returns the spans, the
    CLI start-up timings and the traced wall time in ns."""
    spans: list[tracing.Span] = []
    cli_timings: list[dict] = []
    total = 0
    if wl.name == "cli_cold":
        child_out = os.path.join(work_dir, "child.json")
        for x in inputs:
            t_spawn = perf_counter_ns()
            wl.traced_op(ctx, x, child_out)
            total += perf_counter_ns() - t_spawn
            with open(child_out, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(child_out)
            base = len(spans)
            for row in child["spans"]:
                s = tracing.Span.from_json(row)
                s.span_id += base
                s.parent_id = None if s.parent_id is None else s.parent_id + base
                spans.append(s)
            cli_timings.append({
                "interpreter_ms": (child["start_ns"] - t_spawn) / 1e6,
                "import_ms": child["import_ms"],
                "import_numpy_ms": child["import_numpy_ms"],
            })
        return spans, cli_timings, total
    tracer = tracing.Tracer()
    with tracer:
        for x in inputs:
            y = wl.prepare(ctx, x)
            t0 = perf_counter_ns()
            try:
                wl.op(ctx, y)
            except Exception:
                pass  # counted by the untraced run's checks
            total += perf_counter_ns() - t0
    return tracer.spans, cli_timings, total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--full-domain", action="store_true",
                    help="the workload's whole input ranges, known defects included")
    args = ap.parse_args()
    wl = (FULL_DOMAIN if args.full_domain else WORKLOADS)[args.workload]
    # One CPU for this process and the CLI children it starts, so the
    # reference kernel samples the speed of the core the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    t0 = perf_counter()
    ctx = wl.setup(args.work_dir, args.seed)
    setup_s = perf_counter() - t0
    if args.setup_probe:
        scale = REF_NOMINAL_NS / reference_ns(reps=5)
        print(json.dumps({"setup_s": setup_s * scale, "setup_s_wall": setup_s}))
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    budget_ns = int(seconds * 1e9)
    tally = Tally()
    inputs = []  # kept for the traced replay
    failed = 0

    def after_op(x, out, err):
        nonlocal failed
        if args.trace:
            inputs.append(x)
        if err is not None:
            tally.fail("raised", f"{x!r}: {err}")
            failed += 1
        elif not wl.check(ctx, x, out, tally):
            failed += 1

    sampling = ((cli_reference_ns, CLI_REF_EVERY_NS) if wl.name == "cli_cold"
                else (reference_ns, REF_EVERY_NS))
    latencies, refs = timed_loop(wl, ctx, wl.inputs(args.seed), budget_ns, after_op,
                                 *sampling)
    n = len(latencies)
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_in_worker_s": setup_s,
              "attempted": n, "failed": failed, "failures": tally.failures,
              "examples": tally.examples}
    if not args.trace:
        rss = peak_rss_mb(children=wl.name == "cli_cold")
        result["metrics"] = end_to_end(latencies, refs, budget_ns, failed, tally, rss)
    else:
        spans, cli_timings, traced_ns = traced_pass(wl, ctx, inputs, args.work_dir)
        untraced_ns = sum(latencies)
        metrics = tracing.layer_metrics(spans, n, cli_timings)
        metrics["trace.overhead_ms"] = ((traced_ns - untraced_ns) / n / 1e6, n)
        metrics["trace.overhead_frac"] = ((traced_ns - untraced_ns) / untraced_ns, n)
        units = dict(tracing.PER_LAYER)
        result["metrics"] = {k: (v, units[k], c) for k, (v, c) in metrics.items()}
        result["shares"] = tracing.time_shares(spans, traced_ns)
        result["spans_file"] = os.path.join(args.work_dir, "spans.jsonl")
        tracing.write_spans(spans, result["spans_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
