"""Benchmark entry point.

One workload, one seed; the last line of stdout is the result as JSON:

    python3 bench/run.py --workload large_beta --seed 1 --seconds 10 --trace 0

Every workload, untraced and traced, printed as tables with one row per
workload; --out writes the results file and --compare prints the change
against an earlier one:

    python3 bench/run.py --all --seed 1 --out results.json [--compare earlier.json]

The same checks on the whole input ranges of large_beta, grid and cli_cold,
where the program's known defects show as failed operations (never gated):

    python3 bench/run.py --defects --seed 1 --seconds 5

Each run happens in a fresh worker process with BELLBOUND_PMAX unset, the
BLAS thread counts pinned to 1 and PYTHONPATH=src, from the checkout root.
Set-up time is the median of SETUP_PROBES fresh processes that each import
the workload's modules and warm up.  Times are scaled to a nominal machine
speed (see worker.py); the *_wall metrics in the tables are unscaled.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_PROBES = 11
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("BELLBOUND_PMAX", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = "src"
    return env


def run_environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "bellbound", "__init__.py")):
        raise BenchError(f"no bellbound package under {os.path.join(ROOT, 'src')}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    # The worker leads its own process group, so that on a timeout or an
    # interrupt its CLI children are stopped along with it.
    with subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                          env=pinned_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int,
            full: bool = False) -> dict:
    """Run one workload once; returns the worker's detail record, with
    set-up time and the run environment added.  With full, the workload
    runs on its whole input ranges and set-up is not measured."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    tag = "-full" if full else ""
    work_dir = os.path.join(ROOT, ".bench_run", f"{workload}-s{seed}-t{trace}{tag}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    common = ["--workload", workload, "--work-dir", work_dir]
    if full:
        common.append("--full-domain")
    probes = []
    if not trace and not full:
        probes = [_worker(common + ["--setup-probe"], deadline)
                  for _ in range(SETUP_PROBES)]
    detail = _worker(common + ["--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], deadline)
    if probes:
        for key in ("setup_s", "setup_s_wall"):
            detail["metrics"][key] = (statistics.median(p[key] for p in probes), "s",
                                      len(probes))
    detail["env"] = run_environment()
    return detail


def contract_line(spec: dict, detail: dict) -> dict:
    """The result object of the benchmark contract: the metrics BENCHMARK.json
    names for this trace mode, and nothing else."""
    group = spec["per_layer"] if detail["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in group:
        name = entry["name"]
        if name not in detail["metrics"]:
            raise BenchError(f"{detail['workload']}: metric {name} not measured")
        value, unit, _ = detail["metrics"][name]
        if unit != entry["unit"] or not math.isfinite(value):
            raise BenchError(f"{name}: got {value!r} {unit}, want unit {entry['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.4g}"


def summary_lines(detail: dict) -> list[str]:
    n, failed = detail["attempted"], detail["failed"]
    lines = [f"{detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
             f"{n} operations, {failed} failed ({failed / n:.4f})"]
    if detail["failures"]:
        lines.append("  failed checks: " + ", ".join(
            f"{k} {v}" for k, v in sorted(detail["failures"].items())))
        lines += [f"  e.g. {e}" for e in detail["examples"][:3]]
    for name, (value, unit, count) in detail["metrics"].items():
        lines.append(f"  {name:48s} {_fmt(value):>12s} {unit:12s} n={count}")
    for name, share in list(detail.get("shares", {}).items())[:10]:
        lines.append(f"  share {name:42s} {share:8.1%}")
    return lines


def table(rows: dict[str, dict], names: list[tuple[str, str]],
          width: int = 5) -> list[str]:
    """One block per `width` metrics; each block has one row per workload,
    cells "value (n=count)"."""
    out = []
    for i in range(0, len(names), width):
        block = names[i:i + width]
        header = ["workload"] + [f"{n} [{u}]" for n, u in block]
        body = []
        for wl, metrics in rows.items():
            cells = [wl]
            for n, _ in block:
                if n in metrics:
                    v, _, c = metrics[n]
                    cells.append(f"{_fmt(v)} (n={c})")
                else:
                    cells.append("-")
            body.append(cells)
        widths = [max(len(r[j]) for r in [header] + body) for j in range(len(header))]
        for r in [header] + body:
            out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        out.append("")
    return out


def diff_lines(spec: dict, old: dict, new: dict) -> list[str]:
    bounds = {e["name"]: e for e in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'workload':12s} {'metric':48s} {'earlier':>12s} {'now':>12s} change"]
    for wl, runs in new["workloads"].items():
        for trace in ("trace0", "trace1"):
            before = old.get("workloads", {}).get(wl, {}).get(trace, {}).get("metrics", {})
            for name, (value, unit, _) in runs[trace]["metrics"].items():
                if name not in before:
                    continue
                prev = before[name][0]
                change = (value - prev) / abs(prev) if prev else math.inf if value else 0.0
                note = ""
                entry = bounds.get(name)
                if entry and "bound" in entry:
                    worse = change if entry["better"] == "lower" else -change
                    if worse > entry["bound"]:
                        note = f"  worse than bound {entry['bound']:.0%}"
                lines.append(f"{wl:12s} {name:48s} {_fmt(prev):>12s} {_fmt(value):>12s} "
                             f"{change:+.1%} {unit}{note}")
    return lines


def run_all(spec: dict, seed: int, seconds: float, out: str | None,
            compare: str | None) -> int:
    results = {"env": run_environment(), "seed": seed, "seconds": seconds,
               "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = {f"trace{t}": run_one(name, seed, seconds, t) for t in (0, 1)}
        results["workloads"][name] = runs
        for detail in runs.values():
            print("\n".join(summary_lines(detail)), flush=True)
    env = results["env"]
    print(f"\nPython {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}; "
          f"seed {seed}, {seconds:g} s per run\n")
    e2e = [(e["name"], e["unit"]) for e in spec["end_to_end"]]
    extra = [("latency_p90_ms", "ms"), ("failed_frac", "frac"),
             ("max_rel_err", "frac"), ("bound_ratio_p50", "ratio"),
             ("throughput_ops_wall", "1/s"), ("latency_p50_ms_wall", "ms"),
             ("setup_s_wall", "s"), ("reference_ms", "ms")]
    layer = [(e["name"], e["unit"]) for e in spec["per_layer"]]
    rows0 = {wl: r["trace0"]["metrics"] for wl, r in results["workloads"].items()}
    rows1 = {wl: r["trace1"]["metrics"] for wl, r in results["workloads"].items()}
    print("End-to-end (untraced)")
    print("\n".join(table(rows0, e2e + [x for x in extra if x[0] not in dict(e2e)])))
    print("Per-layer (traced)")
    print("\n".join(table(rows1, layer)))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    if compare:
        with open(compare, encoding="utf-8") as fh:
            old = json.load(fh)
        print(f"Change against {compare}")
        print("\n".join(diff_lines(spec, old, results)))
    return 0


def run_defects(seed: int, seconds: float) -> int:
    """Report, never gate: the failed checks on the whole input ranges."""
    from workloads import FULL_DOMAIN
    for name in FULL_DOMAIN:
        detail = run_one(name, seed, seconds, 0, full=True)
        # The header, the failed checks and up to 3 examples; not the metrics.
        shown = 2 + len(detail["examples"][:3]) if detail["failures"] else 1
        print("\n".join(summary_lines(detail)[:shown]), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--defects", action="store_true",
                    help="run the full-domain variants and report their failed checks")
    ap.add_argument("--out", help="with --all: write the results file here")
    ap.add_argument("--compare", help="with --all: earlier results file to diff against")
    args = ap.parse_args()
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.all:
            return run_all(spec, args.seed, seconds, args.out, args.compare)
        if args.defects:
            return run_defects(args.seed, seconds)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        detail = run_one(args.workload, args.seed, seconds, args.trace)
        line = contract_line(spec, detail)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(detail)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
