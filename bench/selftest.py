"""Self-tests of the benchmark itself, kept apart from the library's tests.

    python3 bench/selftest.py

They cover the span arithmetic, the counting of failed operations, the
seeded generators, and the agreement of BENCHMARK.json with the code.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _spans(*rows):
    return [Span(name, start, end, sid, parent)
            for name, start, end, sid, parent in rows]


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = _spans(
            ("bounds.bound_report", 0, 100, 0, None),
            ("series.bell_dobinski", 10, 30, 1, 0),
            ("bounds.lower_h0_search", 20, 50, 2, 0),   # overlaps span 1
            ("bounds.upper_g_optimized", 60, 70, 3, 0),
            ("series.bell_dobinski", 12, 20, 4, 1),     # grandchild
            ("series.bell_dobinski", 95, 120, 5, 0),    # runs past its parent
        )
        selfs = tracing.self_times(spans)
        # parent: 100 - [10, 50] - [60, 70] - [95, 100]
        self.assertEqual(selfs[0], 100 - 40 - 10 - 5)
        self.assertEqual(selfs[1], 20 - 8)
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[4], 8)
        self.assertEqual(selfs[5], 25)

    def test_layer_metrics_divide_by_operations(self):
        spans = _spans(
            ("bounds.bound_report", 0, 4_000_000, 0, None),
            ("series.bell_dobinski", 0, 1_000_000, 1, 0),
            ("bounds.bound_report", 5_000_000, 7_000_000, 2, None),
            ("series.bell_dobinski", 5_000_000, 6_000_000, 3, 2),
        )
        spans[1].attrs.update(terms=100, key=[2.0, 1.0])
        spans[3].attrs.update(terms=300, key=[2.0, 1.0])
        m = tracing.layer_metrics(spans, ops=2)
        self.assertEqual(m["bounds.bound_report.self_ms"], (2.0, 2))
        self.assertEqual(m["series.bell_dobinski.self_ms"], (1.0, 2))
        self.assertEqual(m["series.bell_dobinski.terms_per_call"], (200.0, 2))
        self.assertEqual(m["series.bell_dobinski.ns_per_term"], (5000.0, 2))
        self.assertEqual(m["series.bell_dobinski.repeat_frac"], (0.5, 2))

    def test_errors_count_only_exceptions_leaving_a_layer(self):
        spans = _spans(
            ("bounds.bound_report", 0, 10, 0, None),
            ("bounds.upper_closed_form_largep", 1, 2, 1, 0),  # caught inside bounds
            ("series.bell_dobinski", 3, 4, 2, 0),             # leaves series
            ("bounds.lower_h0_search", 5, 6, 3, None),        # leaves bounds
        )
        for i in (1, 2, 3):
            spans[i].attrs["error"] = "DomainError"
        errors = tracing.layer_errors(spans)
        self.assertEqual(errors["series"], 1)
        self.assertEqual(errors["bounds"], 1)

    def test_tracer_wraps_every_imported_copy_and_restores_it(self):
        from bellbound import applications, bounds, series
        original = series.bell_dobinski
        tracer = tracing.Tracer()
        with tracer:
            self.assertIsNot(bounds.bell_dobinski, original)
            self.assertIsNot(applications.bell_dobinski, original)
            bounds.bound_report(series.BellQuery(3.0, 2.0))
        self.assertIs(bounds.bell_dobinski, original)
        names = {s.name for s in tracer.spans}
        self.assertIn("series.bell_dobinski", names)
        self.assertIn("bounds.lower_h_continuous", names)
        hc = [s for s in tracer.spans if s.name == "bounds.lower_h_continuous"]
        self.assertGreater(hc[0].attrs["evals"], 10)


class SpeedScalingTest(unittest.TestCase):
    def test_times_scale_to_nominal_speed_per_slice(self):
        budget = 10 * 1_000_000
        latencies = [100_000] * 100                  # 10 slices of 10 ops
        # The machine runs at half speed in the first half of the run.
        refs = [(pos, 2 * worker.REF_NOMINAL_NS if pos <= budget // 2
                 else worker.REF_NOMINAL_NS)
                for pos in range(100_000, budget + 1, 100_000)]
        m = worker.end_to_end(latencies, refs, budget, 0, workloads.Tally(), 1.0)
        self.assertAlmostEqual(m["throughput_ops_wall"][0], 10_000.0)
        self.assertAlmostEqual(m["latency_p50_ms_wall"][0], 0.1)
        # 50 operations scaled by 1/2 and 50 unscaled; throughput is the
        # median over 5 slices of each
        self.assertAlmostEqual(m["latency_p50_ms"][0], (0.05 + 0.1) / 2)
        self.assertAlmostEqual(m["throughput_ops"][0], (20_000.0 + 10_000.0) / 2)


def _run(wl, fake_target, fake, seconds=0.05):
    """Run wl for a short budget with fake_target = (module, name) replaced
    by fake; returns (attempted, failed, tally)."""
    module, name = fake_target
    real = getattr(module, name)
    with tempfile.TemporaryDirectory() as tmp:
        ctx = wl.setup(tmp, 0)
    tally = workloads.Tally()
    failed = 0

    def after_op(x, out, err):
        nonlocal failed
        if err is not None or not wl.check(ctx, x, out, tally):
            failed += 1

    setattr(module, name, fake(real))
    try:
        lat, _ = worker.timed_loop(wl, ctx, wl.inputs(0), int(seconds * 1e9), after_op)
    finally:
        setattr(module, name, real)
    return len(lat), failed, tally


class FailedOperationTest(unittest.TestCase):
    def test_wrong_upper_bound_is_a_failed_operation(self):
        from bellbound import bounds

        def fake(real):
            def bound_report(q, *a, **kw):
                rep = real(q, *a, **kw)
                return dataclasses.replace(rep, upper=rep.series_root * 0.5)
            return bound_report

        n, failed, tally = _run(workloads.WORKLOADS["grid"],
                                (bounds, "bound_report"), fake)
        self.assertGreater(n, 0)
        self.assertEqual(failed, n)
        self.assertEqual(tally.failures["sandwich"], n)

    def test_raising_operation_is_counted_and_the_run_continues(self):
        from bellbound import bounds
        from bellbound.errors import BudgetError

        def fake(real):
            def bound_report(q, *a, **kw):
                raise BudgetError("injected")
            return bound_report

        n, failed, _ = _run(workloads.WORKLOADS["grid"],
                            (bounds, "bound_report"), fake, seconds=0.001)
        self.assertGreater(n, 1)
        self.assertEqual(failed, n)

    def test_wrong_rosenthal_bound_is_a_failed_operation(self):
        from bellbound import applications

        def fake(real):
            return lambda p, b, a, *rest: 0.0

        n, failed, tally = _run(workloads.WORKLOADS["moments"],
                                (applications, "rosenthal_bound"), fake)
        self.assertGreater(n, 0)
        self.assertEqual(failed, n)
        self.assertEqual(tally.failures["rosenthal"], 3 * n)

    def test_inaccurate_series_is_a_failed_operation(self):
        from bellbound import series

        def fake(real):
            def bell_dobinski(q, *a, **kw):
                res = real(q, *a, **kw)
                return dataclasses.replace(res, log_value=res.log_value + 1e-8)
            return bell_dobinski

        n, failed, tally = _run(workloads.WORKLOADS["large_beta"],
                                (series, "bell_dobinski"), fake, seconds=0.3)
        self.assertGreater(tally.oracle_checks, 0)
        self.assertEqual(tally.failures["series_oracle"], tally.oracle_checks)
        self.assertEqual(failed, tally.oracle_checks)


class GeneratorTest(unittest.TestCase):
    def _bytes(self, name, seed, count=300):
        items = itertools.islice(workloads.WORKLOADS[name].inputs(seed), count)
        return json.dumps(list(items)).encode()

    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self._bytes(name, 7), self._bytes(name, 7))
                self.assertNotEqual(self._bytes(name, 7), self._bytes(name, 8))

    def test_same_seed_in_a_fresh_process(self):
        code = ("import itertools, json, sys; sys.path.insert(0, 'bench'); "
                "import workloads; sys.stdout.write(json.dumps(list("
                "itertools.islice(workloads.gen_moments(7), 300))))")
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                             capture_output=True).stdout
        self.assertEqual(out, self._bytes("moments", 7))

    def test_input_distributions(self):
        pts = list(itertools.islice(workloads.gen_large_beta(3), 400))
        ints = [p for p, _ in pts if p == int(p) and 2 <= p <= 30]
        self.assertAlmostEqual(len(ints) / len(pts), workloads.INT_P_SHARE, delta=0.02)
        self.assertTrue(all(1e2 <= b <= 1e5 for _, b in pts))
        grid = list(itertools.islice(workloads.gen_grid(3), 2000))
        self.assertEqual(len(set(grid)), len(grid))
        self.assertTrue(all(1 <= p <= 500 and 0.1 <= b <= 50 for p, b in grid))
        for family, _ in itertools.islice(workloads.gen_moments(3), 200):
            states = 1
            for dist in family:
                states *= len(dist)
                self.assertTrue(2 <= len(dist) <= 8)
            self.assertTrue(1 <= len(family) <= 12 and states <= workloads.STATE_BUDGET)

    def test_gated_inputs_avoid_the_known_defects(self):
        gap_lo, gap_hi = workloads.ROUGH_P_GAP

        def in_gap(p):
            return gap_lo <= p < gap_hi

        for full in (False, True):
            lb = list(itertools.islice(workloads.gen_large_beta(3, full=full), 2000))
            grid = list(itertools.islice(workloads.gen_grid(3, full=full), 2000))
            capped = [b <= workloads.G_OPT_BETA_PER_P * (p + 1) for p, b in lb]
            evals = [params[0] for kind, params in itertools.islice(
                workloads.gen_cli_cold(3, full=full), 500) if kind == "eval"]
            with self.subTest(full=full):
                # The full domain reaches every defect region; the gated one none.
                self.assertEqual(any(in_gap(p) for p, _ in lb + grid), full)
                self.assertEqual(all(capped), not full)
                self.assertEqual(max(evals) > workloads.EVAL_P_MAX, full)
                self.assertTrue(all(1e2 <= b <= 1e5 for _, b in lb))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(e["name"], e["unit"]) for e in spec["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_rel_slack_matches_the_library(self):
        from bellbound.verify import REL_SLACK
        self.assertEqual(workloads.REL_SLACK, REL_SLACK)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
