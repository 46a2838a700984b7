"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import time

import pytest

from bellbound import BellQuery
from bellbound import bounds, verify
from bellbound.cli import main


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    results = verify.suite_oracles()
    elapsed = time.perf_counter() - start
    report("criterion-1 oracle equivalence",
           all(r.passed for r in results) and elapsed < 1.0,
           "; ".join(r.detail for r in results) + f"; {elapsed:.2f}s")


@pytest.fixture(scope="module")
def sandwich():
    """One run of the sandwich suite, shared by criteria 2, 3 and 7: its
    results by name, and its wall time."""
    start = time.perf_counter()
    results = verify.suite_sandwich()
    return {r.name: r for r in results}, time.perf_counter() - start


def test_criterion_2_bilateral_sandwich(sandwich):
    by_name, elapsed = sandwich
    report("criterion-2 bilateral sandwich",
           by_name["sandwich"].passed and elapsed < 10.0,
           f"{by_name['sandwich'].detail}; {by_name['kminus-flags'].detail}; "
           f"{elapsed:.2f}s")


def test_criterion_3_constant_reproduction(sandwich):
    by_name = sandwich[0]
    constants_ok = (by_name["kplus-constant"].passed
                    and by_name["kminus-constant"].passed)
    discrepancy = 0.6538 - bounds.K_MINUS_FORMULA
    report("criterion-3 constant reproduction",
           constants_ok and discrepancy > 0.1,
           f"K+ = {bounds.K_PLUS:.6f}, K- formula = "
           f"{bounds.K_MINUS_FORMULA:.6f}, printed-value discrepancy "
           f"{discrepancy:.4f} surfaced")


def test_criterion_4_closed_form_consistency():
    labels = {"ClosedFormLargeP(upper)", "GOptimized>ClosedFormLargeP(upper)"}
    bad = 0
    for p in verify.GRID_P:
        for beta in verify.GRID_BETA:
            q = BellQuery(p, beta)
            if q.ratio < 2.0:
                continue
            bounds.upper_closed_form_largep(q)  # answers on the LargeP grid
            rep = bounds.bound_report(q)
            bad += rep.series is None or any(
                label in labels for label, _, _ in verify.check_point(q, rep))
    report("criterion-4 closed-form consistency", bad == 0,
           f"{bad} violations on the LargeP grid")


def test_criterion_5_asymptotic_residuals():
    start = time.perf_counter()
    results = verify.suite_asymptotics()
    by_name = {r.name: r for r in results}
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < 5.0
    report("criterion-5 asymptotic residuals", ok,
           f"{by_name['debruijn-residual-decay'].detail}; "
           f"{by_name['lambert-residual'].detail}; {elapsed:.2f}s")


def test_criterion_6_inequality_verification():
    start = time.perf_counter()
    results = verify.suite_inequalities(trials=1000, seed=7)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < 30.0
    report("criterion-6 inequality verification", ok,
           "; ".join(r.detail for r in results) + f"; {elapsed:.2f}s")


def test_criterion_7_relative_error_corollary(sandwich):
    r = sandwich[0]["relative-error-corollary"]
    report("criterion-7 relative-error corollary", r.passed, r.detail)


def test_criterion_8_determinism(tmp_path, capsys):
    outs = []
    for i in range(2):
        path = tmp_path / f"scan{i}.csv"
        code = main(["scan", "--p-start", "2", "--p-stop", "200", "--p-count",
                     "8", "--p-log", "--beta-start", "0.5", "--beta-stop",
                     "8", "--beta-count", "3", "--beta-log",
                     "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    scan_ok = outs[0] == outs[1]

    vouts = []
    for i in range(2):
        path = tmp_path / f"verify{i}.txt"
        code = main(["verify", "--suite", "inequalities", "--trials", "200",
                     "--seed", "7", "--out", str(path)])
        assert code == 0
        vouts.append(path.read_bytes())
    verify_ok = vouts[0] == vouts[1]
    report("criterion-8 determinism", scan_ok and verify_ok,
           "scan and verify outputs byte-identical across two runs")
