"""Command-line front end: evaluation, bound reports, grid scans, the
extremal value, and the self-verification suites.

Exit codes: 0 success, 2 domain error (every refusal the library raises),
4 verification failure.

Each command imports the layers it runs, and json and decimal only where
it writes JSON or a value past the double range: a process runs one
command, so what it does not import it does not pay for.
"""
from __future__ import annotations

import argparse
import math
import sys

from .errors import DomainError
from .series import BellQuery, axis, bell_dobinski

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_VERIFY = 4

SCAN_COLUMNS = [
    "p", "beta", "regime", "series_b_1p", "lower", "lower_method",
    "upper", "upper_method", "ratio_upper_over_series",
    "ratio_series_over_lower", "debruijn_total", "error",
]


def fmt(x) -> str:
    """17-significant-digit, locale-independent rendering; '' for None."""
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write output file {out_path}: "
                          f"{exc.strerror}") from None


def fmt_exp(log_value: float) -> str:
    """exp(log_value) as fmt renders a float; past the double range, the
    same 17 significant digits in decimal scientific notation."""
    if -700.0 < log_value < 700.0:
        return fmt(math.exp(log_value))
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 17
        return format(decimal.Decimal(log_value).exp(), ".17g")


def cmd_eval(args) -> int:
    q = BellQuery(args.p, args.beta)
    res = bell_dobinski(q, tol=args.tol)
    lines = [
        f"value {fmt_exp(res.log_value)}",
        f"log_value {fmt(res.log_value)}",
        f"terms_used {res.terms_used}",
        f"peak_index {res.peak_index}",
        f"method {res.method}",
        f"tail_bound_rel {fmt(math.exp(res.tail_bound_log))}",
        f"rounding_bound_rel {fmt(math.exp(res.rounding_bound_log))}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    import json

    from . import bounds

    d = bounds.bound_report(BellQuery(args.p, args.beta)).to_dict()
    if args.format == "json":
        text = json.dumps(d, indent=2)
    else:
        text = "\n".join(
            f"{k} {fmt(v) if not isinstance(v, (dict, list)) else json.dumps(v)}"
            for k, v in d.items())
    _emit(text + "\n", args.out)
    return EXIT_OK


def _scan_row(p: float, beta: float, tol: float) -> dict:
    """One scan row, from the point's bound report: its columns and nulls
    as to_dict gives them, its refusals joined into `error`."""
    from . import bounds

    row: dict = dict.fromkeys(SCAN_COLUMNS)
    row["p"], row["beta"] = p, beta
    try:
        report = bounds.bound_report(BellQuery(p, beta), series_tol=tol)
        d = report.to_dict()
        row.update((k, d[k]) for k in SCAN_COLUMNS if k in d)
        row["series_b_1p"] = series = d["series_check"]
        row["error"] = "; ".join(d["errors"]) or None
        if series:
            # each ratio divides by the end of the series' certified
            # interval that keeps a proven bound's ratio >= 1
            res = report.series
            eps = math.exp(res.tail_bound_log) + math.exp(res.rounding_bound_log)
            row["ratio_upper_over_series"] = (
                report.upper / series / math.exp(math.log1p(-eps) / p))
            row["ratio_series_over_lower"] = (
                series / report.lower * math.exp(math.log1p(eps) / p))
        if beta == 1.0 and p > math.e:
            from . import asymptotics

            row["debruijn_total"] = asymptotics.debruijn_expansion(p).total
    except DomainError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    # a ratio is NaN where there is no upper bound, and inf where upper /
    # series passes DBL_MAX (subnormal beta); neither is JSON: null, and an
    # empty CSV cell
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in row.items()}


def cmd_scan(args) -> int:
    axes = (("p", args.p_start, args.p_stop, args.p_count, args.p_log),
            ("beta", args.beta_start, args.beta_stop, args.beta_count, args.beta_log))
    for name, start, stop, count, log in axes:
        if count < 1:
            raise DomainError(f"{name}-count must be >= 1, got {count}")
        if start > stop:
            raise DomainError(f"{name} grid start {start} > stop {stop}")
        if log and start <= 0:
            raise DomainError(f"log {name} grid requires start > 0")
    p_values, beta_values = (axis(*a[1:]) for a in axes)
    rows = [_scan_row(p, b, args.tol) for p in p_values for b in beta_values]
    if args.format == "json":
        import json

        text = json.dumps(rows, indent=2) + "\n"
    else:
        out = [",".join(SCAN_COLUMNS)]
        for row in rows:
            out.append(",".join(fmt(row[c]) for c in SCAN_COLUMNS))
        text = "\n".join(out) + "\n"
    _emit(text, args.out)
    return EXIT_OK if any(r["error"] is None for r in rows) else EXIT_DOMAIN


def cmd_extremal(args) -> int:
    from . import applications

    prob = applications.ExtremalProblem(a=args.a, b=args.b, p=args.p)
    value = applications.schechtman_extremal(prob)
    lines = [f"mu {fmt(prob.mu)}", f"value {fmt(value)}"]
    if args.p == 2.0:
        analytic = args.a**2 + args.b
        ok = abs(value - analytic) <= 1e-10 * analytic
        lines.append(f"a^2+b: {fmt(analytic)}, {'ok' if ok else 'MISMATCH'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    if args.instances:
        from . import applications

        dists = applications.load_instances(args.instances)
        results = []
        for p in applications.FAMILY_P:
            c = applications.check_family(dists, p)
            results.append(verify.CheckResult(
                f"instances-p{p:g}", c.passed,
                f"exact {fmt(c.exact)}, rosenthal {fmt(c.rosenthal)}, "
                f"schechtman {fmt(c.schechtman)}"))
    else:
        names = list(verify.SUITES) if args.suite == "all" else [args.suite]
        results = verify.run_suites(names, trials=args.trials, seed=args.seed)
    text = "\n".join(r.line() for r in results)
    n_fail = sum(not r.passed for r in results)
    text += f"\n{len(results) - n_fail}/{len(results)} checks passed\n"
    _emit(text, args.out)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="Poisson-moment (Bell function) evaluation and bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate B(p, beta) by the series")
    p_eval.add_argument("--p", type=float, required=True)
    p_eval.add_argument("--beta", type=float, required=True)
    p_eval.add_argument("--tol", type=float, default=1e-12)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_bounds = sub.add_parser("bounds", help="bilateral bound report")
    p_bounds.add_argument("--p", type=float, required=True)
    p_bounds.add_argument("--beta", type=float, required=True)
    p_bounds.add_argument("--format", choices=["text", "json"], default="text")
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_scan = sub.add_parser("scan", help="grid scan, CSV or JSON")
    p_scan.add_argument("--p-start", type=float, required=True)
    p_scan.add_argument("--p-stop", type=float, required=True)
    p_scan.add_argument("--p-count", type=int, default=1)
    p_scan.add_argument("--p-log", action="store_true")
    p_scan.add_argument("--beta-start", type=float, required=True)
    p_scan.add_argument("--beta-stop", type=float, required=True)
    p_scan.add_argument("--beta-count", type=int, default=1)
    p_scan.add_argument("--beta-log", action="store_true")
    p_scan.add_argument("--tol", type=float, default=1e-12)
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_ext = sub.add_parser("extremal", help="Schechtman extremal value")
    p_ext.add_argument("--a", type=float, required=True)
    p_ext.add_argument("--b", type=float, required=True)
    p_ext.add_argument("--p", type=float, required=True)
    p_ext.add_argument("--out", default=None)
    p_ext.set_defaults(func=cmd_extremal)

    p_ver = sub.add_parser("verify", help="run self-verification suites")
    # verify.SUITES and "all", spelled out so that parsing does not import
    # verify; a test holds the two lists equal
    p_ver.add_argument("--suite", default="all", choices=[
        "oracles", "sandwich", "asymptotics", "inequalities", "all"])
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--instances", default=None,
                       help="check a line-oriented instance file instead of "
                            "running a suite")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
