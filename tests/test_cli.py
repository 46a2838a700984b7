import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbound import (BellQuery, DomainError, Regime, applications,
                       bell_dobinski, bounds, verify)
from bellbound.cli import build_parser, main


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def schema(name):
    return json.loads(resources.files("bellbound.schemas").joinpath(
        f"{name}.schema.json").read_text())


class TestEval:
    def test_known_value(self, capsys):
        code, out = run_main(["eval", "--p", "3", "--beta", "1"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("value 4.99999999999")

    def test_normalization(self, capsys):
        code, out = run_main(["eval", "--p", "0", "--beta", "9"], capsys)
        assert code == 0
        value = float(out.splitlines()[0].split()[1])
        assert value == pytest.approx(1.0, rel=1e-11)
        assert "method ClosedForm" in out.splitlines()

    def test_domain_error_exit_2(self, capsys):
        code = main(["eval", "--p", "-1", "--beta", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "p must be" in err

    def test_p_max_exit_2(self, capsys):
        # p_max is a precondition, hence a domain error
        assert main(["eval", "--p", "800", "--beta", "1"]) == 2

    @pytest.mark.parametrize("command", [
        ["eval", "--p", "1", "--beta", "1"],
        ["bounds", "--p", "2", "--beta", "1"],
    ])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        path = str(tmp_path / "absent" / "out.txt")
        assert main([*command, "--out", path]) == 2
        assert f"cannot write output file {path}" in capsys.readouterr().err

    def test_value_past_double_range(self, capsys):
        # log B(168, 25.7) ~ 713.7 > log(DBL_MAX)
        code, out = run_main(["eval", "--p", "168", "--beta", "25.7"], capsys)
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        res = bell_dobinski(BellQuery(168, 25.7))
        assert float(fields["log_value"]) == res.log_value
        mantissa, exponent = fields["value"].split("e+")
        assert int(exponent) == math.floor(res.log_value / math.log(10))
        assert float(mantissa) == pytest.approx(
            10 ** (res.log_value / math.log(10) - int(exponent)), rel=1e-12)

    def test_certificate_lines(self, capsys):
        _, out = run_main(["eval", "--p", "3", "--beta", "1"], capsys)
        keys = [line.split(" ", 1)[0] for line in out.splitlines()]
        assert keys[-2:] == ["tail_bound_rel", "rounding_bound_rel"]

    @pytest.mark.parametrize("p, beta, method", [
        (3.0, 1.0, "Series"), (2.0, 1e13, "Trapezoid")])
    def test_method_line(self, capsys, p, beta, method):
        # beta = 1e13 was refused for the series' term budget
        code, out = run_main(["eval", "--p", str(p), "--beta", str(beta)], capsys)
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        assert code == 0 and fields["method"] == method
        assert list(fields)[-3:] == ["method", "tail_bound_rel",
                                     "rounding_bound_rel"]
        res = bell_dobinski(BellQuery(p, beta))
        assert float(fields["log_value"]) == res.log_value
        assert int(fields["terms_used"]) == res.terms_used

    def test_budget_refusal_exit_2(self, capsys, tmp_path, monkeypatch):
        # at p = 2.5 the exact moment enumerates all 8**8 outcome tuples of
        # this family, past ENUM_BUDGET: a refusal like any other
        path = tmp_path / "family.txt"
        path.write_text((",".join(f"{i}:0.125" for i in range(8)) + "\n") * 8)
        monkeypatch.setattr(applications, "FAMILY_P", (2.5,))
        code = main(["verify", "--instances", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "domain error: enumeration exceeds" in err


class TestBounds:
    def test_json_schema(self, capsys):
        code, out = run_main(
            ["bounds", "--p", "10", "--beta", "1", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        schema = json.loads(
            resources.files("bellbound.schemas").joinpath(
                "bounds.schema.json").read_text())
        jsonschema.validate(payload, schema)
        assert payload["regime"] == "LargeP"
        assert payload["lower"] <= 3.2095 <= payload["upper"]

    def test_largebeta_upper(self, capsys):
        code, out = run_main(
            ["bounds", "--p", "2", "--beta", "10", "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["regime"] == "LargeBeta"
        assert payload["upper_method"] == "GOptimized"
        assert payload["upper"] == bounds.upper_g_optimized(BellQuery(2, 10))[0]
        assert payload["upper"] < 89.7576394045  # K+ * 10

    def test_largebeta_json_schema(self, capsys):
        code, out = run_main(
            ["bounds", "--p", "2", "--beta", "10", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("bounds"))
        assert payload["lower_method"] == "Jensen"
        assert payload["kminus"]["holds"] is True

    def test_schema_methods_are_the_reported_candidates(self):
        props = schema("bounds")["properties"]
        for side in ("lower", "upper"):
            reported = {c.name for c in bounds.CANDIDATES
                        if c.side == side and c.reported}
            assert set(props[f"{side}_method"]["enum"]) == reported | {"none"}

    def test_schemas_list_the_regimes(self):
        regimes = [r.value for r in Regime]
        assert schema("bounds")["properties"]["regime"]["enum"] == regimes
        assert schema("scan")["items"]["properties"]["regime"]["enum"] == (
            regimes + [None])

    def test_boundary_tie(self, capsys):
        _, out = run_main(
            ["bounds", "--p", "2", "--beta", "1", "--format", "json"], capsys)
        assert json.loads(out)["regime"] == "LargeP"

    def test_no_upper_bound_is_null(self, capsys):
        # GOptimized exceeds the double range here, and no other upper
        # bound is reported
        code, out = run_main(
            ["bounds", "--p", "50", "--beta", "1.7976931348623157e308",
             "--format", "json"], capsys)
        assert code == 0
        payload = strict_json(out)
        jsonschema.validate(payload, schema("bounds"))
        assert payload["upper"] is None and payload["upper_method"] == "none"
        assert payload["lower"] == sys.float_info.max

    def test_lower_where_single_terms_are_refused(self, capsys):
        # p log k passes DBL_MAX: H0Search and HContinuous are refused,
        # not reported as an infinite lower bound
        code, out = run_main(
            ["bounds", "--p", "1e308", "--beta", "1", "--format", "json"],
            capsys)
        assert code == 0
        payload = strict_json(out)
        jsonschema.validate(payload, schema("bounds"))
        assert payload["lower_method"] == "Jensen"
        assert payload["lower"] == 1.0 <= payload["upper"]
        for name in ("H0Search", "HContinuous"):
            assert any(e.startswith(f"{name}:") for e in payload["errors"])

    def test_text_format(self, capsys):
        # one "key value" line per report field, in order, dicts and lists
        # as JSON; the missing upper bound prints an empty value
        code, out = run_main(
            ["bounds", "--p", "50", "--beta", "1.7976931348623157e308"], capsys)
        assert code == 0
        want = bounds.bound_report(BellQuery(50.0, sys.float_info.max)).to_dict()
        fields = [line.split(" ", 1) for line in out.splitlines()]
        assert [key for key, _ in fields] == list(want)
        got = dict(fields)
        assert got["upper"] == "" and got["upper_method"] == "none"
        assert float(got["lower"]) == want["lower"]
        for key in ("witness", "kminus", "errors"):
            assert json.loads(got[key]) == want[key]

    def test_smallest_beta(self, capsys):
        code, out = run_main(
            ["bounds", "--p", "2", "--beta", "5e-324", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] <= payload["series_check"] <= payload["upper"]


class TestScan:
    ARGS = ["scan", "--p-start", "2", "--p-stop", "100", "--p-count", "3",
            "--p-log", "--beta-start", "1", "--beta-stop", "1"]

    def test_csv_rows(self, capsys):
        code, out = run_main(self.ARGS, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("p,beta,regime,series_b_1p,lower,lower_method,"
                            "upper,upper_method,ratio_upper_over_series,"
                            "ratio_series_over_lower,debruijn_total,error")
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            lower, series, upper = float(cells[4]), float(cells[3]), float(cells[6])
            assert lower <= series <= upper

    def test_deterministic(self, capsys):
        _, first = run_main(self.ARGS, capsys)
        _, second = run_main(self.ARGS, capsys)
        assert first == second

    def test_json_schema(self, capsys):
        code, out = run_main(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        schema = json.loads(
            resources.files("bellbound.schemas").joinpath(
                "scan.schema.json").read_text())
        jsonschema.validate(payload, schema)

    def test_json_schema_across_both_regimes(self, capsys):
        code, out = run_main(
            ["scan", "--p-start", "1", "--p-stop", "200", "--p-count", "9",
             "--p-log", "--beta-start", "0.01", "--beta-stop", "1e4",
             "--beta-count", "7", "--beta-log", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        jsonschema.validate(rows, schema("scan"))
        assert {row["regime"] for row in rows} == {"LargeP", "LargeBeta"}
        report_schema = schema("bounds")["properties"]
        for row in rows:
            assert row["error"] is None
            for side in ("lower", "upper"):
                jsonschema.validate(row[f"{side}_method"],
                                    report_schema[f"{side}_method"])

    def test_debruijn_column_beta1_only(self, capsys):
        _, out = run_main(
            ["scan", "--p-start", "50", "--p-stop", "50", "--beta-start", "1",
             "--beta-stop", "2", "--beta-count", "2", "--format", "json"],
            capsys)
        rows = json.loads(out)
        assert rows[0]["beta"] == 1.0 and rows[0]["debruijn_total"] is not None
        assert rows[1]["beta"] == 2.0 and rows[1]["debruijn_total"] is None

    def test_log_grid_start_zero_exit_2(self, capsys):
        for axes in (["--p-start", "0", "--p-stop", "10", "--p-count", "3",
                      "--p-log", "--beta-start", "1", "--beta-stop", "1"],
                     ["--p-start", "1", "--p-stop", "10", "--p-count", "0",
                      "--beta-start", "1", "--beta-stop", "1"],
                     ["--p-start", "1", "--p-stop", "10", "--beta-start", "5",
                      "--beta-stop", "1"]):
            assert main(["scan", *axes]) == 2

    NO_UPPER = ["scan", "--p-start", "50", "--p-stop", "50", "--beta-start",
                "1", "--beta-stop", "1.7976931348623157e308", "--beta-count",
                "2"]

    def test_log_axis_to_dbl_max(self, capsys):
        # 10.0 ** log10(DBL_MAX) overflows: the axis ends at stop itself
        code, out = run_main(
            ["scan", "--p-start", "1", "--p-stop", "2", "--p-count", "2",
             "--beta-start", "1", "--beta-stop", "1.7976931348623157e308",
             "--beta-count", "3", "--beta-log", "--format", "json"], capsys)
        assert code == 0
        rows = strict_json(out)
        jsonschema.validate(rows, schema("scan"))
        assert [r["beta"] for r in rows[::3]] == [1.0, 1.0]
        assert [r["beta"] for r in rows[2::3]] == [sys.float_info.max] * 2

    def test_ratios_of_proven_bounds_are_at_least_1(self, capsys):
        # B(1, beta) = beta is Jensen's lower bound, and the series may lie
        # below it by its tol: each ratio divides by the end of the series'
        # certified interval that keeps a proven bound's ratio >= 1
        for axes in (["--p-start", "1", "--p-stop", "1", "--beta-start", "1",
                      "--beta-stop", "2", "--beta-count", "2"],
                     ["--p-start", "1", "--p-stop", "2", "--p-count", "2",
                      "--beta-start", "1", "--beta-stop",
                      "1.7976931348623157e308", "--beta-count", "3",
                      "--beta-log"]):
            code, out = run_main(["scan", *axes, "--format", "json"], capsys)
            assert code == 0
            ratios = [row[c] for row in strict_json(out) for c in (
                "ratio_upper_over_series", "ratio_series_over_lower")]
            assert min(r for r in ratios if r is not None) >= 1.0

    def test_no_upper_bound_is_null(self, capsys):
        code, out = run_main(self.NO_UPPER + ["--format", "json"], capsys)
        assert code == 0
        rows = strict_json(out)
        jsonschema.validate(rows, schema("scan"))
        assert rows[0]["upper"] is not None
        assert rows[1]["upper"] is None and rows[1]["upper_method"] == "none"

    def test_no_upper_bound_is_an_empty_cell(self, capsys):
        _, out = run_main(self.NO_UPPER, capsys)
        header, first, second = out.strip().splitlines()
        assert "nan" not in out.lower()
        upper = header.split(",").index("upper")
        assert first.split(",")[upper] != ""
        assert second.split(",")[upper] == ""

    def test_overflowing_ratio_is_null(self, capsys):
        # upper / series_b_1p ~ 5e-4 / 5e-324 exceeds DBL_MAX
        code, out = run_main(
            ["scan", "--p-start", "1", "--p-stop", "1", "--beta-start",
             "5e-324", "--beta-stop", "5e-324", "--format", "json"], capsys)
        assert code == 0
        [row] = strict_json(out)
        assert row["ratio_upper_over_series"] is None
        assert row["upper"] > 0 and row["error"] is None

    def test_smallest_beta_rows(self, capsys):
        code, out = run_main(
            ["scan", "--p-start", "2", "--p-stop", "3", "--p-count", "2",
             "--beta-start", "5e-324", "--beta-stop", "1", "--beta-count", "2",
             "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(row["error"] is None for row in rows)
        assert all(row["lower"] <= row["series_b_1p"] <= row["upper"]
                   for row in rows)

    def test_series_refusal_in_error_column(self, capsys):
        code, out = run_main(
            ["scan", "--p-start", "500", "--p-stop", "600", "--p-count", "2",
             "--beta-start", "1", "--beta-stop", "1", "--format", "json"],
            capsys)
        assert code == 0
        first, second = strict_json(out)
        assert first["error"] is None
        assert second["series_b_1p"] is None
        assert second["error"] == "series: p=600.0 exceeds p_max=500.0"

    def test_tol_0_exit_2(self, capsys):
        # every row's series refuses tol = 0, as eval does
        code, out = run_main(
            ["scan", "--p-start", "1", "--p-stop", "2", "--beta-start", "1",
             "--beta-stop", "1", "--tol", "0", "--format", "json"], capsys)
        assert code == 2 == main(["eval", "--p", "1", "--beta", "1",
                                  "--tol", "0"])
        [row] = strict_json(out)
        assert row["error"].startswith("series: tol must lie in")

    def test_row_error_recorded(self, capsys):
        # p = 0.5 is below the bound-report domain: row carries an error
        code, out = run_main(
            ["scan", "--p-start", "0.5", "--p-stop", "2", "--p-count", "2",
             "--beta-start", "1", "--beta-stop", "1", "--format", "json"],
            capsys)
        rows = json.loads(out)
        assert code == 0
        assert rows[0]["error"] is not None
        assert rows[1]["error"] is None


class TestAxis:
    """verify.axis, behind the scan axes and the acceptance grid, against
    the numpy functions it stands in for."""

    def test_linear_equals_linspace(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            start = float(rng.uniform(-1e3, 1e3))
            stop = start + float(10.0 ** rng.uniform(-8, 6))
            count = int(rng.integers(1, 80))
            got = verify.axis(start, stop, count)
            assert got == np.linspace(start, stop, count).tolist()

    def test_log_within_one_ulp_of_logspace(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            start, stop = sorted(10.0 ** rng.uniform(-300, 300, 2))
            count = int(rng.integers(1, 80))
            got = verify.axis(start, stop, count, log=True)
            want = np.logspace(math.log10(start), math.log10(stop), count)
            assert len(got) == count
            assert got[0] == start and (count == 1 or got[-1] == stop)
            for g, w in zip(got[1:-1], want[1:-1]):
                assert abs(g - w) <= math.ulp(w)

    def test_log_ends_at_its_endpoints(self):
        top = sys.float_info.max
        assert verify.axis(1.0, top, 3, log=True) == [
            1.0, 10.0 ** (math.log10(top) / 2), top]
        assert verify.axis(1.0, 1.7e308, 3, log=True)[-1] == 1.7e308
        assert verify.GRID_P[-1] == 200.0 and verify.GRID_BETA[-1] == 50.0

    @pytest.mark.parametrize("count", [0, -3])
    def test_refuses_no_points(self, count):
        with pytest.raises(DomainError, match="count must be >= 1"):
            verify.axis(1.0, 2.0, count)

    def test_acceptance_grid_within_one_ulp(self):
        for got, want in (
                (verify.GRID_P, np.logspace(math.log10(2.0), math.log10(200.0), 40)),
                (verify.GRID_BETA, np.logspace(math.log10(0.1), math.log10(50.0), 12))):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= math.ulp(w)


class TestNumpyImport:
    """Each command, run in a fresh process, loads the `bellbound` modules
    it runs and no others.  Only the `verify` suites load numpy, and the
    series commands start without `fractions`, which only the Touchard
    oracle and the applications layer use."""

    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "import bellbound.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, out.getvalue(), sorted(\n"
        "    m for m in sys.modules if m.startswith('bellbound.')),\n"
        "    'numpy' in sys.modules, 'fractions' in sys.modules]))\n")

    # command -> (argv, the bellbound modules it loads, whether it loads
    # fractions, or None where that is not pinned)
    COMMANDS = {
        "eval": (["eval", "--p", "3", "--beta", "1"],
                 {"cli", "errors", "series"}, False),
        "bounds": (["bounds", "--p", "10", "--beta", "1", "--format", "json"],
                   {"bounds", "cli", "errors", "series"}, False),
        "extremal": (["extremal", "--a", "1", "--b", "2", "--p", "2"],
                     {"applications", "cli", "errors", "series"}, None),
        "scan": (["scan", "--p-start", "2", "--p-stop", "100", "--p-count",
                  "4", "--p-log", "--beta-start", "1", "--beta-stop", "1"],
                 {"asymptotics", "bounds", "cli", "errors", "series"}, False),
        "verify": (["verify", "--instances", "FAMILY"],
                   {"applications", "cli", "errors", "series", "verify"},
                   None),
    }

    @classmethod
    def run_fresh(cls, argv):
        """(exit code, stdout, loaded bellbound modules, numpy loaded,
        fractions loaded) of `bellbound argv` in a new interpreter."""
        proc = subprocess.run([sys.executable, "-c", cls.SCRIPT,
                               json.dumps(argv)],
                              capture_output=True, text=True, check=True)
        code, out, modules, numpy_loaded, fractions_loaded = json.loads(
            proc.stdout)
        modules = {m.removeprefix("bellbound.") for m in modules}
        return code, out, modules, numpy_loaded, fractions_loaded

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("instances") / "family.txt"
        path.write_text("0:0.5,1:0.5\n0.3:0.2,2.5:0.3,7:0.5\n0:0.9,10:0.1\n")
        return {name: self.run_fresh([str(path) if a == "FAMILY" else a
                                      for a in argv])
                for name, (argv, _, _) in self.COMMANDS.items()}

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_loads_only_its_modules(self, runs, name):
        # a module imported at the top of cli, or of a module a command
        # needs, fails here instead of slowing every cold start
        code, _, modules, _, _ = runs[name]
        assert code == 0
        assert modules == self.COMMANDS[name][1]

    def test_scalar_commands_leave_numpy_unloaded(self, runs):
        for name, (code, _, _, numpy_loaded, fractions_loaded) in runs.items():
            assert code == 0, name
            assert not numpy_loaded, name
            if self.COMMANDS[name][2] is not None:
                assert fractions_loaded == self.COMMANDS[name][2], name

    def test_verify_instances_in_fresh_process(self, runs):
        code, out, *_ = runs["verify"]
        assert code == 0
        assert out.endswith("3/3 checks passed\n")

    def test_verify_instances_leaves_numpy_unloaded(self, tmp_path):
        # integer p convolves, with no cap on atoms; only the enumeration,
        # Monte Carlo and the suites load numpy
        path = tmp_path / "family.txt"
        atoms = ",".join(f"{v}:0.1" for v in range(10))
        path.write_text(f"{atoms}\n0:0.9,10:0.1\n")
        code, out, _, numpy_loaded, _ = self.run_fresh(
            ["verify", "--instances", str(path)])
        assert code == 0
        assert out.endswith("3/3 checks passed\n")
        assert not numpy_loaded


class TestExtremal:
    def test_p2_cross_check(self, capsys):
        code, out = run_main(["extremal", "--a", "1", "--b", "2", "--p", "2"],
                             capsys)
        assert code == 0
        assert "a^2+b: 3, ok" in out

    def test_p3(self, capsys):
        _, out = run_main(["extremal", "--a", "1", "--b", "1", "--p", "3"],
                          capsys)
        value = float(out.splitlines()[1].split()[1])
        assert value == pytest.approx(5.0, rel=1e-10)

    def test_p1_exit_2(self, capsys):
        assert main(["extremal", "--a", "1", "--b", "1", "--p", "1"]) == 2

    def test_past_double_range_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellbound.cli", "extremal", "--a", "1",
             "--b", "1", "--p", "300"], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "domain error" in proc.stderr
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize("a,b,message", [
        ("1e300", "1e-300", "mu = exp("),
        ("1e-300", "1e300", "mu = a^(p/(p-1)) b^(1/(1-p)) underflows to 0")])
    def test_mu_out_of_range_exit_2(self, capsys, a, b, message):
        # mu = a^2 / b overflows, or underflows to 0
        assert main(["extremal", "--a", a, "--b", b, "--p", "2"]) == 2
        assert f"domain error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("a,b,p,name", [
        ("1", "1", "inf", "p"), ("inf", "1", "2", "a"), ("1", "inf", "2", "b")])
    def test_non_finite_argument_named_exit_2(self, capsys, a, b, p, name):
        assert main(["extremal", "--a", a, "--b", b, "--p", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"domain error: {name} must be finite and > ")
        assert "mu =" not in err


class TestVerifyCommand:
    def test_oracles_pass(self, capsys):
        code, out = run_main(["verify", "--suite", "oracles"], capsys)
        assert code == 0
        assert "[PASS] oracle-equivalence" in out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_1_exit_2(self, capsys, trials):
        # a suite run over no trials would check nothing and pass
        code = main(["verify", "--suite", "inequalities", "--trials", trials])
        captured = capsys.readouterr()
        assert code == 2
        assert "trials must be >= 1" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("suite", ["inequalities", "all"])
    def test_negative_seed_exit_2(self, capsys, suite):
        # Philox refuses it; verify refuses it first, before any suite runs
        code = main(["verify", "--suite", suite, "--seed", "-1",
                     "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "domain error: seed must be an integer >= 0" in captured.err
        assert captured.out == ""

    def test_every_suite_parses(self):
        parser = build_parser()
        for name in verify.SUITES:
            assert parser.parse_args(["verify", "--suite", name]).suite == name

    def test_suite_choices_are_the_suites(self):
        # the parser spells the choices out, so that parsing does not import
        # verify
        [verify_parser] = [a.choices["verify"] for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)]
        [suite] = [a for a in verify_parser._actions if a.dest == "suite"]
        assert suite.choices == [*verify.SUITES, "all"]

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: bellbound verify")
        assert "invalid choice: 'nope'" in err

    def test_deterministic(self, capsys):
        args = ["verify", "--suite", "inequalities", "--trials", "100",
                "--seed", "7"]
        _, first = run_main(args, capsys)
        _, second = run_main(args, capsys)
        assert first == second

    def test_instance_file(self, tmp_path, capsys):
        path = tmp_path / "family.txt"
        path.write_text("0:0.5,1:0.5\n0:0.9,10:0.1\n")
        code, out = run_main(["verify", "--instances", str(path)], capsys)
        assert code == 0
        assert "[PASS] instances-p2" in out
        assert "[PASS] instances-p4" in out

    def test_instance_file_non_finite_value_exit_2(self, tmp_path, capsys):
        path = tmp_path / "family.txt"
        path.write_text("0:0.5,1:0.5\nnan:1\n")
        assert main(["verify", "--instances", str(path)]) == 2
        assert "domain error" in capsys.readouterr().err


    @pytest.mark.parametrize("text", [
        "x:1\n",
        "0:0.5,1:0.5\n1.0\n",
        "1e100:0.5,1.0:0.5\n1e100:0.5,1.0:0.5\n",  # 4th moments past DBL_MAX
        "1.0:0.7,2.0:0.7\n",  # probabilities do not sum to 1
        "-1.0:0.5,1.0:0.5\n",  # negative value
        "# nothing\n\n",  # no distribution
        b"0:0.5,1:0.5\n\xff:1\n",  # not UTF-8
    ])
    def test_instance_file_input_error_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "family.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["verify", "--instances", str(path)]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_missing_instance_file_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "absent.txt")
        assert main(["verify", "--instances", path]) == 2
        assert path in capsys.readouterr().err


class TestExitCodes:
    """The documented exit codes, as properties: `scan` exits 0 when some
    row succeeds and 2 when every row errors; `verify` exits 0 when every
    check passes and 4 when one fails (TestVerifyCommand has the exit 2 on
    bad `--instances` input)."""

    @staticmethod
    def quiet_main(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    @given(p_start=st.floats(0.1, 3.0), span=st.floats(0.0, 2.0),
           count=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_scan(self, p_start, span, count):
        # bound_report refuses p < 1, so exactly those rows carry an error
        code, out = self.quiet_main(
            ["scan", "--p-start", repr(p_start), "--p-stop",
             repr(p_start + span), "--p-count", str(count), "--beta-start",
             "1", "--beta-stop", "1", "--format", "json"])
        ok = [p >= 1 for p in verify.axis(p_start, p_start + span, count)]
        assert [row["error"] is None for row in json.loads(out)] == ok
        assert code == (0 if any(ok) else 2)

    @given(outcomes=st.lists(st.booleans(), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_verify_suite(self, outcomes):
        checks = [verify.CheckResult(f"check-{i}", passed, "")
                  for i, passed in enumerate(outcomes)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(verify.SUITES, "oracles", lambda trials, seed: checks)
            code, out = self.quiet_main(["verify", "--suite", "oracles"])
        assert code == (0 if all(outcomes) else 4)
        assert out.endswith(
            f"\n{sum(outcomes)}/{len(outcomes)} checks passed\n")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellbound.cli", "eval", "--p", "2",
             "--beta", "3"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("value 11.99999999999")

