import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from bellbound import BellQuery, bell_dobinski, bounds, verify
from bellbound.cli import ScanSpec, main


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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

    def test_domain_error_exit_2(self, capsys):
        code = main(["eval", "--p", "-1", "--beta", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "p must be" in err

    def test_p_max_exit_2(self, capsys):
        # p_max is a precondition, hence a domain error
        assert main(["eval", "--p", "800", "--beta", "1"]) == 2

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

    def test_budget_error_exit_3(self, capsys):
        # beta = 1e13 needs tens of millions of terms, far past the budget
        code = main(["eval", "--p", "2", "--beta", "1e13"])
        err = capsys.readouterr().err
        assert code == 3
        assert "budget" in err


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
            reported = {c.method for c in bounds.CANDIDATES
                        if c.side == side and c.regimes}
            assert set(props[f"{side}_method"]["enum"]) == reported | {"none"}

    def test_boundary_tie(self, capsys):
        _, out = run_main(
            ["bounds", "--p", "2", "--beta", "1", "--format", "json"], capsys)
        assert json.loads(out)["regime"] == "LargeP"

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
        code = main(["scan", "--p-start", "0", "--p-stop", "10", "--p-count",
                     "3", "--p-log", "--beta-start", "1", "--beta-stop", "1"])
        assert code == 2

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

    @staticmethod
    def spec(start, stop, count, log):
        return ScanSpec(p_start=start, p_stop=stop, p_count=count, p_log=log,
                        beta_start=1.0, beta_stop=1.0, beta_count=1,
                        beta_log=False, tol=1e-12)

    def test_linear_equals_linspace(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            start = float(rng.uniform(-1e3, 1e3))
            stop = start + float(10.0 ** rng.uniform(-8, 6))
            count = int(rng.integers(1, 80))
            got = self.spec(start, stop, count, log=False).p_values()
            assert got == np.linspace(start, stop, count).tolist()

    def test_log_within_one_ulp_of_logspace(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            start, stop = sorted(10.0 ** rng.uniform(-300, 300, 2))
            count = int(rng.integers(1, 80))
            got = self.spec(start, stop, count, log=True).p_values()
            want = np.logspace(math.log10(start), math.log10(stop), count)
            if count == 1:
                want = [start]
            assert len(got) == count
            for g, w in zip(got, want):
                assert abs(g - w) <= math.ulp(w)

    def test_acceptance_grid_within_one_ulp(self):
        for got, want in (
                (verify.GRID_P, np.logspace(math.log10(2.0), math.log10(200.0), 40)),
                (verify.GRID_BETA, np.logspace(math.log10(0.1), math.log10(50.0), 12))):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= math.ulp(w)


class TestNumpyImport:
    """Only `verify` loads numpy; the scalar commands start without it."""

    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "import bellbound.cli as cli\n"
        "steps = [['import', 0, 'numpy' in sys.modules]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = cli.main(argv)\n"
        "    steps.append([argv[0], code, 'numpy' in sys.modules, out.getvalue()])\n"
        "print(json.dumps(steps))\n")

    def run_fresh(self, argvs):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT,
                               json.dumps(argvs)],
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    def test_scalar_commands_leave_numpy_unloaded(self):
        steps = self.run_fresh([
            ["eval", "--p", "3", "--beta", "1"],
            ["bounds", "--p", "10", "--beta", "1", "--format", "json"],
            ["extremal", "--a", "1", "--b", "2", "--p", "2"],
            ["scan", "--p-start", "2", "--p-stop", "100", "--p-count", "4",
             "--p-log", "--beta-start", "1", "--beta-stop", "1"],
        ])
        assert [s[0] for s in steps] == ["import", "eval", "bounds",
                                         "extremal", "scan"]
        for name, code, numpy_loaded, *_ in steps:
            assert code == 0, name
            assert not numpy_loaded, name

    def test_verify_instances_in_fresh_process(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("0:0.5,1:0.5\n0.3:0.2,2.5:0.3,7:0.5\n0:0.9,10:0.1\n")
        [_, (_, code, _, out)] = self.run_fresh(
            [["verify", "--instances", str(path)]])
        assert code == 0
        assert out.endswith("3/3 checks passed\n")


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


class TestVerifyCommand:
    def test_oracles_pass(self, capsys):
        code, out = run_main(["verify", "--suite", "oracles"], capsys)
        assert code == 0
        assert "[PASS] oracle-equivalence" in out

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
    ])
    def test_instance_file_input_error_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "family.txt"
        path.write_text(text)
        assert main(["verify", "--instances", str(path)]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_missing_instance_file_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "absent.txt")
        assert main(["verify", "--instances", path]) == 2
        assert path in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellbound.cli", "eval", "--p", "2",
             "--beta", "3"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("value 11.99999999999")

    def test_pmax_env_override(self):
        env = dict(os.environ, BELLBOUND_PMAX="100")
        proc = subprocess.run(
            [sys.executable, "-m", "bellbound.cli", "eval", "--p", "200",
             "--beta", "1"], capture_output=True, text=True, env=env)
        assert proc.returncode == 2
