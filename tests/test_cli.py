"""Command-line surface: wiring, JSON schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vmrt import parse_poly
from vmrt import cli
from vmrt.cli import build_parser, main


@pytest.fixture()
def quartic_file(tmp_path):
    path = tmp_path / "quartic.poly"
    path.write_text("t0^4 + t0*t1^3 + t0*t2^3 + t0*t3^3 + t1^4 + t2^4 + t3^4\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParserWiring:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["eco-cert", "--coeffs", "4,6,4,1"])
        assert args.command == "eco-cert" and args.coeffs == "4,6,4,1"
        args = parser.parse_args(["count", "--f", "x", "--point", "1,2,3", "--seed", "7"])
        assert args.seed == 7
        args = parser.parse_args(["variation", "--family", "m2", "--n", "4"])
        assert args.family == "m2" and args.b == "1"

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["count", "--f", "x", "--point", "1"])  # no --seed
        assert err.value.code == 1


class TestEcoCert:
    def test_json_report(self, capsys):
        code, out = run_cli(capsys, ["eco-cert", "--coeffs", "4,6,4,1", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["sigma"] == ["2", "1"]
        assert report["residuals"] == ["0", "0"]

    def test_failing_vector_still_exits_zero(self, capsys):
        code, out = run_cli(capsys, ["eco-cert", "--coeffs", "0,0,0,1", "--json"])
        assert code == 0
        assert json.loads(out)["pass"] is False

    def test_bad_coeffs_exit_one(self, capsys):
        assert main(["eco-cert", "--coeffs", "1,zap"]) == 1


class TestEqs:
    def test_equations_round_trip(self, capsys, quartic_file):
        code, out = run_cli(capsys, ["eqs", "--f", quartic_file, "--point", "0,0,0", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["m"] == 2 and report["n"] == 3
        assert report["seed"] is None
        zv = ("z1", "z2", "z3")
        polys = [parse_poly(e["poly"], zv) for e in report["equations"]]
        assert polys[0] == parse_poly("z1^3 + z2^3 + z3^3", zv)
        assert polys[1] == parse_poly("z1^4 + z2^4 + z3^4", zv)

    def test_point_on_branch_exits_two(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^4 - t1^4")
        assert main(["eqs", "--f", str(path), "--point", "1,0,0"]) == 2

    def test_byte_identical_reruns(self, capsys, quartic_file):
        argv = ["eqs", "--f", quartic_file, "--point", "1/3,2,5", "--json"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


class TestEcoLine:
    def test_fermat_axis(self, tmp_path, capsys):
        path = tmp_path / "fermat.poly"
        path.write_text("t0^4 + t1^4 + t2^4 + t3^4")
        code, out = run_cli(
            capsys,
            ["eco-line", "--f", str(path), "--point", "0,0,0", "--dir", "1,0,0", "--json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["eco_line"] is False
        assert report["residuals"] == ["0", "1"]


class TestConverse:
    def test_build_from_files(self, tmp_path, capsys):
        b3 = tmp_path / "b3.poly"
        b4 = tmp_path / "b4.poly"
        b3.write_text("z1^3 + z2^3 + z3^3")
        b4.write_text("z1^4 + z2^4 + z3^4")
        code, out = run_cli(capsys, ["converse", "--b", f"{b3},{b4}", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["m"] == 2 and report["n"] == 3
        f = parse_poly(report["f"])
        assert f == parse_poly("t0^4 + t0*t1^3 + t0*t2^3 + t0*t3^3 + t1^4 + t2^4 + t3^4")

    @pytest.mark.parametrize("files", [",", ""])
    def test_empty_file_list_is_a_parse_error(self, capsys, files):
        code, out = run_cli(capsys, ["converse", "--b", files, "--json"])
        assert code == 1
        assert json.loads(out) == {"error": {"type": "ParseError", "message": "empty file list"}}

    def test_files_in_t_variables_are_refused(self, tmp_path, capsys):
        # widened to z1..z4 these would be t0^4 + t0*t1^3 + t0*t2^3 + t3^4: a renaming, not the input
        b3 = tmp_path / "b3.poly"
        b4 = tmp_path / "b4.poly"
        b3.write_text("t0^3 + t1^3")
        b4.write_text("t2^4")
        code, out = run_cli(capsys, ["converse", "--b", f"{b3},{b4}", "--json"])
        assert code == 2
        assert json.loads(out) == {
            "error": {
                "type": "InvalidInput",
                "message": "prescribed equations must use variables z1..zn",
            }
        }


class TestCount:
    def test_seeded_count(self, capsys, quartic_file):
        code, out = run_cli(
            capsys,
            ["count", "--f", quartic_file, "--point", "1/3,2,5", "--seed", "7", "--json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 12
        assert report["squarefree"] is True
        assert report["seed"] == 7


class TestVariation:
    def test_family_m2(self, capsys):
        code, out = run_cli(
            capsys, ["variation", "--family", "m2", "--n", "4", "--b", "1", "--c", "1", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["rank_dmu"] == 4
        assert report["dim_orbit"] == 16
        assert report["dim_intersection"] == 0
        assert report["maximal"] is True

    def test_family_mge3_requires_m(self, capsys):
        assert main(["variation", "--family", "mge3", "--n", "4"]) == 1
        code, out = run_cli(
            capsys,
            ["variation", "--family", "mge3", "--n", "4", "--m", "3", "--json"],
        )
        assert code == 0
        assert json.loads(out)["maximal"] is True

    def test_general_f_path(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^6 + t1^6 + t2^6 + t3^6 + t4^6")
        code, out = run_cli(capsys, ["variation", "--f", str(path), "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["rank_dmu"] == 0 and report["maximal"] is False

    def test_unnormalized_f_exits_two(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("2*t0^4 + t1^4 + t2^4 + t3^4 + t4^4")
        assert main(["variation", "--f", str(path)]) == 2

    def test_family_and_f_are_exclusive(self):
        assert main(["variation", "--family", "m2", "--n", "4", "--f", "nope"]) == 1


class TestErrors:
    def test_missing_file_exits_one(self):
        assert main(["eqs", "--f", "/does/not/exist.poly", "--point", "0,0,0"]) == 1

    def test_error_record_is_json(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^4 - t1^4")
        code = main(["eqs", "--f", str(path), "--point", "1,0,0", "--json"])
        out = capsys.readouterr().out
        assert code == 2
        record = json.loads(out)
        assert record["error"]["type"] == "BasePointOnBranch"

    def test_zero_denominator_in_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^4 + 1/0*t1^4 + t2^4 + t3^4")
        code = main(["eqs", "--f", str(path), "--point", "1,1,1", "--json"])
        out = capsys.readouterr().out
        assert code == 1
        record = json.loads(out)
        assert record["error"]["type"] == "ParseError"
        assert "1/0" in record["error"]["message"]


class TestLogging:
    def test_unknown_level_warns_once_and_runs_as_if_unset(self, monkeypatch, capsys):
        argv = ["eco-cert", "--coeffs", "0,0,0,0", "--json"]
        monkeypatch.delenv("VMRT_LOG", raising=False)
        plain_code = main(argv)
        plain = capsys.readouterr()
        monkeypatch.setenv("VMRT_LOG", "bogus")
        code = main(argv)
        bogus = capsys.readouterr()
        assert (code, bogus.out) == (plain_code, plain.out) == (0, plain.out)
        assert bogus.err == "warning: ignoring VMRT_LOG='bogus': not a logging level\n"

    def test_selftest_timings_leave_stdout_unchanged(self, monkeypatch):
        # two fast criteria stand in for the full selftest
        script = (
            "import vmrt.selftest as s\n"
            "s.CRITERIA = (s.criterion_weighted_homogeneity, s.criterion_explicit_families)\n"
            "from vmrt.cli import main\n"
            "raise SystemExit(main(['selftest', '--seed', '42']))\n"
        )
        # this checkout's package, not one installed elsewhere
        src = str(Path(__file__).resolve().parent.parent / "src")
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = {}
        for level in ("", "DEBUG"):
            monkeypatch.setenv("VMRT_LOG", level)
            runs[level] = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
            )
        plain, debug = runs[""], runs["DEBUG"]
        assert plain.returncode == debug.returncode == 0
        assert debug.stdout == plain.stdout
        assert json.loads(plain.stdout)["all_pass"] is True
        assert plain.stderr == ""
        timings = [line for line in debug.stderr.splitlines() if ":criterion " in line]
        assert [line.split(":criterion ")[1].split(":")[0] for line in timings] == [
            "2 weighted-homogeneity",
            "6 explicit-family-numbers",
        ]
        assert all(line.endswith(" s") for line in timings)


def test_import_loads_neither_logging_nor_argparse(monkeypatch):
    # the library stays cheap to import; only the CLI front end needs them
    src = str(Path(__file__).resolve().parent.parent / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys, vmrt\nprint(sorted({'logging', 'argparse'} & set(sys.modules)))\n"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


class TestSizeLimits:
    """Oversized inputs are refused with exit 2 before any heavy work starts."""

    @pytest.fixture(autouse=True)
    def no_computation(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("the computation started")

        for name in ("vmrt_equations", "explicit_family", "build_converse", "certify", "variation_report"):
            monkeypatch.setattr(cli, name, started)

    def assert_invalid_input(self, capsys, argv, fragment):
        code, out = run_cli(capsys, argv)
        assert code == 2
        record = json.loads(out)
        assert record["error"]["type"] == "InvalidInput"
        assert fragment in record["error"]["message"]

    def test_huge_exponent_file(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^100000000 + t1^100000000")
        self.assert_invalid_input(capsys, ["eqs", "--f", str(path), "--point", "1", "--json"], "degree")

    def test_variation_family_with_huge_n(self, capsys):
        argv = ["variation", "--family", "m2", "--n", "100000", "--json"]
        self.assert_invalid_input(capsys, argv, "n = 100000")

    @pytest.mark.parametrize("argv", [["m2", "--n", "0"], ["mge3", "--n", "-1", "--m", "3"]])
    def test_variation_family_with_n_below_one(self, capsys, argv):
        argv = ["variation", "--family", *argv, "--json"]
        self.assert_invalid_input(capsys, argv, f"n = {argv[4]}")

    def test_variation_family_with_huge_m(self, capsys):
        argv = ["variation", "--family", "mge3", "--n", "5", "--m", "13", "--json"]
        self.assert_invalid_input(capsys, argv, "degree 26")

    def test_huge_variable_index(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^4 + t1000000^4")
        self.assert_invalid_input(capsys, ["variation", "--f", str(path), "--json"], "variable index")

    def test_long_point(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^4 + t1^4")
        point = ",".join(["1"] * (cli.MAX_N + 1))
        self.assert_invalid_input(capsys, ["eqs", "--f", str(path), "--point", point, "--json"], "n = 13")

    def test_converse_equation_degree(self, tmp_path, capsys):
        path = tmp_path / "b.poly"
        path.write_text(f"z1^{cli.MAX_DEGREE + 1} + z2^{cli.MAX_DEGREE + 1}")
        self.assert_invalid_input(capsys, ["converse", "--b", str(path), "--json"], "degree 25")

    def test_long_coefficient_vector(self, capsys):
        coeffs = ",".join(["1"] * (cli.MAX_DEGREE + 2))
        self.assert_invalid_input(capsys, ["eco-cert", "--coeffs", coeffs, "--json"], "degree 26")

    def test_n_limit_itself_is_accepted(self):
        with pytest.raises(AssertionError, match="started"):
            main(["variation", "--family", "mge3", "--n", str(cli.MAX_N), "--m", "3"])

    def test_degree_limit_itself_is_accepted(self):
        with pytest.raises(AssertionError, match="started"):
            main(["eco-cert", "--coeffs", ",".join(["1"] * cli.MAX_DEGREE)])

    def test_work_budget_refuses_a_family_within_the_caps(self, capsys):
        argv = ["variation", "--family", "mge3", "--n", str(cli.MAX_N), "--m", "11", "--json"]
        self.assert_invalid_input(capsys, argv, "budget")

    def test_work_budget_refuses_a_sparse_equation_file(self, tmp_path, capsys):
        # 70 bytes, within both caps; the symbolic restriction yields dense coefficient forms
        path = tmp_path / "f.poly"
        path.write_text("t0^24 + " + "*".join(f"t{i}^2" for i in range(1, 13)))
        point = ",".join(["1"] * 12)
        self.assert_invalid_input(capsys, ["eqs", "--f", str(path), "--point", point, "--json"], "budget")

    def test_work_budget_refuses_a_sparse_variation_file(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^24 + t12^24")
        self.assert_invalid_input(capsys, ["variation", "--f", str(path), "--json"], "budget")

    def test_work_estimate_values(self):
        # dense term products of the half-square recursion up to tail 2m
        estimates = {(n, m): cli._recursion_work(n, m) for n, m in [(5, 4), (6, 6), (12, 3), (12, 6), (12, 12)]}
        assert {nm: f"{w:.3g}" for nm, w in estimates.items()} == {
            (5, 4): "1.1e+04",
            (6, 6): "5.74e+05",
            (12, 3): "1.72e+05",
            (12, 6): "2.59e+08",
            (12, 12): "4.9e+12",
        }
        assert estimates[(6, 6)] < cli.WORK_BUDGET < estimates[(12, 6)]

    def test_oversized_exponent_digits_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("t0^" + "9" * 5000 + " + t1^4")
        code, out = run_cli(capsys, ["eqs", "--f", str(path), "--point", "1", "--json"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_huge_decimal_exponent_is_a_parse_error(self, capsys):
        code, out = run_cli(capsys, ["eco-cert", "--coeffs=1e999999999,1", "--json"])
        assert code == 1
        record = json.loads(out)
        assert record["error"]["type"] == "ParseError"
        assert "exponent too long" in record["error"]["message"]


def test_result_too_long_to_print_exits_two(capsys):
    # sigma_1^2 has about 6000 digits, beyond the interpreter's default conversion limit
    code, out = run_cli(capsys, ["eco-cert", "--coeffs=" + "7" * 3000 + ",1", "--json"])
    assert code == 2
    record = json.loads(out)
    assert record["error"]["type"] == "InvalidInput"
    assert "too long to print" in record["error"]["message"]
