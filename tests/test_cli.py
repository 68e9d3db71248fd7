import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quadcount
import _ratio_oracle
from _ratio_oracle import DegenerateSurfaceError, ratio_test
from quadcount.cli import _build_parser, main
from quadcount.fileio import (
    parse_value,
    points_from_csv,
    points_to_csv,
    sets_from_csv,
    sets_to_csv,
)
from quadcount.geometry import PointSet2, PointSet3


SETS_CSV = """\
# additive witness, n = 3
A: 1,2,3
B: 1,2,3
C: 1,2,3
D: -9,-8,-7,-6,-5,-4,-3
"""


class TestFileFormats:
    def test_sets_round_trip(self):
        sets = sets_from_csv(SETS_CSV)
        assert sets.sizes == (3, 3, 3, 7)
        again = sets_from_csv(sets_to_csv(sets))
        assert again == sets

    def test_sets_accept_rationals_and_decimals(self):
        sets = sets_from_csv("A: 1/2,0.25\nB: 1\nC: 2\nD: 3e-1\n")
        assert sets.sets[0] == (Fraction(1, 2), Fraction(1, 4))
        assert sets.sets[3] == (Fraction(3, 10),)

    def test_sets_missing_label(self):
        with pytest.raises(ValueError, match="missing sets"):
            sets_from_csv("A: 1\nB: 2\nC: 3\n")

    def test_exact_points_round_trip(self):
        text = "1/2,2,9/4\n1,1,1\n"
        points = points_from_csv(text, 3)
        assert isinstance(points, PointSet3)
        assert points.kind == "exact"
        assert points_from_csv(points_to_csv(points), 3) == points

    def test_float_points_detected_and_round_trip(self):
        text = "0.5,2.0,2.25\n1.0,1.0,1.0\n"
        points = points_from_csv(text, 3)
        assert points.kind == "float"
        assert points_from_csv(points_to_csv(points), 3) == points

    def test_dimension_mismatch(self):
        # each row must have the dimension the caller asks for
        with pytest.raises(ValueError, match="^line 2: expected 2 columns, got 3$"):
            points_from_csv("1,2\n1,2,3\n", 2)
        with pytest.raises(ValueError, match="^line 1: expected 3 columns, got 2$"):
            points_from_csv("1,2\n1,2,3\n", 3)
        assert isinstance(points_from_csv("1,2\n", 2), PointSet2)

    @pytest.mark.parametrize("text,value", [
        ("12", 12), ("-7", -7), ("+3", 3), ("007", 7), ("-0", 0),
        ("1/2", Fraction(1, 2)), ("4/2", Fraction(2)), ("-3/6", Fraction(-1, 2)),
        ("0.5", 0.5), ("3e-1", 0.3),
    ])
    def test_values_read_as_int_fraction_or_float(self, text, value):
        # integer text is an int, p/q text a Fraction and decimal text a
        # float, in both readers (a sets file reads decimals exactly)
        assert parse_value(text) == value
        assert type(parse_value(text)) is type(value)
        got = sets_from_csv(f"A: {text}\nB: 1\nC: 1\nD: 1\n").sets[0][0]
        assert got == (Fraction(text) if type(value) is float else value)
        assert type(got) is (int if got.denominator == 1 else Fraction)

    @pytest.mark.parametrize("text,message", [
        ("+-5", "invalid value '+-5'"), ("--5", "invalid value '--5'"), ("+", "invalid value '+'"),
        ("abc", "invalid value 'abc'"), ("12a", "invalid value '12a'"), ("1 2", "invalid value '1 2'"),
        ("\u00b2", "invalid value '\u00b2'"),
    ])
    def test_bad_value_messages(self, text, message):
        # "\u00b2" passes str.isdigit but is no integer, for int or Fraction
        with pytest.raises(ValueError) as exc:
            parse_value(text)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            sets_from_csv(f"A: {text}\nB: 1\nC: 1\nD: 1\n")
        assert str(exc.value) == f"line 1: {message}"

    @pytest.mark.parametrize("text", ["1_0", "1_0/3", "2.5_0", "1e1_0"])
    def test_underscore_digits_are_refused(self, text):
        # int and float take "_" separators, and Fraction does from Python
        # 3.11 on: neither format allows them, on any version
        with pytest.raises(ValueError) as exc:
            parse_value(text)
        assert str(exc.value) == f"invalid value {text!r}"
        with pytest.raises(ValueError) as exc:
            sets_from_csv(f"A: 1\nB: 1\nC: 1\nD: 2,{text}\n")
        assert str(exc.value) == f"line 4: invalid value {text!r}"
        with pytest.raises(ValueError) as exc:
            points_from_csv(f"0,0\n1,{text}\n", 2)
        assert str(exc.value) == f"line 2: invalid value {text!r}"


@pytest.fixture()
def sets_file(tmp_path):
    path = tmp_path / "sets.csv"
    path.write_text(SETS_CSV)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCountZerosCommand:
    def test_fiber_json(self, capsys, sets_file):
        code, out, _ = run_cli(
            capsys, "count-zeros", "--poly", "x+y+s+t", "--sets", sets_file,
            "--method", "fiber",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 27
        assert payload["method"] == "fiber"

    def test_naive_matches(self, capsys, sets_file):
        code, out, _ = run_cli(
            capsys, "count-zeros", "--poly", "x+y+s+t", "--sets", sets_file,
            "--method", "naive",
        )
        assert json.loads(out)["count"] == 27

    @pytest.mark.parametrize("method,tables", [("fiber", "profile"), ("naive", "power_tables")])
    def test_stages(self, capsys, sets_file, method, tables):
        code, out, _ = run_cli(
            capsys, "count-zeros", "--poly", "x+y+s+t", "--sets", sets_file,
            "--method", method,
        )
        payload = json.loads(out)
        assert set(payload["stages"]) == {"clear_denominators", tables, "count"}
        assert 0.0 <= sum(payload["stages"].values()) <= payload["elapsed_s"]

    def test_fiber_and_naive_counters(self, capsys, sets_file):
        _, out, _ = run_cli(capsys, "count-zeros", "--poly", "x+y+s+t", "--sets", sets_file,
                            "--method", "fiber")
        fiber = json.loads(out)
        # 27 fibers, every slice t + (a + b + c) of degree 1
        assert fiber["slice_degrees"] == [0, 27]
        assert "distinct_fibers" not in fiber
        _, out, _ = run_cli(capsys, "count-zeros", "--poly", "x+y+s+t", "--sets", sets_file,
                            "--method", "naive")
        naive = json.loads(out)
        # one vector (a + b + c, 1) per sum in 3..9
        assert naive["distinct_fibers"] == 7
        assert "slice_degrees" not in naive

    def test_poly_from_file(self, capsys, sets_file, tmp_path):
        poly_path = tmp_path / "poly.txt"
        poly_path.write_text("x + y + s + t\n")
        code, out, _ = run_cli(
            capsys, "count-zeros", "--poly", str(poly_path), "--sets", sets_file,
        )
        assert code == 0
        assert json.loads(out)["count"] == 27

    def test_parse_error_is_domain_error(self, capsys, sets_file):
        code, _, err = run_cli(
            capsys, "count-zeros", "--poly", "x + q", "--sets", sets_file,
        )
        assert code == 1
        assert err.startswith("error:parse:")

    def test_unknown_flag_is_usage_error(self, sets_file):
        with pytest.raises(SystemExit) as exc:
            main(["count-zeros", "--poly", "x", "--sets", sets_file, "--bogus"])
        assert exc.value.code == 2

    def test_zero_denominator_in_sets_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "sets.csv"
        path.write_text("A: 1,2\nB: 1/0\nC: 1\nD: 2\n")
        code, out, err = run_cli(capsys, "count-zeros", "--poly", "x+y+s+t", "--sets", str(path))
        assert (code, out) == (1, "")
        assert err == "error:sets: line 2: zero denominator in 'B: 1/0'\n"

    def test_bad_literal_in_sets_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "sets.csv"
        path.write_text("# grid\nA: 1,abc\nB: 1\nC: 1\nD: 2\n")
        code, out, err = run_cli(capsys, "count-zeros", "--poly", "x+y+s+t", "--sets", str(path))
        assert (code, out) == (1, "")
        assert err == "error:sets: line 2: invalid value 'abc'\n"

    def test_out_path_writes_file(self, capsys, tmp_path, sets_file):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "count-zeros", "--poly", "x+y+s+t", "--sets", sets_file,
            "--out-path", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["count"] == 27


class TestDetectSpecialCommand:
    def test_non_special_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "detect-special", "--poly", "t - (x + y*s)")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "poly", "classification", "certificate", "stages"}
        assert payload["classification"] == "non-special"
        assert set(payload["stages"]) == {"squarefree", "certify"}
        assert payload["certificate"] == {"h1": False, "h2": False, "h3": True}

    def test_special_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "detect-special", "--poly", "x+y+s+t")
        assert json.loads(out)["classification"] == "special"

    def test_poly_text_is_parsed_before_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        # `t` is the polynomial t, which misses three variables, even next to
        # a file named t; `t.txt` does not parse, so the file is read
        monkeypatch.chdir(tmp_path)
        for name in ("t", "t.txt"):
            (tmp_path / name).write_text("x + y + s + t\n")
        code, out, _ = run_cli(capsys, "detect-special", "--poly", "t")
        payload = json.loads(out)
        assert (code, payload["poly"], payload["classification"]) == (0, "t", "degenerate")
        code, out, _ = run_cli(capsys, "detect-special", "--poly", "t.txt")
        payload = json.loads(out)
        assert (code, payload["poly"], payload["classification"]) == (0, "x + y + s + t",
                                                                     "special")

    def test_value_starting_with_a_dash_as_a_separate_word(self, capsys):
        # the same JSON but for the stage timings
        payloads = []
        for words in (["--poly", "-x+y+s+t"], ["--poly=-x+y+s+t"]):
            code, out, err = run_cli(capsys, "detect-special", *words)
            assert (code, err) == (0, "")
            payloads.append(json.loads(out))
            assert set(payloads[-1].pop("stages")) == {"squarefree", "certify"}
        assert payloads[0] == payloads[1]
        assert payloads[0]["poly"] == "-x + y + s + t"

    @pytest.mark.parametrize("words", [["-h"], ["--poly", "x", "--help"], ["--poly", "-x", "-h"]],
                             ids=["alone", "after-value", "after-dash-value"])
    def test_help_as_its_own_word_prints_help(self, capsys, words):
        with pytest.raises(SystemExit) as exc:
            main(["detect-special", *words])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: quadcount detect-special")

    @pytest.mark.parametrize("text,classification,oracle", [
        ("x*y - s*t", "special", None),
        ("t - (x + y*s)", "non-special", None),
        ("x + s + t", "degenerate", "sampler failure"),
        ("x^2 + y^2 + s^2 + t^2 + 1", "special", "sampler failure"),  # no real point
    ])
    def test_output_is_strict_json(self, capsys, text, classification, oracle):
        # the exact verdict answers also where the sampler, the oracle, fails
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out, _ = run_cli(capsys, "detect-special", "--poly", text)
        assert code == 0
        payload = json.loads(out, parse_constant=refuse)
        assert payload["classification"] == classification
        poly = quadcount.parse_poly(text, ("x", "y", "s", "t"))
        try:
            ratio_test(poly, ("s", "t"), trials=5, seed=0)
        except DegenerateSurfaceError:
            assert oracle == "sampler failure"
        else:
            assert oracle is None

    @pytest.mark.parametrize("text,variable", [
        ("(x^2 + y^2 + s*t + x*s + y*t + 1)^2", "x"),
        ("(x + y + s + t)^2*(x*y - s*t)", "x"),
        ("s^2*(x + y + t)", "s"),
    ])
    def test_repeated_factor_is_a_domain_error(self, capsys, text, variable):
        code, out, err = run_cli(capsys, "detect-special", "--poly", text)
        assert (code, out) == (1, "")
        assert err.startswith(f"error:detect: F is not squarefree in '{variable}': ")

    @pytest.mark.parametrize("text", ["(" * 2000 + "x+y+s+t" + ")" * 2000, "-" * 2000 + "x"],
                             ids=["parentheses", "signs"])
    def test_deep_nesting_is_a_parse_error(self, capsys, text):
        code, out, err = run_cli(capsys, "detect-special", f"--poly={text}")
        assert (code, out) == (1, "")
        assert err.startswith("error:parse: expression nested too deeply (at position ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_verdict_never_runs_the_sampler(self, capsys, monkeypatch):
        # the float sampler is a test oracle; the verdict is exact without it
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(_ratio_oracle, "ratio_test", refuse)
        monkeypatch.setattr(_ratio_oracle, "_Surface", refuse)
        for name in ("ratio_test", "DegenerateSurfaceError", "SAMPLING_BOX", "RESIDUAL_TOL",
                     "GRADIENT_FLOOR", "RATIO_PASS", "RATIO_FAIL"):
            assert name not in quadcount.__all__
            assert not hasattr(quadcount.separability, name)
        code, out, _ = run_cli(capsys, "detect-special", "--poly", "t - (x + y*s)")
        assert (code, json.loads(out)["classification"]) == (0, "non-special")

    @pytest.mark.parametrize("flag", ["--box", "--ratio-pass", "--ratio-fail",
                                      "--grad-floor", "--g-pass"])
    def test_threshold_flags_are_usage_errors(self, flag):
        # the detector's thresholds are fixed constants, not options
        with pytest.raises(SystemExit) as exc:
            main(["detect-special", "--poly", "x+y+s+t", flag, "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_sampler_flags_are_usage_errors(self, flag):
        # the verdict is exact: no option draws or counts sampler walks
        with pytest.raises(SystemExit) as exc:
            main(["detect-special", "--poly", "x+y+s+t", flag, "5"])
        assert exc.value.code == 2


class TestConstructCommand:
    def test_ap_additive_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "ap-additive", "--n", "3", "--out", "csv",
        )
        assert code == 0
        assert "# poly: x + y + s + t" in out
        sets = sets_from_csv(out)
        assert sets.sizes == (3, 3, 3, 7)

    def test_elliptic_points_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "elliptic", "--n", "6", "--out", "csv",
        )
        assert code == 0
        points = points_from_csv(out, 3)
        assert points.kind == "float"
        assert len(points) == 5

    def test_moment_exact_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "moment", "--n", "4", "--out", "csv",
        )
        points = points_from_csv(out, 3)
        assert points.kind == "exact"
        assert points.points[0] == (1, 1, 1)
        assert points.points[-1] == (4, 16, 64)

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_construction_checks_its_own_n(self, capsys, n):
        code, out, err = run_cli(capsys, "construct", "--kind", "moment", "--n", n)
        assert (code, out, err) == (1, "", "error:construct: n must be >= 1\n")


class TestGeometryCommands:
    def test_count_coplanar(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0,0\n1,0,0\n0,1,0\n1,1,0\n0,0,1\n")
        code, out, _ = run_cli(capsys, "count-coplanar", "--points", str(path))
        payload = json.loads(out)
        assert (payload["count"], payload["method"]) == (1, "fast")
        assert (payload["lines"], payload["planes"]) == (10, 8)

    def test_count_coplanar_float_naive(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.0,0.0,0.0\n1.0,0.0,0.0\n0.25,1.0,0.0\n1.0,1.5,0.0\n0.0,0.25,1.0\n")
        code, out, _ = run_cli(capsys, "count-coplanar", "--points", str(path))
        payload = json.loads(out)
        assert payload["method"] == "naive"
        assert payload["count"] == 1
        assert payload["max_accepted"] < 1e-7 <= payload["min_rejected"]
        assert payload["near_threshold"] == 0

    def test_collapsed_float_margin_is_domain_error(self, capsys, tmp_path):
        # accepted |det|/scale reaches 7.9e-8, rejected starts at 1.1e-7
        path = tmp_path / "pts.csv"
        path.write_text("0.0,0.0,0.0\n1.0,0.0,0.0\n0.0,1.0,0.0\n1.0,1.0,1e-9\n1.0,2.0,5e-7\n")
        code, out, err = run_cli(capsys, "count-coplanar", "--points", str(path), "--tol=1e-7")
        assert (code, out) == (1, "")
        assert err.startswith("error:count:") and "margin collapsed" in err

    def test_default_tol_counts_the_torsion_construction(self, capsys, tmp_path):
        # the default tolerance is the one validated on the torsion points:
        # at n = 32 the index oracle's count, where 1e-7 collapses the margin
        code, out, _ = run_cli(capsys, "construct", "--kind", "elliptic", "--n", "32",
                               "--out", "csv")
        path = tmp_path / "torsion.csv"
        path.write_text(out)
        code, out, err = run_cli(capsys, "count-coplanar", "--points", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 987

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_float_tol_must_be_finite_and_positive(self, capsys, tmp_path, tol):
        path = tmp_path / "pts.csv"
        path.write_text("0.0,0.0,0.0\n1.0,0.0,0.0\n0.25,1.0,0.0\n1.0,1.5,0.0\n0.0,0.25,1.0\n")
        code, out, err = run_cli(capsys, "count-coplanar", "--points", str(path), f"--tol={tol}")
        assert (code, out) == (1, "")
        assert err.startswith("error:count: tol must be finite and positive")

    def test_float_fast_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.5,0.0,0.0\n1.0,0.0,0.0\n0.0,1.0,0.0\n1.0,1.0,1.0\n")
        code, _, err = run_cli(
            capsys, "count-coplanar", "--points", str(path), "--method", "fast",
        )
        assert code == 1
        assert err.startswith("error:count:")

    @pytest.mark.parametrize("command,rows,message", [
        ("count-coplanar", "0,0,0\n3,1/0,1\n", "line 2: zero denominator in '1/0'"),
        ("count-collinear", "0,0\n1,2/0\n", "line 2: zero denominator in '2/0'"),
        ("count-coplanar", "0.0,0.0,0.0\n1.0,1e400,0.0\n", "float coordinates must be finite"),
        ("count-coplanar", "0,0,0\n1,abc,0\n", "line 2: invalid value 'abc'"),
        ("count-circles", "0,0\n1.5,2.x\n", "line 2: invalid value '2.x'"),
        ("count-collinear", "0,0,0\n1,2,3\n", "line 1: expected 2 columns, got 3"),
    ], ids=["exact-3d", "exact-2d", "float-overflow", "bad-literal", "bad-decimal",
            "wrong-dimension"])
    def test_bad_point_value_is_a_domain_error(self, capsys, tmp_path, command, rows, message):
        path = tmp_path / "pts.csv"
        path.write_text(rows)
        code, out, err = run_cli(capsys, command, "--points", str(path))
        assert (code, out) == (1, "")
        assert err == f"error:points: {message}\n"

    def test_count_collinear(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n1,1\n2,2\n5,0\n")
        code, out, _ = run_cli(capsys, "count-collinear", "--points", str(path))
        payload = json.loads(out)
        assert payload["count"] == 1
        assert (payload["lines"], payload["planes"]) == (5, 0)

    @pytest.mark.parametrize("command", ["count-collinear", "count-circles"])
    def test_float_points_on_exact_counters_are_domain_errors(self, capsys, tmp_path, command):
        path = tmp_path / "pts.csv"
        path.write_text("0.0,0.0\n1.0,1.0\n2.0,2.0\n0.5,3.0\n")
        code, out, err = run_cli(capsys, command, "--points", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:count:") and "requires exact coordinates" in err

    def test_repeated_point_is_a_points_error(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,0\n0,1\n-1,0\n0,-1\n0,1\n")
        code, out, err = run_cli(capsys, "count-circles", "--points", str(path))
        assert (code, out, err) == (1, "", "error:points: duplicate points\n")

    def test_count_circles(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,0\n0,1\n-1,0\n0,-1\n3/5,4/5\n")
        code, out, _ = run_cli(capsys, "count-circles", "--points", str(path))
        payload = json.loads(out)
        assert (payload["circles"], payload["count"]) == (1, 5)


class TestFitExponentCommand:
    def test_ap_additive_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit-exponent", "--experiment", "ap-additive-zeros",
            "--ns", "4,8,16", "--out", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,count,elapsed_ms"
        assert lines[1].startswith("4,64,")
        assert lines[-2].startswith("exponent,3.0000")
        assert lines[-1].startswith("slope,3.0000")

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit-exponent", "--experiment", "ap-additive-zeros",
            "--ns", "4,8,16", "--out", "json",
        )
        payload = json.loads(out)
        assert payload["slope"] == pytest.approx(3.0, abs=1e-12)
        assert payload["exponent"] == pytest.approx(3.0, abs=1e-12)
        assert [row[1] for row in payload["rows"]] == [64, 512, 4096]
        assert set(payload["stages"]) == {f"{stage}_{n}" for stage in ("build", "count")
                                          for n in (4, 8, 16)}
        assert "seed" not in payload

    def test_elliptic_oracle_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit-exponent", "--experiment", "elliptic-oracle", "--ns", "16,32,64",
        )
        payload = json.loads(out)
        assert payload["experiment"] == payload["name"] == "elliptic-oracle"
        assert [row[:2] for row in payload["rows"]] == [[16, 87], [32, 987], [64, 9315]]

    @pytest.mark.parametrize("experiment,ns,slope,exponent", [
        ("elliptic-coplanar", "8,16,32", 3.8125, 2.8869),
        ("elliptic-oracle", "16,32,64,128", 3.2813, 2.9934),
        ("nonspecial-grid-zeros", "8,16,32,64", 2.3656, 2.2169),
        ("ap-additive-zeros", "4,8,16,32", 3.0000, 3.0000),
        # not all doublings: the benchmark's two fit jobs
        ("elliptic-coplanar", "8,16,24,32", 3.8257, 2.9820),
        ("elliptic-oracle", "128,256,384", 3.0490, 2.9995),
    ])
    def test_exponent_table(self, capsys, experiment, ns, slope, exponent):
        # the extrapolation cancels the 1/n deficit that lifts the slope
        code, out, _ = run_cli(capsys, "fit-exponent", "--experiment", experiment, "--ns", ns)
        payload = json.loads(out)
        assert code == 0
        assert (round(payload["slope"], 4), round(payload["exponent"], 4)) == (slope, exponent)
        code, out, _ = run_cli(capsys, "fit-exponent", "--experiment", experiment, "--ns", ns,
                               "--out", "csv")
        lines = out.strip().splitlines()
        assert lines[-2] == f"exponent,{payload['exponent']:.6f},"
        assert lines[-1] == f"slope,{payload['slope']:.6f},"

    @pytest.mark.parametrize("experiment", sorted(quadcount.harness.EXPERIMENTS))
    @pytest.mark.parametrize("ns", ["0,1,2", "-2,1,2"])
    def test_n_below_one_is_a_domain_error(self, capsys, experiment, ns):
        # nonspecial-grid-zeros once built empty grids and printed zero counts
        code, out, err = run_cli(capsys, "fit-exponent", "--experiment", experiment, f"--ns={ns}")
        assert (code, out) == (1, "")
        assert err.startswith("error:experiment: n_list must be strictly increasing from n >= 1")


COMMANDS = ("count-zeros", "detect-special", "construct", "count-coplanar",
            "count-collinear", "count-circles", "fit-exponent")

# the required options of each command, so that only the option under test
# can make the parse fail
VALID_ARGS = {
    "count-zeros": ["--poly", "x+y+s+t", "--sets", "sets.csv"],
    "detect-special": ["--poly", "x*y - s*t"],
    "construct": ["--kind", "moment", "--n", "4"],
    "count-coplanar": ["--points", "points.csv"],
    "count-collinear": ["--points", "points.csv"],
    "count-circles": ["--points", "points.csv"],
    "fit-exponent": ["--experiment", "moment-coplanar", "--ns", "4,6,8"],
}


def subparsers(parser):
    return next(a.choices for a in parser._actions if isinstance(a.choices, dict))


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_subparser_has_the_full_parsers_help(self, command):
        full, single = _build_parser(), _build_parser(command)
        assert list(subparsers(full)) == list(COMMANDS)
        assert list(subparsers(single)) == [command]
        assert subparsers(single)[command].format_help() == subparsers(full)[command].format_help()

    @pytest.mark.parametrize("command,option", [
        *((command, ["--config", "f"]) for command in COMMANDS),
        ("count-zeros", ["--vars", "x,y,s,t"]),
        ("detect-special", ["--vars", "x,y,s,t"]),
        ("count-zeros", ["--solve-var", "x"]),
        ("construct", ["--a", "1"]),
        ("construct", ["--b", "1"]),
        ("construct", ["--spacing", "1"]),
        *((command, ["--out", "json"]) for command in COMMANDS
          if command not in ("construct", "fit-exponent")),
    ])
    def test_removed_options_are_usage_errors(self, capsys, command, option):
        # every value is set by its own flag; there is no config file,
        # --poly is always read over x, y, s, t, count-zeros always solves
        # t, construct always builds y^2 = x^3 + x + 1 and t = 1..n, and
        # only construct and fit-exponent choose an output format
        with pytest.raises(SystemExit) as exc:
            main([command, *VALID_ARGS[command], *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [c for c in COMMANDS
                                         if c not in ("construct", "fit-exponent")])
    def test_csv_out_is_a_usage_error_without_a_csv_format(self, capsys, command):
        # only construct and fit-exponent write a CSV format of their own
        with pytest.raises(SystemExit) as exc:
            main([command, *VALID_ARGS[command], "--out", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_option_has_a_single_choice(self, command):
        # an option whose one legal value is its default sets nothing
        single = [action.option_strings for action in subparsers(_build_parser())[command]._actions
                  if action.choices is not None and len(action.choices) < 2]
        assert single == []

    def test_readme_commands_parse(self):
        # every quadcount line of README's Command line block is a valid call
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        calls = [shlex.split(line)[1:] for line in block.splitlines()
                 if line.startswith("quadcount ")]
        assert {call[0] for call in calls} == set(COMMANDS)
        for call in calls:
            assert _build_parser(call[0]).parse_args(call).command == call[0]

    def test_unknown_command_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count-everything"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'count-everything'" in err
        assert all(f"'{command}'" in err for command in COMMANDS)


def child_env():
    # a child interpreter that imports this checkout's quadcount
    src = str(Path(quadcount.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_no_cli_job_loads_numpy_dataclasses_or_statistics(tmp_path, sets_file):
    # the program runs on the standard library alone: neither the import of
    # the CLI nor any subcommand after it, all in one interpreter, loads
    # numpy or scipy (any of its modules; scipy once cost ~0.7 s of every
    # job).  Nor do dataclasses (with the inspect it pulls in) and
    # statistics, which a cold job would pay for on every start
    exact3, float3, plane = tmp_path / "e3.csv", tmp_path / "f3.csv", tmp_path / "p2.csv"
    exact3.write_text("0,0,0\n1,0,0\n0,1,0\n1,1,0\n0,0,1\n")
    float3.write_text("0.0,0.0,0.0\n1.0,0.0,0.0\n0.25,1.0,0.0\n1.0,1.5,0.0\n0.0,0.25,1.0\n")
    plane.write_text("1,0\n0,1\n-1,0\n0,-1\n3/5,4/5\n")
    jobs = [
        ["count-zeros", "--poly", "x+y+s+t", "--sets", sets_file],
        # a linear and a cubic slice in the solved variable
        ["detect-special", "--poly", "t - (x + y*s)"],
        ["detect-special", "--poly", "x^2 + y^3 + s + t^2"],
        ["construct", "--kind", "elliptic", "--n", "8"],
        ["count-coplanar", "--points", str(exact3)],
        ["count-coplanar", "--points", str(float3)],
        ["count-collinear", "--points", str(plane)],
        ["count-circles", "--points", str(plane)],
        ["fit-exponent", "--experiment", "moment-coplanar", "--ns", "8,12,16"],
    ]
    code = ("import json, sys\n"
            "def loaded():\n"
            "    packages = {name.split('.')[0] for name in sys.modules}\n"
            "    return [m for m in ('numpy', 'scipy', 'dataclasses', 'inspect', 'statistics')\n"
            "            if m in packages]\n"
            "from quadcount.cli import main\n"
            "print('import', loaded())\n"
            "for job in json.loads(sys.argv[1]):\n"
            "    assert main(job + ['--out-path', sys.argv[2]]) == 0, job\n"
            "    out = json.load(open(sys.argv[2]))\n"
            "    print(out['command'], out.get('classification'), loaded())\n")
    result = subprocess.run([sys.executable, "-c", code, json.dumps(jobs), str(tmp_path / "out")],
                            capture_output=True, text=True, env=child_env(), check=True)
    verdicts = {"t - (x + y*s)": "non-special", "x^2 + y^3 + s + t^2": "special"}
    assert result.stdout.splitlines() == (
        ["import []"] + [f"{job[0]} {verdicts.get(job[2])} []" for job in jobs])


# the benchmark's and the console script's way in, and python -m
ENTRIES = {
    "sys.exit(main())": ["-c", "import sys; from quadcount.cli import main; sys.exit(main())"],
    "python -m": ["-m", "quadcount.cli"],
}


def run_entry(entry, argv, cwd):
    # block-buffered stdout, as by default, so output left unflushed is lost
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *ENTRIES[entry], *argv], cwd=cwd,
                          capture_output=True, text=True, env=env)


def without_timings(text):
    report = json.loads(text)
    report.pop("elapsed_s", None)
    report.pop("stages", None)
    if "rows" in report:
        report["rows"] = [row[:2] for row in report["rows"]]  # drop elapsed_ms
    return report


@pytest.mark.parametrize("entry", ENTRIES)
def test_console_entry_prints_what_main_returns(capsys, monkeypatch, tmp_path, sets_file,
                                                entry):
    # the process ends by os._exit: its stdout must still be complete
    (tmp_path / "e3.csv").write_text("0,0,0\n1,0,0\n0,1,0\n1,1,0\n0,0,1\n")
    (tmp_path / "p2.csv").write_text("1,0\n0,1\n-1,0\n0,-1\n3/5,4/5\n")
    jobs = [
        ["count-zeros", "--poly", "x+y+s+t", "--sets", sets_file],
        ["detect-special", "--poly", "x*y - s*t"],
        ["construct", "--kind", "elliptic", "--n", "8"],
        ["count-coplanar", "--points", "e3.csv"],
        ["count-collinear", "--points", "p2.csv"],
        ["count-circles", "--points", "p2.csv"],
        ["fit-exponent", "--experiment", "moment-coplanar", "--ns", "6,8,10"],
    ]
    assert [job[0] for job in jobs] == list(COMMANDS)
    monkeypatch.chdir(tmp_path)
    for job in jobs:
        code, out, _ = run_cli(capsys, *job)
        result = run_entry(entry, job, tmp_path)
        assert (result.returncode, result.stderr) == (code, ""), job
        assert without_timings(result.stdout) == without_timings(out), job


@pytest.mark.parametrize("entry", ENTRIES)
def test_console_entry_writes_long_csv_in_full(capsys, tmp_path, entry):
    # about 60 kB, several times an output buffer, to stdout and to --out-path
    job = ["construct", "--kind", "moment", "--n", "2000", "--out", "csv"]
    code, expected, _ = run_cli(capsys, *job)
    assert code == 0 and expected.count("\n") == 2000
    result = run_entry(entry, job, tmp_path)
    assert (result.returncode, result.stdout) == (0, expected)
    result = run_entry(entry, [*job, "--out-path", "points.csv"], tmp_path)
    assert (result.returncode, result.stdout) == (0, "")
    assert (tmp_path / "points.csv").read_text() == expected


@pytest.mark.parametrize("entry", ENTRIES)
def test_console_entry_exit_codes(tmp_path, sets_file, entry):
    result = run_entry(entry, ["count-zeros", "--poly", "x + q", "--sets", sets_file], tmp_path)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error:parse:")
    result = run_entry(entry, ["count-zeros", "--poly", "x", "--sets", sets_file, "--bogus"],
                       tmp_path)
    assert result.returncode == 2
    assert "unrecognized arguments: --bogus" in result.stderr


class _Exited(Exception):
    pass


class _Stream(io.StringIO):
    """A stream that records its flushes in `events`, or fails them."""

    def __init__(self, name, events, fail=False):
        super().__init__()
        self.name, self.events, self.fail = name, events, fail

    def flush(self):
        if self.fail:
            raise BrokenPipeError(32, "Broken pipe")
        self.events.append(f"flush {self.name}")


@pytest.fixture()
def program(monkeypatch):
    """Runs `main()` on the given argv as the program; returns the events
    (flushes and the os._exit code), stdout and stderr."""
    def run(*argv, fail_flush=False):
        events = []

        def fake_exit(code):
            events.append(("exit", code))
            raise _Exited

        out, err = _Stream("stdout", events, fail_flush), _Stream("stderr", events)
        monkeypatch.setattr(sys, "argv", ["quadcount", *argv])
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setattr(os, "_exit", fake_exit)
        try:
            returned = main()
        except _Exited:
            returned = None
        return returned, events, out.getvalue(), err.getvalue()

    return run


class TestProgramEntry:
    def test_flushes_then_exits_with_the_code(self, program, sets_file):
        returned, events, out, _ = program("count-zeros", "--poly", "x+y+s+t", "--sets", sets_file)
        assert returned is None
        assert events == ["flush stdout", "flush stderr", ("exit", 0)]
        assert json.loads(out)["count"] == 27

    def test_domain_error_code_is_passed_on(self, program, sets_file):
        returned, events, out, err = program("count-zeros", "--poly", "x + q", "--sets", sets_file)
        assert events[-1] == ("exit", 1)
        assert out == "" and err.startswith("error:parse:")

    def test_failed_flush_returns_the_code(self, program, sets_file):
        returned, events, _, _ = program("count-zeros", "--poly", "x+y+s+t", "--sets", sets_file,
                                         fail_flush=True)
        assert returned == 0
        assert events == []

    def test_explicit_argv_returns(self, monkeypatch, capsys, sets_file):
        exits = []
        monkeypatch.setattr(os, "_exit", exits.append)
        assert main(["count-zeros", "--poly", "x+y+s+t", "--sets", sets_file]) == 0
        assert exits == []
        assert json.loads(capsys.readouterr().out)["count"] == 27
