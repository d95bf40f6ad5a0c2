"""The axetlab command line: exit codes, output, report files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from axetlab import cli
from axetlab.algfile import MAX_DIM, parse_algebra_file
from axetlab.catalog import make_Q2_third


def emit(tmp_path, name, *extra):
    path = tmp_path / ("%s.alg" % name.replace("/", "-"))
    code = cli.main(["catalog", name, "-o", str(path), *extra])
    assert code == 0
    return str(path)


def test_catalog_to_stdout(capsys):
    assert cli.main(["catalog", "Q2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("field rational\n")
    assert "product s1 d1 = 1/3*s1 + 1/6*d1 - 1/6*d2" in out
    assert "axis jordan 1/3 s1" in out
    assert "axis monster 2/3 1/3 d1" in out


GOLDEN_CATALOG = Path(__file__).resolve().parent / "golden" / "catalog"


@pytest.mark.parametrize("name", cli.CATALOG)
def test_catalog_emit_is_pinned(capsys, name):
    extra = ["--alpha", "1/4"] if name in ("3C", "3C-skew") else []
    assert cli.main(["catalog", name, *extra]) == 0
    pinned = (GOLDEN_CATALOG / (name + ".alg")).read_text()
    assert capsys.readouterr().out == pinned


def test_catalog_emit_token_tolerated(tmp_path, capsys):
    assert cli.main(["catalog", "emit", "3C", "--alpha", "1/4"]) == 0
    out = capsys.readouterr().out
    assert "1/8*x + 1/8*y - 1/8*z" in out


def test_catalog_q2x5_is_the_prime_field_table(capsys):
    assert cli.main(["catalog", "Q2x5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("field prime 5\n")
    assert "product x z = 3*x + y + 2*z" in out
    doc = parse_algebra_file(out)
    assert doc.algebra.find_identity() == doc.algebra.gen("one")


def test_catalog_unknown_name_is_usage_error(capsys):
    assert cli.main(["catalog", "nosuch"]) == 2


def test_catalog_missing_alpha_is_usage_error(capsys):
    assert cli.main(["catalog", "3C-skew"]) == 2
    assert "--alpha" in capsys.readouterr().err


def test_catalog_degenerate_alpha_is_usage_error(capsys):
    assert cli.main(["catalog", "3C-skew", "--alpha", "1/2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("alpha, message", [
    ("1/0", "division by zero at position 1"),
    ("0.25", "unexpected character '.'"),
])
def test_catalog_unparsable_alpha_is_usage_error(capsys, alpha, message):
    assert cli.main(["catalog", "3C", "--alpha", alpha]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_verify_catalog_corpus(tmp_path, capsys):
    for name, extra in [("2B", ()), ("3C", ("--alpha", "1/4")),
                        ("3C-skew", ("--alpha", "1/4")), ("3C-1-2", ()),
                        ("Q2", ()), ("Q2-skew", ()), ("Q2x", ()),
                        ("Q2x5", ()), ("orthogonal", ())]:
        path = emit(tmp_path, name, *extra)
        assert cli.main(["verify", path]) == 0, name
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.splitlines()[0].startswith("axis 1: pass")


def test_verify_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("field rational\ndim 2\nbasis a b\nproduct a a = a\n"
                    "product a b = b\nproduct b b = a\n"
                    "axis jordan 1/3 b\n")
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "idempotent=False" in out


ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILES = ROOT / "tests" / "golden" / "files"


def test_verify_a_small_file_with_big_denominators_ends():
    # 1 kB over Q(8 symbols) whose eigenbasis table has large denominators
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from axetlab import cli; "
         "sys.exit(cli.main(['verify', sys.argv[1]]))",
         str(GOLDEN_FILES / "ff8-seed1.alg")],
        env=env, capture_output=True, text=True, timeout=30)
    assert run.returncode == 1, run.stderr[-2000:]
    assert run.stdout == (
        "axis 1: FAIL  idempotent=True spectrum=True primitive=True "
        "violations=3 (dim A_1 = 1, dim A_0 = 1, dim A_alpha = 1)\n")


def test_verify_without_axes_is_usage_error(tmp_path, capsys):
    path = tmp_path / "noaxes.alg"
    path.write_text("field rational\ndim 1\nbasis e\nproduct e e = e\n")
    assert cli.main(["verify", str(path)]) == 2
    assert "declares no axes" in capsys.readouterr().err


def test_verify_law_override(tmp_path, capsys):
    # a jordan axis passes under the wider law: its alpha part is empty
    path = emit(tmp_path, "Q2")
    assert cli.main(["verify", path, "--law", "2/3", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


@pytest.mark.parametrize("option, message", [
    (["--law", "1/3", "0"], "beta must avoid 0 and 1, got 0"),
    (["--jordan", "1"], "eta must avoid 0 and 1, got 1"),
])
def test_degenerate_law_option_exits_2(tmp_path, capsys, option, message):
    path = emit(tmp_path, "Q2")
    assert cli.main(["verify", path, *option]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_verify_jordan_override(tmp_path, capsys):
    # the monster axis d1 has a genuine 2/3 part, so J(1/3) cannot hold
    path = emit(tmp_path, "Q2")
    assert cli.main(["verify", path, "--jordan", "1/3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("axis 1: pass")
    assert lines[1].startswith("axis 2: pass")
    assert lines[2].startswith("axis 3: FAIL")
    assert lines[3].startswith("axis 4: FAIL")


def test_verify_report_file(tmp_path, capsys):
    path = emit(tmp_path, "Q2")
    report = tmp_path / "report.json"
    assert cli.main(["verify", path, "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["command"] == "verify"
    assert data["file"] == path
    assert data["passed"] is True
    assert [a["axis"] for a in data["axes"]] == [1, 2, 3, 4]
    assert all(a["passed"] for a in data["axes"])


def test_axet_skew_files_are_three_point(tmp_path, capsys):
    for name, extra in [("3C-skew", ("--alpha", "1/4")), ("3C-1-2", ()),
                        ("Q2-skew", ()), ("orthogonal", ())]:
        path = emit(tmp_path, name, *extra)
        assert cli.main(["axet", path]) == 0
        assert capsys.readouterr().out == "Xskew(1) with 3 points\n"


def test_axet_polygon_shapes(tmp_path, capsys):
    path = emit(tmp_path, "Q2x")
    assert cli.main(["axet", path]) == 0
    assert capsys.readouterr().out == "X(4) with 4 points\n"
    path = emit(tmp_path, "3C", "--alpha", "1/4")
    assert cli.main(["axet", path]) == 0
    assert capsys.readouterr().out == "X(3) with 3 points\n"
    path = emit(tmp_path, "2B")
    assert cli.main(["axet", path]) == 0
    assert capsys.readouterr().out == "X(2) with 2 points\n"


def test_axet_axis_declared_twice_is_one_point(tmp_path, capsys):
    path = emit(tmp_path, "3C", "--alpha", "1/3")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("axis jordan 1/3 x\n")
    assert cli.main(["axet", path]) == 0
    assert capsys.readouterr().out == "X(3) with 3 points\n"


def test_axet_single_axis_is_degenerate(tmp_path, capsys):
    path = tmp_path / "one.alg"
    path.write_text("field rational\ndim 1\nbasis e\nproduct e e = e\n"
                    "axis jordan 1/3 e\n")
    assert cli.main(["axet", str(path)]) == 0
    assert capsys.readouterr().out \
        == "X(1) with 1 point (degenerate: single point)\n"


def test_axet_report_file(tmp_path, capsys):
    path = emit(tmp_path, "Q2-skew")
    report = tmp_path / "axet.json"
    assert cli.main(["axet", path, "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data == {"command": "axet", "file": path,
                    "shape": "Xskew(1)", "points": 3}


def test_axet_max_points_bound(tmp_path, capsys):
    path = emit(tmp_path, "Q2x")
    assert cli.main(["axet", path, "--max-points", "2"]) == 1
    assert "error:" in capsys.readouterr().err
    # 3C's three given axes exceed the bound before any orbit grows
    path = emit(tmp_path, "3C", "--alpha", "1/4")
    assert cli.main(["axet", path, "--max-points", "2"]) == 1
    assert "orbit exceeds 2 points" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_axet_max_points_below_1_is_a_usage_error(tmp_path, capsys, bound):
    path = emit(tmp_path, "Q2x")
    assert cli.main(["axet", path, "--max-points", bound]) == 2
    assert ("argument --max-points: must be at least 1, not %s" % bound
            in capsys.readouterr().err)


INFINITE_ORBIT = str(GOLDEN_FILES / "infinite-orbit.alg")


def test_axet_stops_an_infinite_orbit_at_the_default_bound(capsys):
    # two Jordan 1/2 axes that pass verify and generate an infinite orbit
    assert cli.main(["verify", INFINITE_ORBIT]) == 0
    capsys.readouterr()
    assert cli.main(["axet", INFINITE_ORBIT]) == 1
    assert capsys.readouterr().err == "error: orbit exceeds 24 points\n"


@pytest.mark.parametrize("bound", [str(cli.MAX_POINTS + 1), "100000"])
def test_axet_max_points_above_the_cap_is_a_usage_error(capsys, bound):
    # the orbit's cost grows about as the cube of the bound
    assert cli.main(["axet", INFINITE_ORBIT, "--max-points", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --max-points: must be at most %d, not %s"
            % (cli.MAX_POINTS, bound) in captured.err)


def test_axet_max_points_takes_the_cap(tmp_path, capsys):
    path = emit(tmp_path, "Q2x")
    assert cli.main(["axet", path, "--max-points", str(cli.MAX_POINTS)]) == 0
    assert capsys.readouterr().out == "X(4) with 4 points\n"


@pytest.mark.parametrize("text", ["0_5", "+5", " 5", "1_0", "\uff15"])
def test_integer_options_take_ascii_digits_only(tmp_path, capsys, text):
    # int() would take each of these
    path = emit(tmp_path, "Q2x")
    assert cli.main(["paper-suite", "--char", text]) == 2
    assert cli.main(["axet", path, "--max-points", text]) == 2
    assert capsys.readouterr().out == ""


def test_integer_options_still_take_plain_literals(tmp_path, capsys):
    path = emit(tmp_path, "Q2x")
    assert cli.main(["axet", path, "--max-points", "24"]) == 0
    assert cli.main(["paper-suite", "--char", "5"]) == 0
    assert "characteristic 5" in capsys.readouterr().out


def test_axet_non_axis_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("field rational\ndim 2\nbasis a b\nproduct a a = a\n"
                    "product a b = b\nproduct b b = a\n"
                    "axis jordan 1/3 b\n")
    assert cli.main(["axet", str(path)]) == 1
    assert "axis verification" in capsys.readouterr().err


def test_paper_suite_char0(capsys, tmp_path):
    report = tmp_path / "suite.json"
    assert cli.main(["paper-suite", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verification suite, characteristic 0\n")
    assert out.rstrip().endswith("28 passed, 0 failed, 10 skipped")
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert data["characteristic"] == 0


def test_paper_suite_char5_skips_rational_items(capsys):
    assert cli.main(["paper-suite", "--char", "5"]) == 0
    out = capsys.readouterr().out
    assert "characteristic 0 only" in out
    assert out.rstrip().endswith("14 passed, 0 failed, 24 skipped")


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text("dim 1\nfield rational\n")
    assert cli.main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["-" * 5000 + "e",
                                  "(" * 5000 + "e" + ")" * 5000])
def test_deep_nesting_exits_2_with_position(tmp_path, capsys, expr):
    path = tmp_path / "deep.alg"
    path.write_text("field rational\ndim 1\nbasis e\nproduct e e = %s\n"
                    "axis jordan 1/3 e\n" % expr)
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    # the 101st opener, at offset 100 of the expression, is refused
    assert err.startswith("error: line 4, column 115: expression nested")


@pytest.mark.parametrize("field, expr, column", [
    ("rational", "3^3000000*e", 17),
    ("function x", "x^1000^1000*e", 17),
    ("function x", "((x^20)^20)^20*e", 27),
    ("function alpha beta", "(alpha+beta+1)^200*e", 30),
])
def test_huge_power_exits_2_with_position(tmp_path, capsys, field, expr,
                                          column):
    path = tmp_path / "power.alg"
    path.write_text("field %s\ndim 1\nbasis e\nproduct e e = %s\n"
                    "axis jordan 1/3 e\n" % (field, expr))
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4, column %d: power too large" % column)


@pytest.mark.parametrize("expr, column, message", [
    ("²*e", 15, "unexpected character"),
    ("1" * 5000 + "*e", 15, "integer literal of 5000 digits is too long"),
    ("2^" + "1" * 5000 + "*e", 17,
     "integer literal of 5000 digits is too long"),
])
def test_bad_integer_literal_exits_2_with_position(tmp_path, capsys, expr,
                                                   column, message):
    path = tmp_path / "literal.alg"
    path.write_text("field rational\ndim 1\nbasis e\nproduct e e = %s\n"
                    "axis jordan 1/3 e\n" % expr, encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4, column %d: %s" % (column, message))


def test_dim_over_the_bound_exits_2_with_position(tmp_path, capsys):
    path = tmp_path / "wide.alg"
    names = " ".join("e%d" % i for i in range(200))
    path.write_text("field rational\ndim  200\nbasis %s\n" % names)
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2, column 6: dim 200 is over %d\n" % MAX_DIM)


ONE_DIM = "dim 1\nbasis e\nproduct e e = e\n"


@pytest.mark.parametrize("text, line, column, message", [
    ("field prime 4\n" + ONE_DIM, 1, 13, "4 is not prime"),
    ("field prime 1_1\n" + ONE_DIM, 1, 13, "prime must be an integer"),
    ("field prime +7\n" + ONE_DIM, 1, 13, "prime must be an integer"),
    ("field prime \u0667\n" + ONE_DIM, 1, 13, "prime must be an integer"),
    ("field function x  x\n" + ONE_DIM, 1, 19,
     "bad or repeated symbol name 'x'"),
    ("field function 1x\n" + ONE_DIM, 1, 16,
     "bad or repeated symbol name '1x'"),
    ("field rational\ndim 2\nbasis a  a\n", 3, 10,
     "bad or repeated basis name 'a'"),
    ("field rational\ndim 2\nbasis a 2b\n", 3, 9,
     "bad or repeated basis name '2b'"),
    ("field rational\ndim  1_0\n", 2, 6, "dim must be an integer"),
    ("field rational\ndim \u0661\n", 2, 5, "dim must be an integer"),
    ("field rational\n" + ONE_DIM + "axis jordan 1 e\n", 5, 13,
     "eta must avoid 0 and 1"),
    ("field prime 5\n" + ONE_DIM + "axis monster  2 2 e\n", 5, 15,
     "alpha and beta must differ"),
])
def test_bad_field_or_law_exits_2_with_position(tmp_path, capsys, text, line,
                                                column, message):
    path = tmp_path / "bad.alg"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line %d, column %d: %s" % (line, column, message))


def test_field_prime_2_pow_61_minus_1(tmp_path, capsys):
    path = tmp_path / "big.alg"
    path.write_text("field prime 2305843009213693951\ndim 1\nbasis e\n"
                    "product e e = e\naxis jordan 3 e\n")
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("axis 1: pass")


def test_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["verify", str(tmp_path / "absent.alg")]) == 2


def test_bad_usage_exits_2(capsys):
    assert cli.main(["verify"]) == 2
    capsys.readouterr()
    assert cli.main(["nosuchcommand"]) == 2
    capsys.readouterr()


def test_round_trip_is_bit_exact(tmp_path, capsys):
    path = emit(tmp_path, "Q2-skew")
    text = open(path, encoding="utf-8").read()
    doc = parse_algebra_file(text)
    from axetlab.algfile import emit_algebra_file
    assert emit_algebra_file(doc.algebra, doc.axes) == text
