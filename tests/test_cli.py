"""CLI surface: table, eval, verify, exit codes, output formats."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degenpoly
from degenpoly.cli import _build_parser, _refuse_past_the_limit, main
from degenpoly.poly import LAM, X, XP_ONE, LambdaPoly, XPoly
from degenpoly.ratfunc import PoleError, RationalFn
from degenpoly.render import value_from_json, value_to_json
from degenpoly.families import bell_deg, bell_second_deg, bernoulli_deg, stirling


def child_env():
    # a child interpreter imports this checkout's package, installed or not
    return {**os.environ, "PYTHONPATH": str(Path(degenpoly.__file__).parents[1])}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLI_RESPONSES = Path(__file__).parent / "data" / "cli_responses.json"
SEQUENCE_FAMILIES = ("bel_second", "bell", "bell_deg", "bernoulli_deg", "bernoulli_poly",
                     "eulerian", "falling", "falling_lambda", "geom_deg", "geom_r",
                     "geometric", "phi_deg")
TRIANGLE_FAMILIES = ("stirling1", "stirling1_deg", "stirling2", "stirling2_deg")


def cli_catalogue():
    """The table/eval requests whose responses tests/data/cli_responses.json pins.

    Every family at rows 0, 1, 2, 7 and 16, every λ in {sym, 0, 1/2, -1/3}
    and, for sequence families, every x in {sym, -1, 2/3, 3}, each as a
    csv, json and latex table and as an eval (column n // 2 of a
    triangle); geom_r also at --r 3.  bel_second at λ = -1/3, x = 3 is a
    pole for every n >= 1.
    """
    requests = []

    def each_command(base, k):
        for fmt in ("csv", "json", "latex"):
            requests.append(["table", *base, "--format", fmt])
        requests.append(["eval", *base] + ([] if k is None else ["--k", str(k)]))

    for family in SEQUENCE_FAMILIES + TRIANGLE_FAMILIES:
        triangle = family in TRIANGLE_FAMILIES
        for n in (0, 1, 2, 7, 16):
            for lam in ("sym", "0", "1/2", "-1/3"):
                for x in ("sym",) if triangle else ("sym", "-1", "2/3", "3"):
                    base = ["--family", family, "--n", str(n), f"--lambda={lam}"]
                    each_command(base if triangle else [*base, f"--x={x}"],
                                 n // 2 if triangle else None)
    for n in (2, 7):
        for lam in ("sym", "1/2"):
            each_command(["--family", "geom_r", "--n", str(n), f"--lambda={lam}", "--r", "3"], None)
    return requests


def replay(argv):
    """One in-process request: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "bell_deg", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,1"
    assert lines[2] == "1,x"
    assert lines[3] == "2,x + (1 - λ)x^2"
    assert len(lines) == 5


def test_table_triangle_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "stirling2_deg", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    assert lines[1:] == ["2,0,0", "2,1,1 - λ", "2,2,1"]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "bell_deg", "--n-max", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "bell_deg"
    assert payload["lambda"] == "sym" and payload["x"] == "sym"
    for row in payload["rows"]:
        assert value_from_json(row["value"]) == bell_deg(row["n"])


def test_table_json_specialised(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "bernoulli_deg", "--n-max", "3",
        "--lambda", "1/3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == "1/3"
    for row in payload["rows"]:
        assert value_from_json(row["value"]) == bernoulli_deg(row["n"]).eval("1/3")


def test_table_latex(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "bell_deg", "--n", "2", "--format", "latex"
    )
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "x + (1 - \\lambda)x^{2}" in out
    assert out.rstrip().endswith("\\end{tabular}")


def test_table_geom_r_records_order(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "geom_r", "--r", "2", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == 2
    assert value_from_json(payload["rows"][0]["value"]) == 2 * X + 6 * X * X


def test_table_rational_family_symbolic(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "bel_second", "--n", "2")
    assert code == 0
    assert "(x + x^2)" in out
    # substituting x alone leaves a ratio of λ-polynomials
    code, out, _ = run_cli(capsys, "table", "--family", "bel_second", "--n", "2", "--x", "1")
    assert code == 0
    assert "(2) / (1 + 2λ + λ^2)" in out


def test_symbolic_values_spelled_out(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "bell_deg", "--n", "2", "--lambda=sym", "--x=sym"
    )
    assert code == 0 and out.splitlines() == ["n,value", "2,x + (1 - λ)x^2"]
    code, out, _ = run_cli(
        capsys, "eval", "--family", "stirling2_deg", "--n", "3", "--k", "1", "--lambda=sym"
    )
    assert code == 0 and out == "1 - 3λ + 2λ^2\n"


def test_table_rational_family_lambda_only(capsys):
    # substituting λ alone leaves a rational function of x
    argv = ("table", "--family", "bel_second", "--n", "2", "--lambda", "1/2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines() == ["n,value", "2,(x + x^2) / (1 + x + 1/4x^2)"]
    code, out, _ = run_cli(capsys, *argv, "--format", "latex")
    assert code == 0
    assert "2 & \\frac{x + x^{2}}{1 + x + \\frac{1}{4}x^{2}} \\\\\n" in out
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    value = json.loads(out)["rows"][0]["value"]
    assert value == {"num": [[], ["1"], ["1"]], "den": [["1"], ["1"], ["1/4"]]}
    assert value_from_json(value) == RationalFn(X + X * X, (1 + X / 2) ** 2)


def test_table_rational_family_x_only_in_every_format(capsys):
    argv = ("table", "--family", "bel_second", "--n", "2", "--x", "1")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and out.splitlines() == ["n,value", "2,(2) / (1 + 2λ + λ^2)"]
    code, out, _ = run_cli(capsys, *argv, "--format", "latex")
    assert code == 0
    assert "2 & \\frac{2}{1 + 2\\lambda + \\lambda^{2}} \\\\\n" in out
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == "1" and payload["lambda"] == "sym"
    assert payload["rows"] == [{"n": 2, "value": {"num": ["2"], "den": ["1", "2", "1"]}}]


def test_x_only_csv_row_over_one_prints_its_numerator(capsys):
    # bel_second row 0 is 1/1; plain text drops a denominator of 1, as the
    # symbolic row does
    code, out, _ = run_cli(capsys, "table", "--family", "bel_second", "--n", "0", "--x", "1")
    assert code == 0 and out.splitlines() == ["n,value", "0,1"]
    code, out, _ = run_cli(capsys, "table", "--family", "bel_second", "--n", "0")
    assert code == 0 and out.splitlines() == ["n,value", "0,1"]


def test_x_only_eval_over_one_prints_its_numerator(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "bel_second", "--n", "0", "--x", "2")
    assert code == 0 and out == "1\n"


def test_x_only_value_over_one_drops_the_unit_in_latex_and_keeps_it_in_json(capsys):
    argv = ("table", "--family", "bel_second", "--n", "0", "--x", "1")
    code, out, _ = run_cli(capsys, *argv, "--format", "latex")
    assert code == 0 and "0 & 1 \\\\\n" in out
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": 0, "value": {"num": ["1"], "den": ["1"]}}]


def test_table_and_eval_responses_match_the_golden_catalogue():
    golden = json.loads(CLI_RESPONSES.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == cli_catalogue()
    assert any(g["code"] == 2 and g["stderr"].startswith("error: pole: ") for g in golden)
    differ = [g["argv"] for g in golden if replay(g["argv"]) != g]
    assert not differ, f"{len(differ)} responses differ, first {differ[:3]}"


def test_table_unknown_family(capsys):
    code, out, err = run_cli(capsys, "table", "--family", "nope", "--n", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown family 'nope'; known: bel_second, bell,")


def test_json_shapes_of_a_rational_function():
    r = bell_second_deg(2)
    j = value_to_json(r)
    assert j == {"num": [[], ["1"], ["1"]], "den": [["1"], ["0", "2"], ["0", "0", "1"]]}
    back = value_from_json(j)
    assert isinstance(back, RationalFn) and back == r
    # zero has one shape for both polynomial types; it parses back as a λ-polynomial
    assert value_to_json(XPoly()) == value_to_json(LambdaPoly()) == []
    assert type(value_from_json([])) is LambdaPoly and value_from_json([]) == XPoly()


def test_json_shapes_refuse_a_float():
    # a float is no exact value in either direction
    with pytest.raises(TypeError, match="cannot serialise 1.5"):
        value_to_json(1.5)
    with pytest.raises(TypeError, match="cannot parse 1.5"):
        value_from_json(1.5)


def test_eval_spots(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "bell_deg", "--n", "3", "--lambda", "1/2", "--x", "2"
    )
    assert code == 0 and out.strip() == "8"
    code, out, _ = run_cli(capsys, "eval", "--family", "stirling2", "--n", "4", "--k", "2")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run_cli(
        capsys, "eval", "--family", "stirling1_deg", "--n", "2", "--k", "1", "--lambda", "1/4"
    )
    assert code == 0 and out.strip() == "-3/4"
    code, out, _ = run_cli(
        capsys, "eval", "--family", "bel_second", "--n", "2", "--lambda", "1/2", "--x", "2"
    )
    assert code == 0 and out.strip() == str(bell_deg(2).eval(1, "1/2"))


def test_eval_errors(capsys):
    code, _, err = run_cli(capsys, "eval", "--family", "stirling2", "--n", "4")
    assert code == 2 and "--k" in err
    code, _, err = run_cli(capsys, "eval", "--family", "nope", "--n", "1")
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, "eval", "--family", "bell", "--n", "-2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "eval", "--family", "bel_second", "--n", "2", "--lambda", "2", "--x=-1/2"
    )
    assert code == 2 and "pole" in err


@pytest.mark.parametrize("argv, option", [
    (("table", "--family", "stirling2", "--n", "1", "--x", "1", "--format", "json"), "--x"),
    (("table", "--family", "stirling1_deg", "--n-max", "3", "--x=-1/2"), "--x"),
    (("eval", "--family", "stirling2", "--n", "4", "--k", "2", "--x", "0"), "--x"),
    (("eval", "--family", "bell", "--n", "3", "--k", "2"), "--k"),
    (("eval", "--family", "geom_r", "--n", "3", "--r", "2", "--k", "0"), "--k"),
    (("table", "--family", "bell", "--n", "2", "--r", "3"), "--r"),
    (("table", "--family", "bel_second", "--n", "2", "--r", "1", "--format", "json"), "--r"),
    (("eval", "--family", "stirling2", "--n", "4", "--k", "2", "--r", "2"), "--r"),
    (("table", "--family", "bell", "--n", "2", "--n-max", "5"), "--n-max"),
    (("verify", "T8", "--all"), "--all"),
    (("verify", "T8", "--m-max", "3"), "m_max"),
    (("verify", "GF-b", "--n-max", "3"), "n_max"),
])
def test_options_that_cannot_apply_are_refused(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} does not apply to ")


def test_geom_r_order_defaults_to_one(capsys):
    argv = ("table", "--family", "geom_r", "--n", "3", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["r"] == 1
    assert run_cli(capsys, *argv, "--r", "1") == (code, out, "")


def test_unknown_family_is_named_before_a_refused_r(capsys):
    code, out, err = run_cli(capsys, "eval", "--family", "nope", "--n", "1", "--r", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown family 'nope'")


def test_symbolic_x_still_applies_to_a_triangle(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "stirling2", "--n", "4", "--k", "2", "--x=sym")
    assert code == 0 and out.strip() == "7"


def test_bad_rational_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "bell", "--n", "1", "--x", "zzz"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected a rational" in err


@pytest.mark.parametrize("value", [
    "1e5000", "-3e4400", "1.5e-4400", "1e10000000",
    pytest.param("0." + "0" * 4299 + "1", id="0.<4300 digits>"),
])
@pytest.mark.parametrize("option", ["--x", "--lambda"])
def test_decimal_numerals_past_the_digit_limit_are_refused(capsys, option, value):
    # each spells a numerator or denominator longer than Python's
    # int-string limit (4300 digits by default), which a plain numeral hits;
    # the last one spells the denominator 10^4300 with its fraction digits
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "bell", "--n", "2", f"{option}={value}"])
    assert time.perf_counter() - t0 < 5
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a rational p/q or 'sym'" in captured.err


def test_decimal_numerals_within_the_digit_limit_are_accepted(capsys):
    # 10^4299 has 4300 digits, as does the denominator of 1e-4299; a
    # result at the limit still prints
    for family, value, want in (("falling", "1e4299", 10**4299),
                                ("falling", "1e-4299", Fraction(1, 10**4299)),
                                ("bell", "1e4299", 10**4299)):
        code, out, _ = run_cli(capsys, "eval", "--family", family, "--n", "1", f"--x={value}")
        assert code == 0 and Fraction(out.strip()) == want


@pytest.mark.parametrize("argv, cell", [
    (("--n", "0"), "0 & 1"),
    (("--n", "2", "--lambda=0"), "2 & x + x^{2}"),
])
def test_latex_drops_a_unit_denominator_as_csv_does(capsys, argv, cell):
    code, out, _ = run_cli(capsys, "table", "--family", "bel_second", *argv, "--format", "latex")
    assert code == 0 and f"\n{cell} \\\\\n" in out and "frac" not in out


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "bell", "--n", "2", "--x", "1e4299"),
    ("table", "--family", "bell", "--n", "2", "--x", "1e4299", "--format", "json"),
    ("table", "--family", "bell", "--n", "2", "--x", "1e4299", "--format", "csv"),
    ("table", "--family", "bell", "--n", "2", "--x", "1e4299", "--format", "latex"),
    ("eval", "--family", "bell_deg", "--n", "3", "--lambda", "1e4299"),
])
def test_a_result_past_the_digit_limit_names_the_limit_and_the_options(capsys, argv):
    # each input is within the int-string limit, but the result has a
    # number of about twice as many digits
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == (f"error: a number in the result exceeds {limit} digits, the int-string "
                   "limit (sys.get_int_max_str_digits()); --x or --lambda is too large\n")


DIGIT_LIMIT_ERROR = ("error: a number in the result exceeds {} digits, the int-string limit "
                     "(sys.get_int_max_str_digits()); --x or --lambda is too large\n")


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "bell_deg", "--n", "80", "--lambda", "1e4299"),
    ("eval", "--family", "bell_deg", "--n", "40", "--x", "1e4299"),
    ("eval", "--family", "bel_second", "--n", "40", "--lambda=-1e4299"),
    ("eval", "--family", "bel_second", "--n", "40", "--x", f"{10**4299}/7"),
    ("eval", "--family", "stirling2_deg", "--n", "40", "--k", "1", "--lambda", "1e4299"),
    ("table", "--family", "bell_deg", "--n", "80", "--lambda", "1e4299", "--format", "json"),
])
def test_a_result_provably_past_the_digit_limit_is_refused_before_it_is_computed(
        capsys, monkeypatch, argv):
    def evaluated(*_):
        raise AssertionError("evaluated before the digit limit was checked")

    for cls, name in ((LambdaPoly, "eval"), (XPoly, "eval_x"), (XPoly, "eval_lambda")):
        monkeypatch.setattr(cls, name, evaluated)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == DIGIT_LIMIT_ERROR.format(sys.get_int_max_str_digits())


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "bell", "--n", "2", "--x", "1e-4299"),
    ("eval", "--family", "bell", "--n", "2", "--x", "1e4299", "--lambda", "1"),
])
def test_a_result_past_the_digit_limit_without_a_bound_is_refused_when_rendered(capsys, argv):
    # the early bound covers one substituted value of absolute value at least 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == DIGIT_LIMIT_ERROR.format(sys.get_int_max_str_digits())


# ±(10^k + j): magnitudes from one digit to past the 640-digit limit below
powers_of_ten = st.builds(lambda k, j, neg: (-1) ** neg * (10**k + j),
                          st.integers(0, 700), st.integers(0, 10**6), st.booleans())


@given(st.lists(st.one_of(st.just(Fraction(0)), st.builds(Fraction, powers_of_ten, powers_of_ten.map(abs))),
                min_size=2, max_size=7),
       powers_of_ten, st.integers(1, 10**6), st.booleans())
@example([0, Fraction(1, 10**700)], 10**1000, 1, False)  # p(v) = 10^300: the denominator counts
@settings(max_examples=200, deadline=None)
def test_the_early_digit_bound_never_refuses_a_printable_result(coeffs, top, q, root):
    # whenever the bound refuses, the numerator of p(v) really is too long;
    # a factor (λ - v) makes p(v) = 0 however large v and the degree are
    v = Fraction(top, q)
    p = LambdaPoly(coeffs) * (LambdaPoly([-v, 1]) if root else 1)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        try:
            _refuse_past_the_limit(p, v, None)
        except ValueError:
            with pytest.raises(ValueError):
                str(p.eval(v))
    finally:
        sys.set_int_max_str_digits(old)


def test_calls_share_one_parser(capsys):
    _build_parser.cache_clear()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "eval", "--family", "stirling2", "--n", "4", "--k", "2")
        assert code == 0 and out.strip() == "7"
    info = _build_parser.cache_info()
    assert info.misses == 1 and info.hits == 1


def _parse_args_main(argv=None) -> int:
    # the reference: every argv through the top-level parser's parse_args,
    # which hands the rest to the command's parser a second time
    args = _build_parser()[0].parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {'pole: ' if isinstance(exc, PoleError) else ''}{exc}", file=sys.stderr)
        return 2


def _outcome(capsys, run, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["table", "--family", "bell", "--n", "2", "--bogus"],
    ["eval", "--family", "bell", "--n", "2", "--bogus", "extra"],
    ["verify", "T8", "--n-max", "3", "--family", "bell"],
    ["table", "--n", "2"],
    ["eval", "--family", "bell", "--n", "two"],
    ["table", "--family", "bell", "--n", "2", "--x", "one"],
    ["table", "-h"],
    ["eval", "--family", "bell", "--help"],
    ["verify", "-h"],
    [],
    None,
    ["frob"],
    ["frob", "--family", "bell"],
    ["Table", "--family", "bell", "--n", "2"],
    ["--family", "bell", "table", "--n", "2"],
    ["-h", "table"],
    ["-h"],
    ["eval", "--family", "bell_deg", "--n", "2", "--lambda", "-1/3"],
    ["eval", "--family", "bell_deg", "--n", "2", "--lambda=-1/3"],
    ["eval", "--family", "bel_second", "--n", "1", "--lambda=-1/3", "--x", "3"],
    ["verify", "T8"],
    ["verify", "T8", "T9"],
    ["verify", "--", "T8"],
    ["table", "--family", "bell", "--n", "2", "--", "x"],
    ["eval", "--fam", "bell", "--n", "2"],
], ids=repr)
def test_one_parse_answers_as_parse_args_does(capsys, monkeypatch, argv):
    # exit code (or SystemExit code), stdout and stderr, byte for byte; argv
    # None reads sys.argv, here the program name alone
    monkeypatch.setattr(sys, "argv", ["degenpoly"])
    want = _outcome(capsys, _parse_args_main, argv)
    assert _outcome(capsys, main, argv) == want


def test_a_trailing_unknown_option_is_refused_with_the_top_level_usage(capsys):
    code, out, err = _outcome(capsys, main, ["table", "--family", "bell", "--n", "2", "--bogus"])
    assert code == ("exit", 2) and out == ""
    assert err.startswith("usage: degenpoly [-h] {table,eval,verify} ...\n")
    assert err.endswith("degenpoly: error: unrecognized arguments: --bogus\n")


def test_no_state_leaks_between_calls(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "bell_deg", "--n", "2", "--lambda=1/2", "--x=2")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, "eval", "--family", "bell_deg", "--n", "2")
    assert code == 0 and out.strip() == "x + (1 - λ)x^2"


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "bell", "--n", "one"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "eval", "--family", "bell", "--n", "3")
    assert code == 0 and out.strip() == "x + 3x^2 + x^3"


def test_verify_prefix(capsys):
    code, out, _ = run_cli(capsys, "verify", "T8", "--n-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS T8")
    assert lines[-1] == "1 passed, 0 failed"


def test_verify_all_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--n-max", "6", "--m-max", "3", "--order", "8", "--r-max", "2"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "18 passed, 0 failed"


def test_verify_negative_control_targeted(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--negative-control", "E57",
        "--n-max", "6", "--m-max", "3", "--order", "8", "--r-max", "2",
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert sum(1 for ln in lines if ln.startswith("FAIL")) == 1
    assert any(ln.startswith("FAIL E57") for ln in lines)
    assert lines[-1] == "17 passed, 1 failed"


def test_verify_names_every_selected_check_a_bound_does_not_apply_to(capsys):
    # neither GF-bell nor GF-bern takes an n_max; the whole suite has
    # checks that take m_max, and the others ignore it
    assert run_cli(capsys, "verify", "GF-b", "--n-max", "3") == (
        2, "", "error: n_max does not apply to GF-bell, GF-bern\n")
    code, out, _ = run_cli(capsys, "verify", "--all", "--m-max", "3")
    assert code == 0 and out.endswith("18 passed, 0 failed\n")


def test_verify_negative_control_outside_the_selection(capsys):
    code, out, err = run_cli(capsys, "verify", "T8", "--negative-control=E04")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'E04'" in err


def test_verify_json_stdout_keeps_human_lines_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "T1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["id"] == "T1" and payload[0]["status"] == "pass"
    assert "PASS T1" in err


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "verdicts.json"
    code, out, _ = run_cli(capsys, "verify", "GF", "--output", str(target))
    assert code == 0
    assert "4 passed, 0 failed" in out
    payload = json.loads(target.read_text())
    assert [v["id"] for v in payload] == ["GF-bell", "GF-bern", "GF-geom", "GF-phi"]


def test_table_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "table", "--family", "eulerian", "--n-max", "4", "--output", str(target)
    )
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[-1].startswith("4,")
    assert "11x^2" in lines[-1]


def test_verify_unknown_prefix(capsys):
    code, _, err = run_cli(capsys, "verify", "QQQ")
    assert code == 2
    assert "no check id starts with" in err


@pytest.mark.parametrize("argv", [("T8", "--n-max", "-3"), ("E50", "--r-max", "-1")])
def test_verify_rejects_negative_bounds(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert "must be an int >= 0" in err
    assert "PASS" not in out



@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "T8", "--n-max", "100000"),
        ("verify", "--all", "--order", "101"),
        ("verify", "--all", "--n-max", "100", "--order", "101"),
        ("table", "--family", "stirling2_deg", "--n", "100000"),
        ("table", "--family", "stirling2_deg", "--n-max", "100000"),
        ("eval", "--family", "geom_deg", "--n", "100000"),
        ("table", "--family", "bell", "--n-max", "-1"),
    ],
)
def test_out_of_range_bounds_fail_fast(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_a_huge_geom_r_order_is_refused_before_it_is_computed(capsys):
    # with x symbolic the x^n coefficient r(r+1)...(r+n-1) is printed in full
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--family", "geom_r", "--n", "100",
                             "--r", "1" + "0" * 4000)
    assert time.perf_counter() - t0 < 2
    assert code == 2 and out == ""
    assert "--r is too large" in err and "--x" not in err
    # a 40-digit order at n = 100 has fewer digits than the limit: it prints
    r = 10**39 + 7
    code, out, _ = run_cli(capsys, "eval", "--family", "geom_r", "--n", "100", "--r", str(r))
    assert code == 0
    assert out.rstrip("\n").endswith(f" + {math.prod(range(r, r + 100))}x^100")


@pytest.mark.parametrize("x, code, out", [("0", 0, "0\n"), ("1", 2, "")])
def test_a_huge_geom_r_order_at_a_given_x_is_fast(capsys, x, code, out):
    # the weights are one running product; a result past the digit limit
    # is refused naming --r as well as --x and --lambda
    t0 = time.perf_counter()
    got = run_cli(capsys, "eval", "--family", "geom_r", "--n", "100", "--r", "1" + "0" * 4000, "--x", x)
    assert time.perf_counter() - t0 < 3
    assert got[:2] == (code, out)
    if code:
        assert "--r, --x or --lambda is too large" in got[2]


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "degenpoly.cli", "eval", "--family", "geometric", "--n", "3", "--x", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "13"


def test_fraction_scalars_subprocess():
    # a fresh interpreter sees exactly one scalar type, with no switch to set
    code = (
        "import fractions\n"
        "import degenpoly.rational\n"
        "from degenpoly.families import bernoulli_deg\n"
        "assert degenpoly.rational.Rational is fractions.Fraction\n"
        "assert str(bernoulli_deg(2)) == '1/6 - 1/6λ^2'\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
