"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test exercises one guarantee end to end, prints a single verdict
line straight to the terminal (bypassing capture), and then asserts.
All comparisons are exact; the timed tests enforce their budgets.
"""

import math
from math import comb
from time import perf_counter

import pytest

from degenpoly.cli import main as cli_main
from degenpoly.poly import LAM, LambdaPoly, XPoly
from degenpoly.rational import Rational
from degenpoly.families import (
    bell_poly,
    bell_second_deg,
    bernoulli_deg,
    bernoulli_poly,
    eulerian_poly,
    geometric,
    geometric_deg,
)
from degenpoly.ratfunc import RationalFn, substitute_mobius
from degenpoly.identities import REGISTRY, run_all, run_check

SMALL = {"n_max": 8, "m_max": 4, "k_max": 8, "d_max": 3, "r_max": 2, "order": 8}


@pytest.fixture
def report(capsys):
    def _report(num, label, ok, elapsed=None):
        mark = "PASS" if ok else "FAIL"
        timing = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
        with capsys.disabled():
            print(f"acceptance {num:02d} {label}: {mark}{timing}", flush=True)

    return _report


def test_01_basis_tables_are_inverse_pairs(report):
    t0 = perf_counter()
    v = run_check("E04")  # n_max=40, classical and deformed pairs
    dt = perf_counter() - t0
    ok = v.ok and dt < 10.0
    report(1, "inverse basis tables, n,m <= 40", ok, dt)
    assert v.ok, v.counterexample
    assert dt < 10.0, f"took {dt:.2f}s against a 10s budget"


def test_02_exponential_weight_transform(report):
    v = run_check("T1")  # n_max=16
    report(2, "factorial-weight transform, n <= 16", v.ok)
    assert v.ok, v.counterexample


def test_03_coefficient_sampling_identity(report):
    v = run_check("T4")  # monomials through degree 6, order 16
    report(3, "coefficient sampling vs Bell expansion, deg <= 6", v.ok)
    assert v.ok, v.counterexample


def test_04_mobius_pair_and_series_oracle(report):
    v = run_check("T5T6")
    ok = v.ok

    # independent expansion oracle: the second-kind Bell function is
    # num/(1+λx)^n, and (1+λx)^(-n) has the closed binomial expansion
    # sum_k C(n+k-1,k)(-λ)^k x^k, so each series coefficient is a short
    # convolution that never touches the series-division code
    order = 16
    for n in range(13):
        rf = bell_second_deg(n)
        got = rf.expand(order)
        for m in range(order + 1):
            want = LambdaPoly()
            for j in range(min(m, rf.num.degree) + 1):
                c = rf.num.coeff(j)
                if not c or (n == 0 and m != j):
                    continue
                k = m - j
                if n > 0:
                    c = c * comb(n + k - 1, k) * LambdaPoly.monomial((-1) ** k, k)
                want = want + c
            if got.coeff(m) != want:
                ok = False
                break

    # frozen hand-derived prefix for n = 2: (x + x^2)(1 - 2λx + 3λ²x² - ...)
    frozen = [
        LambdaPoly(),
        LambdaPoly([1]),
        LambdaPoly([1, -2]),
        LambdaPoly([0, -2, 3]),
        LambdaPoly([0, 0, 3, -4]),
        LambdaPoly([0, 0, 0, -4, 5]),
    ]
    two = bell_second_deg(2).expand(5)
    ok = ok and all(two.coeff(m) == frozen[m] for m in range(6))

    report(4, "substitution pair and expansion oracle, n <= 12", ok)
    assert v.ok, v.counterexample
    assert ok


def test_05_partial_sum_weights_and_power_sums(report):
    v7 = run_check("T7")  # m <= 10, k <= 16, λ symbolic
    v40 = run_check("E40")  # m <= 10, k <= 50, three routes
    ok = v7.ok and v40.ok

    # spot: 1^2 + 2^2 + 3^2 three independent ways
    direct = sum(Rational(i) ** 2 for i in range(1, 4))
    bp = bernoulli_poly(3)
    via_bernoulli = (bp.eval(4, 0) - bp.eval(0, 0)) / 3
    s = RationalFn(
        substitute_mobius(geometric(2), -1).num, (XPoly.const(1) - XPoly.monomial(1, 1)) ** 4
    ).expand(3)
    via_geometric = s.coeff(3).constant_value()
    ok = ok and direct == via_bernoulli == via_geometric == 14

    report(5, "running falling-product sums and power sums", ok)
    assert v7.ok, v7.counterexample
    assert v40.ok, v40.counterexample
    assert direct == via_bernoulli == via_geometric == 14


def test_06_half_point_evaluation(report):
    t0 = perf_counter()
    v = run_check("T8")  # n_max=30
    dt = perf_counter() - t0
    ok = v.ok and dt < 5.0

    # spot n = 1: both sides are the constant -1/2, identically in λ
    lhs = geometric_deg(1).eval_x(Rational(-1, 2))
    beta2 = bernoulli_deg(2)
    rhs = (beta2 - 4 * beta2.scale_lambda(Rational(1, 2))) * 1
    ok = ok and lhs == LambdaPoly.const(Rational(-1, 2)) == rhs

    report(6, "geometric value at -1/2 vs Bernoulli pair, n <= 30", ok, dt)
    assert v.ok, v.counterexample
    assert dt < 5.0, f"took {dt:.2f}s against a 5s budget"
    assert lhs == LambdaPoly.const(Rational(-1, 2)) == rhs


def test_07_eulerian_numerators(report):
    v = run_check("E44")  # m <= 10, k <= 20
    ok = v.ok
    for m in range(11):
        p = eulerian_poly(m)
        total = sum((p.coeff(k).constant_value() for k in range(p.degree + 1)), Rational(0))
        if p.lambda_degree != 0 or total != math.factorial(m):
            ok = False
            break
    report(7, "Eulerian numerators: λ-free, coefficients sum to m!", ok)
    assert v.ok, v.counterexample
    assert ok


def test_08_higher_order_weights(report):
    v = run_check("E50")  # m <= 8, r <= 4, coefficient index <= 16
    report(8, "higher-order geometric closed forms, m <= 8, r <= 4", v.ok)
    assert v.ok, v.counterexample


def test_09_signed_half_values(report):
    v57 = run_check("E57")
    v9 = run_check("R9")
    ok = v57.ok and v9.ok

    # spots: the n = 0 value is 1/2; at n = 1 the λ-free part is -1/4
    half = geometric_deg(0).eval_x(Rational(-1, 2)) / 2
    ok = ok and half == LambdaPoly.const(Rational(1, 2))
    at_one = geometric_deg(1).eval_x(Rational(-1, 2)) / 2
    ok = ok and at_one.eval(0) == Rational(-1, 4)
    via_euler = eulerian_poly(1).eval_x(-1).constant_value() / 4
    ok = ok and via_euler == Rational(-1, 4)

    report(9, "signed half-point series and alternating sums, n <= 16", ok)
    assert v57.ok, v57.counterexample
    assert v9.ok, v9.counterexample
    assert ok


def _set_partition_count(n: int) -> int:
    # count restricted growth strings: element i joins block b <= max+1
    def grow(i: int, blocks: int) -> int:
        if i == n:
            return 1
        return sum(grow(i + 1, max(blocks, b + 1)) for b in range(blocks + 1))

    return 1 if n == 0 else grow(1, 1)


def test_10_degeneration_and_partition_oracle(report):
    v = run_check("DEG")  # n_max=20, all families
    ok = v.ok
    oracle = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(8):
        counted = _set_partition_count(n)
        if counted != oracle[n] or bell_poly(n).eval(1, 0) != counted:
            ok = False
            break
    report(10, "λ=0 degeneration suite and set-partition counts", ok)
    assert v.ok, v.counterexample
    assert ok


def test_11_negative_controls_flip_exactly(report):
    ok = True
    detail = ""
    for check in REGISTRY:
        verdicts = run_all(overrides=SMALL, negative_control=check.id)
        failed = [v for v in verdicts if not v.ok]
        if [v.id for v in failed] != [check.id]:
            ok = False
            detail = f" (fault {check.id} flipped {[v.id for v in failed]})"
            break
        if failed[0].counterexample is None or not failed[0].counterexample["indices"]:
            ok = False
            detail = f" (fault {check.id} produced no counterexample)"
            break
    report(11, f"each injected fault flips exactly its own check{detail}", ok)
    assert ok, detail


def test_12_cli_full_verification(report, capsys):
    t0 = perf_counter()
    code = cli_main(["verify", "--all"])
    dt = perf_counter() - t0
    out = capsys.readouterr().out
    ok = code == 0 and dt < 60.0 and out.strip().splitlines()[-1] == "18 passed, 0 failed"
    report(12, "command line verify --all at default bounds", ok, dt)
    assert code == 0
    assert out.strip().splitlines()[-1] == "18 passed, 0 failed"
    assert dt < 60.0, f"took {dt:.2f}s against a 60s budget"
