"""Polynomial families, change-of-basis tables, generating series."""

import math
import random
import threading

import pytest

from degenpoly.rational import Rational
from degenpoly.poly import (
    LAM,
    LP_ONE,
    LP_ZERO,
    X,
    XP_ONE,
    LambdaPoly,
    XPoly,
    lambda_falling,
)
from degenpoly.ratfunc import RationalFn
from degenpoly import families
from degenpoly.families import (
    STIRLING_KINDS,
    bell_deg,
    bell_deg_gf,
    bell_partial_deg,
    bell_partial_deg_gf,
    bell_poly,
    bell_second_deg,
    bernoulli_deg,
    bernoulli_deg_gf,
    bernoulli_number,
    bernoulli_poly,
    binom_series,
    e_lambda_series,
    eulerian_poly,
    exp_series,
    falling_factorial,
    falling_factorial_lambda,
    geom_series,
    geometric,
    geometric_deg,
    geometric_deg_gf,
    geometric_r,
    stirling,
    triangular_table,
)


def lp(*coeffs):
    return LambdaPoly(coeffs)


# ---------------------------------------------------------------------------
# change-of-basis tables


def test_classical_rows_frozen():
    assert [stirling("S1", 4, k) for k in range(5)] == [0, -6, 11, -6, 1]
    assert [stirling("S2", 4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert stirling("S1", 0, 0) == 1
    assert stirling("S2", 7, 7) == 1
    assert stirling("S2", 3, 9) == LP_ZERO


def test_deformed_entries_frozen():
    assert stirling("S2deg", 2, 1) == lp(1, -1)
    assert stirling("S1deg", 2, 1) == lp(-1, 1)
    assert [stirling("S2deg", 3, k) for k in range(4)] == [
        LP_ZERO,
        lp(1, -3, 2),
        lp(3, -3),
        lp(1),
    ]
    assert [stirling("S1deg", 3, k) for k in range(4)] == [
        LP_ZERO,
        lp(2, -3, 1),
        lp(-3, 3),
        lp(1),
    ]


def test_deformed_second_kind_recurrence():
    # adding one factor to the deformed falling product gives
    # entry(n+1,k) = entry(n,k-1) + (k - nλ) entry(n,k)
    for n in range(10):
        for k in range(n + 2):
            lhs = stirling("S2deg", n + 1, k)
            rhs = stirling("S2deg", n, k - 1) if k else LP_ZERO
            rhs = rhs + (LambdaPoly.const(k) - n * LAM) * stirling("S2deg", n, k)
            assert lhs == rhs, (n, k)


def test_deformed_first_kind_recurrence():
    # entry(n+1,k) = entry(n,k-1) + (kλ - n) entry(n,k)
    for n in range(10):
        for k in range(n + 2):
            lhs = stirling("S1deg", n + 1, k)
            rhs = stirling("S1deg", n, k - 1) if k else LP_ZERO
            rhs = rhs + (k * LAM - LambdaPoly.const(n)) * stirling("S1deg", n, k)
            assert lhs == rhs, (n, k)


def test_orthogonality_small():
    for n in range(8):
        for m in range(8):
            want = LambdaPoly.const(1 if n == m else 0)
            classical = sum(
                (stirling("S2", n, k) * stirling("S1", k, m) for k in range(n + 1)),
                LP_ZERO,
            )
            deformed = sum(
                (stirling("S2deg", n, k) * stirling("S1deg", k, m) for k in range(n + 1)),
                LP_ZERO,
            )
            assert classical == want
            assert deformed == want


def test_deformed_tables_at_special_lambda():
    # at λ=0 the deformed tables collapse to the classical ones
    for n in range(7):
        for k in range(n + 1):
            assert stirling("S2deg", n, k).eval(0) == stirling("S2", n, k).constant_value()
            assert stirling("S1deg", n, k).eval(0) == stirling("S1", n, k).constant_value()
    # at λ=1 both bases coincide, so the table is the identity
    for n in range(7):
        for k in range(n + 1):
            assert stirling("S2deg", n, k).eval(1) == (1 if n == k else 0)


def test_stirling_argument_guards():
    with pytest.raises(ValueError):
        stirling("bogus", 1, 1)
    for bad in (-1, True, False):
        with pytest.raises(ValueError):
            stirling("S1", bad, 0)
        with pytest.raises(ValueError):
            stirling("S2", 3, bad)


@pytest.mark.parametrize(
    "family",
    [
        bell_deg,
        bell_poly,
        bell_partial_deg,
        bell_second_deg,
        geometric_deg,
        geometric,
        pytest.param(lambda n: geometric_r(n, 2), id="geometric_r"),
        bernoulli_deg,
        bernoulli_number,
        bernoulli_poly,
        eulerian_poly,
        falling_factorial,
        falling_factorial_lambda,
        pytest.param(lambda n: stirling("S2", n, 0), id="stirling"),
        pytest.param(lambda n: triangular_table("S2", n), id="triangular_table"),
    ],
)
def test_every_family_refuses_a_negative_index(family):
    # a bool is an int to Python but not an index here
    for bad in (-1, True, False):
        with pytest.raises(ValueError):
            family(bad)


def test_triangular_table():
    t = triangular_table("S2", 5)
    assert len(t) == 6
    assert t[4][2] == 7
    assert set(STIRLING_KINDS) == {"S1", "S2", "S1deg", "S2deg"}


@pytest.mark.parametrize("kind", STIRLING_KINDS)
def test_triangular_table_rows_are_the_table_entries(kind):
    for n in range(13):
        rows = triangular_table(kind, n)
        assert len(rows) == n + 1
        for k in range(n + 1):
            assert rows[n][k] == stirling(kind, n, k)


def _build_row_by_lambda_polys(kind, n, rows):
    # the LambdaPoly recurrence the table rows were built with before they
    # were built on integer numerator lists, kept as the reference the rows
    # must reproduce
    if n == 0:
        return (LP_ONE,)
    prev = rows[n - 1] + (LP_ZERO,)
    an, ak, bn, bk = families._STEP[kind]
    return tuple(
        (prev[k - 1] if k else LP_ZERO)
        + LambdaPoly((an * (n - 1) + ak * k, bn * (n - 1) + bk * k)) * prev[k]
        for k in range(n + 1)
    )


@pytest.mark.parametrize("kind", STIRLING_KINDS)
def test_rows_match_the_lambda_poly_recurrence(kind):
    want = []
    for n in range(41):
        want.append(_build_row_by_lambda_polys(kind, n, want))
    got = triangular_table(kind, 40)
    for n, (row, ref) in enumerate(zip(got, want)):
        assert [(e.num, e.den) for e in row] == [(e.num, e.den) for e in ref], n


def test_table_cache_is_thread_safe():
    results = []
    sequences = (
        falling_factorial_lambda,
        families._unit_falling,
        bernoulli_deg,
        bernoulli_number,
        eulerian_poly,
    )

    def work(seed):
        # every thread pulls every sequence at its own shuffled indices
        order = list(range(26))
        random.Random(seed).shuffle(order)
        got = [{n: f(n) for n in order} for f in sequences]
        results.append((triangular_table("S1deg", 25), got))

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(results) == 8
    assert all(r == results[0] for r in results)


# ---------------------------------------------------------------------------
# falling factorials and small helpers


def test_falling_factorials():
    assert falling_factorial(0) == XP_ONE
    assert falling_factorial(3) == X * (X - 1) * (X - 2)
    assert falling_factorial_lambda(3) == X * (X - LAM) * (X - 2 * LAM)
    # at λ=1 the deformed product is the classical one
    for n in range(6):
        assert falling_factorial_lambda(n).eval_lambda(1) == falling_factorial(n)
    with pytest.raises(ValueError):
        falling_factorial(-1)
    with pytest.raises(ValueError):
        falling_factorial_lambda(-2)


def test_unit_falling_sequence_matches_the_product():
    # the memoised (1)_{k,λ} against the product definition, term by term
    for k in range(61):
        assert families._unit_falling(k) == lambda_falling(1, k)
    for bad in (-1, True):
        with pytest.raises(ValueError):
            families._unit_falling(bad)


def test_bernoulli_deg_matches_the_pairwise_sum():
    # the reciprocal step as a sum() over pairwise products, before it
    # became one λ-dot, kept as the reference the dot must reproduce
    s = [LP_ONE]
    for n in range(1, 41):
        q = families._e_lambda_quotient
        s.append(-sum(q(k) * s[n - k] for k in range(1, n + 1) if s[n - k]))
    for n, want in enumerate(s):
        got = families._bernoulli_deg(n)
        assert (got.num, got.den) == (want.num, want.den), n


def test_geometric_r_weights_are_the_rising_products():
    # geometric_r builds its weights as one running product
    for r in (1, 2, 5, 10**30 + 7):
        for n in range(9):
            want = XPoly(stirling("S2", n, k) * math.prod(range(r, r + k)) for k in range(n + 1))
            assert geometric_r(n, r) == want, (r, n)


# ---------------------------------------------------------------------------
# named families, frozen small cases


def test_bell_families():
    assert bell_deg(0) == XP_ONE
    assert bell_deg(2) == X + (1 - LAM) * X * X
    assert bell_deg(3) == X + 3 * (1 - LAM) * X * X + lp(1, -3, 2) * X * X * X
    assert bell_poly(3) == X + 3 * X * X + X * X * X
    assert bell_partial_deg(2) == (1 - LAM) * X + X * X
    base = XP_ONE + LAM * X
    assert bell_second_deg(2) == RationalFn(X + X * X, base * base)


def test_bell_numbers_from_polynomials():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n, b in enumerate(bell):
        assert bell_poly(n).eval(1, 0) == b


def test_bell_deg_collapses_at_lambda_one():
    # every falling product (1)_{k,1} with k >= 2 contains the factor 0
    for n in range(1, 6):
        assert bell_deg(n).eval_lambda(1) == X
    assert bell_deg(0).eval_lambda(1) == XP_ONE


def test_geometric_families():
    assert geometric(3) == X + 6 * X * X + 6 * X * X * X
    assert geometric_deg(2) == (1 - LAM) * X + 2 * X * X
    assert geometric_r(2, 2) == 2 * X + 6 * X * X
    for n in range(7):
        assert geometric_r(n, 1) == geometric(n)
    for bad in (0, "2", True, False):
        with pytest.raises(ValueError):
            geometric_r(2, bad)


def test_bernoulli_numbers_frozen():
    want = [
        Rational(1),
        Rational(-1, 2),
        Rational(1, 6),
        Rational(0),
        Rational(-1, 30),
        Rational(0),
        Rational(1, 42),
        Rational(0),
        Rational(-1, 30),
    ]
    assert [bernoulli_number(n) for n in range(9)] == want
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_bernoulli_defining_recurrence():
    # sum_{j<=n} C(n+1,j) B_j = 0 for n >= 1
    for n in range(1, 13):
        total = sum(math.comb(n + 1, j) * bernoulli_number(j) for j in range(n + 1))
        assert total == 0, n


def test_deformed_bernoulli_frozen():
    assert bernoulli_deg(0) == lp(1)
    assert bernoulli_deg(1) == lp(Rational(-1, 2), Rational(1, 2))
    assert bernoulli_deg(2) == lp(Rational(1, 6), 0, Rational(-1, 6))
    assert bernoulli_deg(3) == lp(0, Rational(-1, 4), 0, Rational(1, 4))
    for n in range(10):
        assert bernoulli_deg(n).eval(0) == bernoulli_number(n)
    with pytest.raises(ValueError):
        bernoulli_deg(-3)


def test_bernoulli_polynomials():
    assert bernoulli_poly(2) == X * X - X + Rational(1, 6)
    assert bernoulli_poly(3) == X**3 - Rational(3, 2) * X * X + Rational(1, 2) * X
    for n in range(10):
        assert bernoulli_poly(n).eval(0, 0) == bernoulli_number(n)
    # the telescoping property behind power sums
    for n in range(2, 10):
        assert bernoulli_poly(n).eval(1, 0) == bernoulli_poly(n).eval(0, 0)


def test_eulerian_polynomials_frozen():
    assert eulerian_poly(0) == XP_ONE
    assert eulerian_poly(1) == X
    assert eulerian_poly(2) == X + X * X
    assert eulerian_poly(3) == X + 4 * X * X + X**3
    assert eulerian_poly(4) == X + 11 * X * X + 11 * X**3 + X**4
    for m in range(8):
        p = eulerian_poly(m)
        assert p.lambda_degree == 0
        assert p.eval(1, 0) == math.factorial(m)
        # descent counts are symmetric: coefficient k matches m+1-k
        for k in range(1, m + 1):
            assert p.coeff(k) == p.coeff(m + 1 - k)


def test_degeneration_to_classical():
    for n in range(8):
        assert bell_deg(n).eval_lambda(0) == bell_poly(n)
        assert geometric_deg(n).eval_lambda(0) == geometric(n)
        assert falling_factorial_lambda(n).eval_lambda(0) == XPoly.monomial(1, n)


# ---------------------------------------------------------------------------
# generating series


def test_series_builders():
    assert exp_series(4).coeffs == (1, 1, Rational(1, 2), Rational(1, 6), Rational(1, 24))
    e = e_lambda_series(4)
    assert e.coeff(2) == lp(Rational(1, 2), Rational(-1, 2))
    assert e.coeff(3) == lp(1, -3, 2) / 6
    assert geom_series(5).coeffs == (1,) * 6
    assert binom_series(2, 4).coeffs == (1, 2, 3, 4, 5)
    assert binom_series(1, 6) == geom_series(6)
    for bad in (0, True, False):
        with pytest.raises(ValueError):
            binom_series(bad, 4)


def test_generating_series_match_families():
    for n in range(7):
        f = math.factorial(n)
        assert f * bell_deg_gf(7).coeff(n) == bell_deg(n)
        assert f * bell_partial_deg_gf(7).coeff(n) == bell_partial_deg(n)
        assert f * geometric_deg_gf(7).coeff(n) == geometric_deg(n)
        assert f * bernoulli_deg_gf(7).coeff(n) == bernoulli_deg(n)


@pytest.mark.parametrize("order", [2.0, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("build", [
    exp_series,
    e_lambda_series,
    geom_series,
    lambda order: binom_series(2, order),
    bell_deg_gf,
    bell_partial_deg_gf,
    geometric_deg_gf,
    bernoulli_deg_gf,
], ids=["exp_series", "e_lambda_series", "geom_series", "binom_series", "bell_deg_gf",
        "bell_partial_deg_gf", "geometric_deg_gf", "bernoulli_deg_gf"])
def test_every_series_builder_refuses_an_order_that_is_not_a_nonnegative_int(build, order):
    # a float order once reached range() or a list repeat first and raised
    # Python's own TypeError
    with pytest.raises(ValueError, match="series order"):
        build(order)
