"""Truncated power series: arithmetic, reciprocal, compose, exp."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly.rational import Rational
from degenpoly.poly import LAM, X, LambdaPoly, XPoly, lambda_falling
from degenpoly.series import (
    LAMBDA_RING,
    RATIONAL_RING,
    XPOLY_RING,
    NonInvertibleError,
    Series,
    diag_weight,
    first_mismatch,
)
from degenpoly.families import e_lambda_series, exp_series, geom_series

rationals = st.builds(Rational, st.integers(-9, 9), st.integers(1, 9))
unit_series = st.builds(
    lambda head, tail: Series("t", len(tail), [head] + tail, RATIONAL_RING),
    st.sampled_from([Rational(1), Rational(-1), Rational(1, 2), Rational(3)]),
    st.lists(rationals, min_size=0, max_size=6),
)


def test_padding_and_coeff_bounds():
    s = Series("t", 4, [1, 2], RATIONAL_RING)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.coeff(4) == 0
    with pytest.raises(IndexError):
        s.coeff(5)
    with pytest.raises(ValueError):
        Series("t", 1, [1, 2, 3], RATIONAL_RING)


def test_truncation_discipline():
    a = Series("t", 6, [1] * 7, RATIONAL_RING)
    b = Series("t", 3, [1] * 4, RATIONAL_RING)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert a.truncate(2).coeffs == (1, 1, 1)
    with pytest.raises(ValueError):
        b.truncate(5)


def test_mate_checks():
    t = Series("t", 3, [1], RATIONAL_RING)
    x = Series("x", 3, [1], RATIONAL_RING)
    lam = Series("t", 3, [1], LAMBDA_RING)
    with pytest.raises(ValueError):
        t + x
    with pytest.raises(ValueError):
        t * lam
    assert t.promote(LAMBDA_RING) + lam == lam.scaled(2)
    with pytest.raises(ValueError):
        lam.promote(RATIONAL_RING)


def test_scaled_refuses_a_factor_outside_the_ring():
    s = e_lambda_series(3)
    with pytest.raises(TypeError):
        s.scaled(object())
    with pytest.raises(TypeError):
        s * object()
    with pytest.raises(TypeError):
        object() * s


def test_subtraction_coerces_through_the_ring_first():
    s = Series("t", 2, [1, 2], LAMBDA_RING)
    assert (s - 2).coeffs == (LambdaPoly.const(-1), LambdaPoly.const(2), LambdaPoly())
    assert (s - LAM).coeffs == (1 - LAM, LambdaPoly.const(2), LambdaPoly())
    assert (2 - s).coeffs == (LambdaPoly.const(1), LambdaPoly.const(-2), LambdaPoly())
    assert s - s == Series("t", 2, [], LAMBDA_RING)
    with pytest.raises(TypeError, match="unsupported operand type"):
        s - object()
    # a λ-polynomial does not embed into the rational ring
    r = Series("t", 2, [1], RATIONAL_RING)
    with pytest.raises(TypeError, match="unsupported operand type"):
        r - LAM
    assert (r - Rational(1, 2)).coeffs == (Rational(1, 2), 0, 0)


def test_subtraction_is_negation_then_addition():
    s = Series("t", 2, [1, 2], LAMBDA_RING)
    with pytest.raises(TypeError, match="for -: 'object' and 'Series'"):
        object() - s
    assert (LAM - s).coeffs == (LAM - 1, LambdaPoly.const(-2), LambdaPoly())
    xs = Series("x", 2, [X, 1], XPOLY_RING)
    assert (X - xs).coeffs == (XPoly(), XPoly.const(-1), XPoly())
    a = Series("t", 6, [1] * 7, RATIONAL_RING)
    b = Series("t", 3, [0, 1, 2, 3], RATIONAL_RING)
    assert a - b == Series("t", 3, [1, 0, -1, -2], RATIONAL_RING)
    assert b - a == -(a - b)


def test_geometric_reciprocal():
    one_minus_t = Series("t", 8, [1, -1], RATIONAL_RING)
    assert one_minus_t.reciprocal().coeffs == (1,) * 9
    assert geom_series(8, "t") == one_minus_t.reciprocal()


def test_exp_reciprocal_alternates():
    e = exp_series(7)
    inv = e.reciprocal()
    for k in range(8):
        assert inv.coeff(k) == Rational((-1) ** k, math.factorial(k))
    prod = e * inv
    assert prod.coeffs == (1,) + (0,) * 7


def test_exp_of_t_plus_t_squared():
    s = Series("t", 4, [0, 1, 1], RATIONAL_RING).exp()
    assert s.coeffs == (1, 1, Rational(3, 2), Rational(7, 6), Rational(25, 24))


def test_compose_gives_bell_numbers():
    # exp(e^t - 1) enumerates set partitions
    inner = exp_series(6) - 1
    s = exp_series(6).compose(inner)
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, b in enumerate(bell):
        assert s.coeff(n) * math.factorial(n) == b


def test_compose_guards():
    outer = exp_series(4)
    with pytest.raises(ValueError):
        outer.compose(outer)  # nonzero constant term
    lam_inner = Series("t", 4, [0, LambdaPoly([0, 1])], LAMBDA_RING)
    composed = outer.compose(lam_inner)  # rational outer embeds upward
    assert composed.ring is LAMBDA_RING
    assert composed.coeff(2) == LambdaPoly([0, 0, Rational(1, 2)])
    with pytest.raises(ValueError):
        lam_inner.compose(exp_series(4) - 1)  # would demote coefficients


def test_e_lambda_derivative_identity():
    # d/dt (1+λt)^{1/λ} = (1+λt)^{1/λ - 1}; coefficient n is (1)_{n+1,λ}/n!
    d = e_lambda_series(9).derivative()
    for n in range(9):
        expected = lambda_falling(1, n + 1) / math.factorial(n)
        assert d.coeff(n) == expected


def test_derivative_and_shift():
    s = Series("t", 3, [5, 1, 2, 7], RATIONAL_RING)
    assert s.derivative().coeffs == (1, 4, 21)
    assert s.shift_up(2).coeffs == (0, 0, 5, 1, 2, 7)
    assert s.shift_up(2).order == 5
    with pytest.raises(ValueError):
        Series("t", 0, [1], RATIONAL_RING).derivative()


def test_reciprocal_needs_unit():
    with pytest.raises(NonInvertibleError):
        Series("t", 3, [0, 1], RATIONAL_RING).reciprocal()
    lam_const = Series("t", 3, [LambdaPoly([0, 1])], LAMBDA_RING)
    with pytest.raises(NonInvertibleError):
        lam_const.reciprocal()  # λ is not a unit here


@pytest.mark.parametrize(
    "ring, head",
    [
        (RATIONAL_RING, 0),
        (LAMBDA_RING, 0),
        (LAMBDA_RING, LAM),
        (XPOLY_RING, 0),
        (XPOLY_RING, LAM),
        (XPOLY_RING, X),
        (XPOLY_RING, 1 + X),
    ],
)
def test_a_unit_is_a_nonzero_lambda_free_rational(ring, head):
    with pytest.raises(NonInvertibleError):
        Series("t", 3, [head, 1], ring).reciprocal()
    unit = Series("t", 3, [Rational(-2, 3), 1], ring).reciprocal()
    assert unit.coeff(0) == Rational(-3, 2) and unit.ring is ring


def test_diag_weight_promotes():
    s = geom_series(5, "x")
    w = diag_weight(s, 2)
    assert w.ring is LAMBDA_RING
    for k in range(6):
        assert w.coeff(k) == lambda_falling(k, 2)
    assert diag_weight(s, 0).coeffs == tuple(LambdaPoly.const(1) for _ in range(6))


def test_first_mismatch():
    a = Series("t", 5, [1, 2, 3], RATIONAL_RING)
    b = Series("t", 3, [1, 2, 4], RATIONAL_RING)
    assert first_mismatch(a, b) == (2, 3, 4)
    assert first_mismatch(a, a.truncate(2)) is None
    lam = a.promote(LAMBDA_RING)
    assert first_mismatch(a, lam) is None  # cross-ring comparison by value
    with pytest.raises(ValueError):
        first_mismatch(a, Series("x", 3, [1], RATIONAL_RING))


@given(unit_series)
@settings(max_examples=40)
def test_reciprocal_round_trip(s):
    prod = s * s.reciprocal()
    assert prod.coeffs == (Rational(1),) + (Rational(0),) * s.order


@given(unit_series, unit_series)
@settings(max_examples=40)
def test_mul_commutes_and_distributes(a, b):
    assert a * b == b * a
    n = min(a.order, b.order)
    lhs = a * (a + b)
    rhs = a * a + a * b
    assert lhs.truncate(n) == rhs.truncate(n)


@given(st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=40)
def test_exp_is_homomorphic(tail):
    s = Series("t", 6, [0] + tail, RATIONAL_RING)
    two = s + s
    assert two.exp() == s.exp() * s.exp()


def _exp_by_powers(g: Series) -> Series:
    # reference definition: sum of g^k / k!, one power at a time
    n = g.order
    out = [g.ring.zero] * (n + 1)
    out[0] = g.ring.one
    term = Series.one(g.var, n, g.ring)
    for k in range(1, n + 1):
        term = (term * g).scaled(Rational(1, k))
        for idx in range(k, n + 1):
            out[idx] = out[idx] + term.coeffs[idx]
    return Series(g.var, n, out, g.ring)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12])
def test_exp_matches_power_sum_reference_in_every_ring(order):
    rat = Series("t", order, [0] + [Rational((-1) ** k * k, k + 2) for k in range(1, order + 1)],
                 RATIONAL_RING)
    lam = Series("t", order, [0] + [LambdaPoly([k, -1, Rational(1, k)]) for k in range(1, order + 1)],
                 LAMBDA_RING)
    xp = Series("t", order, [0] + [XPoly([Rational(1, k), LAM, k * LAM * LAM])
                                   for k in range(1, order + 1)], XPOLY_RING)
    for g in (rat, lam, xp):
        assert g.exp() == _exp_by_powers(g)
    # a λ-dependent series whose exponential is known: exp(λt) = sum (λt)^k / k!
    lam_t = Series("t", order, [0, LAM][: order + 1], LAMBDA_RING)
    assert lam_t.exp().coeffs == tuple(LAM**k / math.factorial(k) for k in range(order + 1))
    x_t = Series("t", order, [0, X][: order + 1], XPOLY_RING)
    assert x_t.exp().coeffs == tuple(X**k / math.factorial(k) for k in range(order + 1))


@given(st.lists(rationals, min_size=1, max_size=12))
@settings(max_examples=40)
def test_exp_matches_power_sum_reference_random(tail):
    g = Series("t", len(tail), [0] + tail, RATIONAL_RING)
    assert g.exp() == _exp_by_powers(g)
