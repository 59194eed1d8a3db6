"""Rational functions of x and the two substitution rules."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly.rational import Rational
from degenpoly.poly import LAM, LP_ZERO, X, XP_ONE, XP_ZERO, LambdaPoly, XPoly
from degenpoly.ratfunc import PoleError, RationalFn, gamma_moment, substitute_mobius
from degenpoly.series import NonInvertibleError, Series
from degenpoly.families import (
    bell_deg,
    bell_partial_deg,
    bell_second_deg,
    geometric,
    geometric_deg,
)

rationals = st.builds(Rational, st.integers(-6, 6), st.integers(1, 6))
xpolys = st.builds(XPoly, st.lists(rationals, max_size=4))
lambdapolys = st.builds(LambdaPoly, st.lists(rationals, max_size=3))
# up to degree 12 in x, with coefficients up to degree 2 in λ
bivariate = st.builds(XPoly, st.lists(lambdapolys, max_size=13))
# every kind of shift: λ-free or not, integer or over a denominator, with
# leading coefficient 1 or not
SHIFTS = [LAM, -LAM, -1, 0, Rational(1, 2), 2 - 3 * LAM, Rational(2, 3) - LAM / 5]


def mobius_by_loop(p, shift):
    # reference: sum of c_k x^k (1 + shift*x)^(d-k), with the powers of
    # 1 + shift*x built by repeated multiplication, over (1 + shift*x)^d
    base = XP_ONE + XPoly.monomial(shift, 1)
    d = p.degree
    if d < 0:
        return RationalFn(XPoly(), XP_ONE)
    num = XPoly()
    pw = XP_ONE
    for k in range(d, -1, -1):
        c = p.coeff(k)
        if c:
            num = num + XPoly.monomial(c, k) * pw
        if k:
            pw = pw * base
    return RationalFn(num, base**d)


def mobius_by_taylor_shift(p, shift):
    # the LambdaPoly Taylor shift substitute_mobius ran before its integer
    # kernel, kept as the reference the kernel must reproduce
    s = LambdaPoly.coerce(shift)
    d = p.degree
    if d < 0:
        return RationalFn(XPoly(), XP_ONE)
    r = list(reversed(p.coeffs))
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            if r[j + 1]:
                r[j] = r[j] + s * r[j + 1]
    return RationalFn(XPoly(reversed(r)), mobius_by_loop(p, shift).den)


def test_denominator_must_be_unit():
    with pytest.raises(NonInvertibleError):
        RationalFn(X, X)
    with pytest.raises(NonInvertibleError):
        RationalFn(X, LAM * X + LAM)


def test_a_denominator_constant_term_must_be_lambda_free():
    with pytest.raises(NonInvertibleError):
        RationalFn(1, LAM + X)
    assert RationalFn(1, 2 + X).expand(2).coeffs == (
        Rational(1, 2), Rational(-1, 4), Rational(1, 8)
    )


def test_cross_multiplied_equality():
    half = RationalFn(X, 2 * XP_ONE)
    also_half = RationalFn(3 * X, 6 * XP_ONE)
    assert half == also_half
    assert half != RationalFn(X)
    assert RationalFn(XPoly.const(2)) == 2
    with pytest.raises(TypeError):
        hash(half)


def test_arithmetic():
    f = RationalFn(XP_ONE, XP_ONE - X)  # 1/(1-x)
    g = RationalFn(X, XP_ONE - X)
    assert f - g == 1
    assert f * (XP_ONE - X) == 1
    assert (f**2).den == (XP_ONE - X) ** 2
    with pytest.raises(ValueError):
        f ** (-1)


def test_expand_geometric():
    f = RationalFn(XP_ONE, XP_ONE - X)
    s = f.expand(6)
    assert all(s.coeff(k) == 1 for k in range(7))
    # x/(1-x)^2 counts k copies of x^k
    g = RationalFn(X, (XP_ONE - X) ** 2)
    t = g.expand(6)
    assert [t.coeff(k) for k in range(7)] == [LambdaPoly.const(k) for k in range(7)]


def test_eval_and_poles():
    f = RationalFn(XP_ONE, XP_ONE - X)
    assert f.eval(Rational(1, 2), 0) == 2
    with pytest.raises(PoleError):
        f.eval(1, 0)
    g = RationalFn(X, XP_ONE + LAM * X)
    assert g.eval(1, Rational(1, 3)) == Rational(3, 4)
    with pytest.raises(PoleError):
        g.eval(1, -1)


def test_substitute_mobius_known_value():
    # x + (1-λ)x^2 under x -> x/(1+λx) becomes (x + x^2)/(1+λx)^2
    f = substitute_mobius(bell_deg(2), LAM)
    assert f == bell_second_deg(2)
    base = XP_ONE + LAM * X
    assert f == RationalFn(X + X * X, base * base)
    assert f.den == base * base


def test_substitute_mobius_edge_cases():
    assert substitute_mobius(XPoly(), LAM) == RationalFn(XPoly())
    assert substitute_mobius(XPoly.const(7), LAM) == 7
    lin = substitute_mobius(X, Rational(1, 2))
    assert lin == RationalFn(X, XP_ONE + XPoly.monomial(Rational(1, 2), 1))


@given(bivariate, st.sampled_from(SHIFTS))
@settings(max_examples=60, deadline=None)
def test_substitute_mobius_matches_the_multiply_loop(p, shift):
    got, want = substitute_mobius(p, shift), mobius_by_loop(p, shift)
    # field by field, not by cross-multiplication
    assert got.num.coeffs == want.num.coeffs
    assert got.den.coeffs == want.den.coeffs


@pytest.mark.parametrize("shift", SHIFTS)
def test_substitute_mobius_matches_the_multiply_loop_on_families(shift):
    for p in (XPoly(), XPoly.const(7), bell_deg(12), geometric_deg(12)):
        got, want = substitute_mobius(p, shift), mobius_by_loop(p, shift)
        assert got.num.coeffs == want.num.coeffs
        assert got.den.coeffs == want.den.coeffs


def test_truth_value_is_that_of_the_numerator():
    assert not RationalFn(XPoly())
    assert not RationalFn(XPoly(), XP_ONE + X)
    assert not substitute_mobius(XPoly(), LAM)
    assert RationalFn(XPoly.const(3))
    assert RationalFn(X, XP_ONE + LAM * X)
    assert substitute_mobius(bell_deg(3), LAM)


@given(xpolys, rationals)
@settings(max_examples=50)
def test_mobius_substitutions_invert(p, s):
    # x -> x/(1+sx) then x -> x/(1-sx) restores the polynomial
    assert substitute_mobius(p, s).substituted(-s) == RationalFn(p)


def test_substituted_degree_bookkeeping():
    # numerator degree above, equal to, and below denominator degree
    f = RationalFn(X * X * X, XP_ONE - X)
    g = f.substituted(1)
    # check by evaluation instead of juggling cleared forms
    x, lam = Rational(1, 3), Rational(0)
    moved = x / (1 + x)
    assert g.eval(x, lam) == f.eval(moved, lam)
    h = RationalFn(XP_ONE, (XP_ONE - X) ** 2).substituted(Rational(1, 2))
    assert h.eval(x, lam) == RationalFn(XP_ONE, (XP_ONE - X) ** 2).eval(x / (1 + x / 2), lam)


def test_gamma_moment_weights_by_factorials():
    # phi with coefficients in y picks up k! termwise
    phi = bell_partial_deg(2)  # (1-λ)x + x^2 as a polynomial in x
    w = gamma_moment([XPoly.monomial(phi.coeff(k), k) for k in range(phi.degree + 1)])
    assert w == (1 - LAM) * X + 2 * X * X
    assert gamma_moment([]) == XPoly()
    assert gamma_moment([3, LambdaPoly([0, 1]), XP_ONE]) == XPoly.const(3) + LAM + XPoly.const(2)


def test_geometric_deg_matches_gamma_route():
    # the factorial weighting of phi coefficients reproduces the degenerate
    # Fubini family for a couple of small degrees
    for n in (1, 2, 3):
        phi = bell_partial_deg(n)
        built = gamma_moment(
            [XPoly.monomial(phi.coeff(k), k) for k in range(phi.degree + 1)]
        )
        assert built == geometric_deg(n)


def test_text_forms():
    f = RationalFn(X, XP_ONE + LAM * X)
    assert str(f) == "(x) / (1 + λx)"
    assert f.latex() == "\\frac{x}{1 + \\lambda x}"
    assert str(RationalFn(X + XP_ONE)) == "1 + x"


def gamma_moment_by_loop(y_coeffs):
    # the per-term sum gamma_moment ran before it became one x-ring dot;
    # k! * c scales each λ-coefficient, so no x-product is involved
    out = XPoly()
    for k, c in enumerate(y_coeffs):
        c = XPoly.coerce(c)
        if c:
            out = out + XPoly([factorial(k) * ck for ck in c.coeffs])
    return out


def _xfields(p):
    assert type(p) is XPoly
    return tuple((c.num, c.den) for c in p.coeffs)


def _t1_moments(n):
    # the moments T1 integrates: coefficient k of bell_partial_deg(n) at x^k
    p = bell_partial_deg(n)
    return [XPoly.monomial(p.coeff(k), k) for k in range(p.degree + 1)]


@pytest.mark.parametrize("y_coeffs", [
    [],
    [0], [XP_ZERO, LP_ZERO, 0],
    [X, -X],                                # cancels to zero
    [0, X, Rational(-1, 2) * X],            # cancels in the top power of x
    [LAM, XPoly([Rational(1, 3), LAM]), Rational(-5, 2), XPoly.monomial(LambdaPoly([0, 0, 1]), 3)],
    _t1_moments(12),
    [XP_ZERO] + _t1_moments(12),
])
def test_gamma_moment_matches_the_per_term_loop(y_coeffs):
    assert _xfields(gamma_moment(y_coeffs)) == _xfields(gamma_moment_by_loop(y_coeffs))


@given(st.lists(st.one_of(rationals, lambdapolys, bivariate), max_size=6))
@settings(max_examples=60, deadline=None)
def test_gamma_moment_matches_the_per_term_loop_on_mixed_entries(y_coeffs):
    assert _xfields(gamma_moment(y_coeffs)) == _xfields(gamma_moment_by_loop(y_coeffs))


@given(bivariate, st.sampled_from(SHIFTS))
@settings(max_examples=100, deadline=None)
def test_substitute_mobius_matches_the_lambda_poly_taylor_shift(p, shift):
    got, want = substitute_mobius(p, shift), mobius_by_taylor_shift(p, shift)
    assert _xfields(got.num) == _xfields(want.num)
    assert _xfields(got.den) == _xfields(want.den)


@pytest.mark.parametrize("shift", SHIFTS)
def test_substitute_mobius_examples_match_the_lambda_poly_taylor_shift(shift):
    # mixed denominators, interior zeros, and 1 + λx, whose top numerator
    # coefficient cancels at shift -λ
    cases = [
        bell_deg(9),
        XPoly([Rational(1, 2), 0, LambdaPoly([Rational(-2, 3), 0, Rational(5, 4)]), 0, 7]),
        XPoly([0, 0, LAM / 6]),
        XP_ONE + LAM * X,
    ]
    for p in cases:
        got, want = substitute_mobius(p, shift), mobius_by_taylor_shift(p, shift)
        assert _xfields(got.num) == _xfields(want.num)
        assert _xfields(got.den) == _xfields(want.den)


def expand_by_reciprocal(r: RationalFn, order: int) -> Series:
    # num times the reciprocal series of den, the expansion RationalFn.expand
    # ran before it solved den * s = num, kept as the reference it must
    # reproduce
    num = Series("x", order, r.num.coeffs[: order + 1], LambdaPoly)
    den = Series("x", order, r.den.coeffs[: order + 1], LambdaPoly)
    return num * den.reciprocal()


def _series_fields(s: Series):
    return s.var, s.order, s.ring, tuple((c.num, c.den) for c in s.coeffs)


units = st.builds(Rational, st.integers(1, 6), st.integers(1, 6)) | st.builds(
    Rational, st.integers(-6, -1), st.integers(1, 6)
)
denominators = st.builds(lambda u, rest: XPoly([u, *rest]), units, st.lists(lambdapolys, max_size=4))


@given(bivariate, denominators, st.integers(0, 14))
@settings(max_examples=150)
def test_expand_matches_num_times_the_reciprocal(num, den, order):
    r = RationalFn(num, den)
    assert _series_fields(r.expand(order)) == _series_fields(expand_by_reciprocal(r, order))


@pytest.mark.parametrize("n", range(9))
def test_expand_matches_num_times_the_reciprocal_on_families(n):
    # denominators (1 + λx)^n and (1 - x)^(n + 2), at orders below, at and
    # above the degree of the numerator
    cases = [bell_second_deg(n), RationalFn(substitute_mobius(geometric(n), -1).num,
                                            (XP_ONE - X) ** (n + 2))]
    for r in cases:
        for order in range(r.num.degree + 3):
            assert _series_fields(r.expand(order)) == _series_fields(expand_by_reciprocal(r, order))


def test_expand_needs_a_nonnegative_order():
    with pytest.raises(ValueError):
        RationalFn(X, XP_ONE - X).expand(-1)
