"""Exact polynomial layers: arithmetic, substitution, rendering."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly import poly
from degenpoly.rational import Rational
from degenpoly.poly import (
    LAM,
    LP_ONE,
    LP_ZERO,
    X,
    XP_ONE,
    XP_ZERO,
    XPoly,
    LambdaPoly,
    lambda_falling,
)
from degenpoly.ratfunc import RationalFn
from degenpoly.series import LAMBDA_RING, Series

rationals = st.builds(Rational, st.integers(-9, 9), st.integers(1, 9))
# wide numerators and mixed denominators exercise the shared-denominator path
wide_rationals = st.builds(Rational, st.integers(-10**12, 10**12), st.integers(1, 60))
lambda_polys = st.builds(
    LambdaPoly, st.lists(st.one_of(rationals, wide_rationals, st.integers(-99, 99)), max_size=6)
)
xpolys = st.builds(
    lambda rows: XPoly([LambdaPoly(r) for r in rows]),
    st.lists(st.lists(rationals, max_size=3), max_size=4),
)


def test_trailing_zeros_stripped():
    assert LambdaPoly([1, 0, 0]).degree == 0
    assert LambdaPoly([0, 0]).degree == -1
    assert not LambdaPoly([0])
    assert XPoly([LambdaPoly([1]), LambdaPoly()]).degree == 0


def test_lambda_poly_basic_arithmetic():
    p = LambdaPoly([1, 2])  # 1 + 2λ
    q = LambdaPoly([0, 1])  # λ
    assert p + q == LambdaPoly([1, 3])
    assert p - p == LP_ZERO
    assert p * q == LambdaPoly([0, 1, 2])
    assert p * 0 == 0
    assert (p / 2) * 2 == p
    assert q**3 == LambdaPoly([0, 0, 0, 1])


def test_scalar_coercion_both_sides():
    p = LAM + 1
    assert p == LambdaPoly([1, 1])
    assert 1 + LAM == p
    assert 2 * LAM == LAM * 2 == LambdaPoly([0, 2])
    assert 1 - LAM == LambdaPoly([1, -1])
    assert Rational(1, 2) * LAM == LambdaPoly([0, Rational(1, 2)])


def test_xpoly_mixed_coercion():
    p = X * X + LAM * X + 1  # x^2 + λx + 1
    assert p.coeff(0) == LP_ONE
    assert p.coeff(1) == LAM
    assert p.coeff(2) == LP_ONE
    assert p.degree == 2
    assert p.lambda_degree == 1


def test_eval_chains():
    p = (X - LAM) * X  # x^2 - λx
    assert p.eval(3, Rational(1, 2)) == 9 - Rational(3, 2)
    assert p.eval_x(2) == LambdaPoly([4, -2])
    assert p.eval_lambda(0) == X * X


@given(lambda_polys, lambda_polys, lambda_polys)
@settings(max_examples=80)
def test_lambda_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + LP_ZERO == a == LP_ZERO + a
    assert a * LP_ONE == a == LP_ONE * a
    assert a * LP_ZERO == LP_ZERO
    assert a + (-a) == LP_ZERO
    assert a - b == -(b - a)


@given(xpolys, xpolys, xpolys)
@settings(max_examples=60)
def test_xpoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + XP_ZERO == a == XP_ZERO + a
    assert a * XP_ONE == a == XP_ONE * a
    assert a * XP_ZERO == XP_ZERO
    assert a + (-a) == XP_ZERO


@given(xpolys, rationals, rationals)
@settings(max_examples=60)
def test_eval_is_a_homomorphism(p, x, lam):
    q = p * p + 3 * p - 1
    v = p.eval(x, lam)
    assert q.eval(x, lam) == v * v + 3 * v - 1


def test_lambda_falling_values():
    # (1)_{k,λ} = 1 (1-λ) (1-2λ) ...
    assert lambda_falling(1, 0) == LP_ONE
    assert lambda_falling(1, 2) == LambdaPoly([1, -1])
    assert lambda_falling(1, 3) == LambdaPoly([1, -3, 2])
    # integer base: (3)_{2,λ} = 3 (3-λ) = 9 - 3λ
    assert lambda_falling(3, 2) == LambdaPoly([9, -3])
    # polynomial base: (1-λ)_{2,λ} = (1-λ)(1-2λ)
    assert lambda_falling(LambdaPoly([1, -1]), 2) == LambdaPoly([1, -3, 2])
    for bad in (-1, True, False):
        with pytest.raises(ValueError):
            lambda_falling(1, bad)


def test_lambda_substitute():
    # λ -> c through eval_lambda (x kept) and eval; λ -> fλ through scale_lambda
    p = X * X * LambdaPoly([0, 1]) + X  # λx^2 + x
    assert p.eval_lambda(0) == X
    assert p.eval_lambda(1) == X * X + X
    q = LambdaPoly([1, 2, 4])
    assert q.scale_lambda(Rational(1, 2)) == LambdaPoly([1, 1, 1])
    assert q.eval(Rational(1, 2)) == 3


def test_constant_value_guard():
    with pytest.raises(ValueError):
        LAM.constant_value()
    assert LambdaPoly([Rational(5, 3)]).constant_value() == Rational(5, 3)
    assert LP_ZERO.constant_value() == 0


def test_division_guards():
    with pytest.raises(ZeroDivisionError):
        LAM / 0
    assert (LAM / Rational(1, 2)) == 2 * LAM


def test_rendering_canonical_text():
    assert str(LP_ZERO) == "0"
    assert str(LambdaPoly([1, -1])) == "1 - λ"
    assert str(LambdaPoly([Rational(1, 6), 0, Rational(-1, 6)])) == "1/6 - 1/6λ^2"
    p = X + (1 - LAM) * X * X
    assert str(p) == "x + (1 - λ)x^2"
    assert str(X * X * 2 - Rational(1, 2)) == "-1/2 + 2x^2"
    assert str(LAM * X) == "λx"


def test_rendering_latex():
    assert LambdaPoly([Rational(-1, 2), Rational(1, 2)]).latex() == (
        "-\\frac{1}{2} + \\frac{1}{2}\\lambda"
    )
    assert (LAM * X * X).latex() == "\\lambda x^{2}"
    p = X + (1 - LAM) * X * X
    assert p.latex() == "x + (1 - \\lambda)x^{2}"


def test_hash_consistent_with_scalar_equality():
    assert LambdaPoly.const(3) == 3
    assert hash(LambdaPoly.const(3)) == hash(Rational(3))
    assert hash(LambdaPoly.const(Rational(5, 3))) == hash(Rational(5, 3))
    assert hash(LP_ZERO) == hash(0)
    assert XPoly.const(3) == LambdaPoly.const(3) == 3


def test_xpoly_hash_agrees_with_equality():
    assert hash(XPoly.const(Rational(1, 2))) == hash(Rational(1, 2))
    assert hash(XPoly()) == hash(0)
    assert XPoly([1, LAM]) == (1 + LAM * X) and hash(XPoly([1, LAM])) == hash(1 + LAM * X)
    assert len({XPoly([1, LAM]), 1 + LAM * X, XPoly.const(2), LambdaPoly.const(2), 2}) == 2


def test_rendering_a_constant_term_of_several_lambda_terms():
    p = XPoly([1 + LAM, 1])
    assert str(p) == "1 + λ + x"
    assert p.latex() == "1 + \\lambda + x"


def test_pow_guard():
    with pytest.raises(ValueError):
        X ** (-1)
    # a bool or a float is not read as an int, and a negative degree is not
    # read as 0: each exponent and each monomial degree is refused
    for call in (
        lambda: LAM ** True,
        lambda: X ** False,
        lambda: X ** 2.0,
        lambda: RationalFn(X) ** True,
        lambda: LambdaPoly.monomial(1, True),
        lambda: XPoly.monomial(1, True),
        lambda: LambdaPoly.monomial(1, 1.0),
        lambda: XPoly.monomial(1, 2.0),
        lambda: LambdaPoly.monomial(3, -1),
        lambda: XPoly.monomial(3, -2),
    ):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize(
    "v",
    [
        LambdaPoly([1, Rational(1, 2)]),
        XPoly([1, LAM, Rational(-2, 3)]),
        RationalFn(X, XP_ONE + LAM * X),
    ],
    ids=["LambdaPoly", "XPoly", "RationalFn"],
)
def test_shared_operators(v):
    two = Rational(2)
    assert 2 + v == v + 2 == v + two and type(2 + v) is type(v)
    assert (2 + v) - v == 2
    assert v - 2 == -(2 - v) and type(2 - v) is type(v)
    assert 1 - v == -(v - 1)
    assert 2 * v == v * 2 == v + v and type(2 * v) is type(v)
    assert Rational(1, 3) * v * 3 == v
    assert v / 2 == v * Rational(1, 2) and (v / 2) * 2 == v
    assert v**0 == 1
    assert v**3 == v * v * v
    with pytest.raises(ValueError):
        v ** (-1)
    assert repr(v).startswith(f"{type(v).__name__}(")
    assert str(v) == v.text()
    with pytest.raises(TypeError):
        v + object()
    with pytest.raises(TypeError):
        object() * v


def test_values_that_do_not_embed_raise_type_error():
    with pytest.raises(TypeError):
        XPoly([1, object()])
    with pytest.raises(TypeError):
        RationalFn(object())
    with pytest.raises(TypeError):
        RationalFn(X, object())
    with pytest.raises(TypeError):
        Series("x", 2, [1, object()], LAMBDA_RING)
    with pytest.raises(TypeError):
        XPoly.coerce(RationalFn(X))


def test_a_scalar_constant_skips_the_rational_parser(monkeypatch):
    # every method taking a scalar passes an int or a rational through as
    # it is; only a string reaches the parser
    p = LambdaPoly([1, 2, Rational(-1, 3)])
    q = XPoly([1, LAM, p])
    third = Rational(1, 3)

    def values():
        return (LambdaPoly.const(3), 2 * LAM, Series("t", 2, [1, 2], LAMBDA_RING),
                LambdaPoly.const(Rational(-3, 4)),
                p.eval(3), p.eval(third), p.scale_lambda(-2), p.scale_lambda(third),
                LambdaPoly.monomial(5, 2), LambdaPoly.monomial(-third, 1),
                q.eval_x(2), q.eval_x(third), q.eval_lambda(-1), q.eval_lambda(third),
                p / 2, q / third)

    before = values()

    def refuse(value):
        raise AssertionError(f"as_rational({value!r})")

    monkeypatch.setattr(poly, "as_rational", refuse)
    after = values()
    assert after == before
    assert [(p.num, p.den) for p in after[:4:3]] == [((3,), 1), ((-3,), 4)]
    monkeypatch.undo()
    assert after[4:6] == (4, Rational(44, 27))
    assert after[8] == LambdaPoly([0, 0, 5]) and after[14] == LambdaPoly([Rational(1, 2), 1, Rational(-1, 6)])
    assert LambdaPoly.const(" 1/2 ") == LambdaPoly([Rational(1, 2)])
    assert p.eval("1/3") == p.eval(third)
    assert p.scale_lambda("1/3") == p.scale_lambda(third)
    assert LambdaPoly.monomial("-1/3", 1) == LambdaPoly.monomial(-third, 1)
    assert q.eval_x("1/3") == q.eval_x(third)
    assert q.eval_lambda("1/3") == q.eval_lambda(third)
    for call in (LambdaPoly.const, p.eval, p.scale_lambda, lambda v: LambdaPoly.monomial(v, 1),
                 q.eval_x, q.eval_lambda, lambda v: p / v, lambda v: q / v):
        with pytest.raises(TypeError):
            call(0.5)


def _assert_canonical(p: LambdaPoly):
    assert type(p.den) is int and p.den > 0
    assert type(p.num) is tuple and all(type(c) is int for c in p.num)
    assert gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0


@given(lambda_polys, lambda_polys, st.one_of(rationals, wide_rationals))
@settings(max_examples=80)
def test_lambda_poly_canonical_form(a, b, q):
    results = [a, b, a + b, a - b, a * b, -a, a * q, a.scale_lambda(q), a - a]
    if q:
        results.append(a / q)
    for p in results:
        _assert_canonical(p)
    # the same value reached by another route has the same fields and hash
    again = (3 * a + b) - b - 2 * a
    assert (again.num, again.den) == (a.num, a.den)
    assert hash(again) == hash(a)
    rebuilt = LambdaPoly(a.coeffs)
    assert (rebuilt.num, rebuilt.den) == (a.num, a.den)
    assert ((a - a).num, (a - a).den) == ((), 1)


def test_lambda_poly_storage_examples():
    p = LambdaPoly([Rational(1, 2), Rational(-1, 3), 0, 0])
    assert (p.num, p.den) == ((3, -2), 6)
    assert p.coeffs == (Rational(1, 2), Rational(-1, 3))
    assert p.coeff(1) == Rational(-1, 3) and p.coeff(7) == 0
    # 1/2 + 1/2 reduces to the integer 1
    half = LambdaPoly.const(Rational(1, 2))
    assert ((half + half).num, (half + half).den) == ((1,), 1)
    assert (LP_ZERO.num, LP_ZERO.den) == ((), 1)
    assert LambdaPoly.monomial(0, 3) == LP_ZERO and LambdaPoly.monomial(0, 3).den == 1
    with pytest.raises(AttributeError):
        p.coeffs = ()


def _fraction_convolution(a, b):
    out = [Rational(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@given(lambda_polys, lambda_polys, st.one_of(rationals, wide_rationals))
@settings(max_examples=80)
def test_lambda_poly_matches_fraction_reference(a, b, v):
    ca, cb = a.coeffs, b.coeffs
    assert all(type(c) is Rational for c in ca)
    assert (a * b).coeffs == _fraction_convolution(ca, cb)
    width = max(len(ca), len(cb))
    padded = [(ca[i] if i < len(ca) else 0) + (cb[i] if i < len(cb) else 0) for i in range(width)]
    while padded and not padded[-1]:
        padded.pop()
    assert (a + b).coeffs == tuple(padded)
    assert a.eval(v) == sum((c * v**i for i, c in enumerate(ca)), Rational(0))
    scaled = [c * v**i for i, c in enumerate(ca)]
    while scaled and not scaled[-1]:
        scaled.pop()
    assert a.scale_lambda(v).coeffs == tuple(scaled)


def xpoly_mul_by_loop(a: XPoly, b) -> XPoly:
    # the per-term x-convolution XPoly.__mul__ ran before it became the
    # one-pair x-ring dot, kept as the reference the dot must reproduce
    ac, bc = a.coeffs, XPoly.coerce(b).coeffs
    if not ac or not bc:
        return XP_ZERO
    out = [LP_ZERO] * (len(ac) + len(bc) - 1)
    for i, ai in enumerate(ac):
        if not ai:
            continue
        for j, bj in enumerate(bc):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return XPoly(out)


def _xfields(p):
    assert type(p) is XPoly
    return tuple((c.num, c.den) for c in p.coeffs)


# λ-coefficients with zeros and denominators other than 1; XPolys that are
# zero, constant, sparse monomials or dense
sparse_lambda_polys = st.builds(
    LambdaPoly, st.lists(st.one_of(st.just(0), rationals, wide_rationals), max_size=4)
)
mul_xpolys = st.one_of(
    st.just(XP_ZERO),
    st.builds(XPoly.const, st.one_of(rationals, sparse_lambda_polys)),
    st.builds(XPoly.monomial, sparse_lambda_polys, st.integers(0, 6)),
    st.builds(XPoly, st.lists(sparse_lambda_polys, max_size=5)),
)


@given(mul_xpolys, mul_xpolys, st.one_of(rationals, wide_rationals, st.integers(-9, 9)),
       sparse_lambda_polys)
@settings(max_examples=150)
def test_xpoly_mul_matches_the_per_term_loop(a, b, q, lp):
    assert _xfields(a * b) == _xfields(xpoly_mul_by_loop(a, b))
    assert _xfields(q * b) == _xfields(xpoly_mul_by_loop(b, q))
    assert _xfields(b * q) == _xfields(xpoly_mul_by_loop(b, q))
    assert _xfields(lp * a) == _xfields(xpoly_mul_by_loop(a, lp))


def test_xpoly_mul_examples_match_the_per_term_loop():
    half = LambdaPoly([Rational(1, 2), Rational(-2, 3)])
    cases = [
        (XP_ZERO, X), (X, XP_ZERO), (XP_ONE, XP_ONE),
        (XPoly.monomial(half, 4), XPoly.monomial(LAM, 3)),
        (XPoly([half, 0, 0, LAM]), XPoly([0, 0, Rational(3, 4)])),
        (XPoly([1, LAM]), XPoly([1, -LAM])),
    ]
    for a, b in cases:
        assert _xfields(a * b) == _xfields(xpoly_mul_by_loop(a, b))


def test_x_dot_hands_the_lambda_dot_no_zero_factor(monkeypatch):
    # zero λ-coefficients of sparse operands cost nothing: no pair that
    # reaches the λ-kernel has a zero factor
    seen = []
    inner = poly._lambda_dot

    def spy(pairs):
        pairs = list(pairs)
        seen.extend(pairs)
        return inner(pairs)

    monkeypatch.setattr(poly, "_lambda_dot", spy)
    a = XPoly([LAM, 0, 0, Rational(1, 2)])
    b = XPoly([0, 1, 0, 0, LAM + 1])
    assert _xfields(a * b) == _xfields(xpoly_mul_by_loop(a, b))
    assert len(seen) == 4 and all(x and y for x, y in seen)


def eval_x_by_horner(p: XPoly, value) -> LambdaPoly:
    # the LambdaPoly Horner XPoly.eval_x ran before its integer kernel,
    # kept as the reference the kernel must reproduce
    v = Rational(value)
    acc = LP_ZERO
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


X_VALUES = [0, -1, 3, Rational(-1, 2), Rational(2, 3), Rational(7, 12)]


@given(mul_xpolys, st.sampled_from(X_VALUES), st.one_of(rationals, wide_rationals))
@settings(max_examples=150)
def test_eval_x_matches_the_lambda_poly_horner(p, v, lam):
    got, want = p.eval_x(v), eval_x_by_horner(p, v)
    assert type(got) is LambdaPoly
    assert (got.num, got.den) == (want.num, want.den)
    assert p.eval(v, lam) == want.eval(lam)


@pytest.mark.parametrize("v", X_VALUES)
def test_eval_x_examples_match_the_lambda_poly_horner(v):
    cases = [
        XP_ZERO,
        XPoly.const(Rational(-5, 6)),
        XPoly.const(LambdaPoly([Rational(1, 4), 0, 3])),
        XPoly([LambdaPoly([Rational(1, 2), Rational(-2, 3)]), 0, LAM / 9, Rational(7, 10)]),
        XPoly.monomial(LambdaPoly([0, Rational(3, 8)]), 5),
        X - 1,
    ]
    for p in cases:
        got, want = p.eval_x(v), eval_x_by_horner(p, v)
        assert (got.num, got.den) == (want.num, want.den)


# ints (zero, negative, past a machine word), rationals and bools
scalars = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30), rationals,
                    wide_rationals, st.booleans())


def _lfields(p):
    assert type(p) is LambdaPoly
    return p.num, p.den


@given(lambda_polys, mul_xpolys, sparse_lambda_polys, scalars)
@settings(max_examples=200)
def test_a_scalar_factor_matches_the_general_product(p, x, lp, s):
    # a scalar times a LambdaPoly scales its fields; a scalar or LambdaPoly
    # times an XPoly scales each coefficient: both agree field by field with
    # the general product of the factor embedded as a constant
    want = _lfields(p * LambdaPoly.const(s))
    assert _lfields(p * s) == _lfields(s * p) == want
    xwant = _xfields(poly._xpoly_dot(((x, XPoly.const(s)),)))
    assert _xfields(x * s) == _xfields(s * x) == xwant
    xwant = _xfields(poly._xpoly_dot(((x, XPoly.const(lp)),)))
    assert _xfields(x * lp) == _xfields(lp * x) == xwant
    if s:
        inv = LambdaPoly.const(Rational(1) / s)
        assert _lfields(p / s) == _lfields(p * inv)
        assert _xfields(x / s) == _xfields(poly._xpoly_dot(((x, XPoly.const(inv)),)))


def test_scalar_factor_examples_match_the_general_product():
    third = LambdaPoly([Rational(1, 3), Rational(-2, 9)])  # den 9
    for p in (LP_ZERO, LP_ONE, LAM, third, LambdaPoly([4, 6])):
        for s in (0, -1, 3, 10**40, Rational(3, 2), Rational(-9, 4), True, False):
            assert _lfields(p * s) == _lfields(p * LambdaPoly.const(s)), (p, s)
            x = XPoly([p, 0, third])
            assert _xfields(x * s) == _xfields(poly._xpoly_dot(((x, XPoly.const(s)),))), (p, s)
    # the scale reduces once: 3 * (1/3 - 2/9 λ) = (3 - 2λ)/3
    assert _lfields(third * 3) == ((3, -2), 3)
    assert _lfields(third * Rational(9, 2)) == ((3, -2), 2)
