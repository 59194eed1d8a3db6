"""Truncated power series: arithmetic, reciprocal, compose, exp."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly import RATIONAL_RING
from degenpoly.rational import Rational
from degenpoly.poly import LAM, X, XP_ONE, LambdaPoly, XPoly, _unit_value, lambda_falling
from degenpoly.series import (
    LAMBDA_RING,
    XPOLY_RING,
    NonInvertibleError,
    Series,
    diag_weight,
    first_mismatch,
)
from degenpoly.families import binom_series, e_lambda_series, exp_series, geom_series
from degenpoly.ratfunc import RationalFn

rationals = st.builds(Rational, st.integers(-9, 9), st.integers(1, 9))
unit_series = st.builds(
    lambda head, tail: Series("t", len(tail), [head] + tail, LAMBDA_RING),
    st.sampled_from([Rational(1), Rational(-1), Rational(1, 2), Rational(3)]),
    st.lists(rationals, min_size=0, max_size=6),
)


def test_padding_and_coeff_bounds():
    s = Series("t", 4, [1, 2], LAMBDA_RING)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.coeff(4) == 0
    with pytest.raises(IndexError):
        s.coeff(5)
    with pytest.raises(ValueError):
        Series("t", 1, [1, 2, 3], LAMBDA_RING)


def test_truncation_discipline():
    a = Series("t", 6, [1] * 7, LAMBDA_RING)
    b = Series("t", 3, [1] * 4, LAMBDA_RING)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert a.truncate(2).coeffs == (1, 1, 1)
    with pytest.raises(ValueError):
        b.truncate(5)


def test_mate_checks():
    t = Series("t", 3, [1], LAMBDA_RING)
    x = Series("x", 3, [1], LAMBDA_RING)
    xp = Series("t", 3, [1], XPOLY_RING)
    with pytest.raises(ValueError):
        t + x
    with pytest.raises(ValueError):
        t * xp
    assert Series(t.var, t.order, t.coeffs, XPOLY_RING) + xp == xp.scaled(2)


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
    # an x-polynomial does not embed into the λ-ring
    with pytest.raises(TypeError, match="unsupported operand type"):
        s - X


def test_subtraction_is_negation_then_addition():
    s = Series("t", 2, [1, 2], LAMBDA_RING)
    with pytest.raises(TypeError, match="for -: 'object' and 'Series'"):
        object() - s
    assert (LAM - s).coeffs == (LAM - 1, LambdaPoly.const(-2), LambdaPoly())
    xs = Series("x", 2, [X, 1], XPOLY_RING)
    assert (X - xs).coeffs == (XPoly(), XPoly.const(-1), XPoly())
    a = Series("t", 6, [1] * 7, LAMBDA_RING)
    b = Series("t", 3, [0, 1, 2, 3], LAMBDA_RING)
    assert a - b == Series("t", 3, [1, 0, -1, -2], LAMBDA_RING)
    assert b - a == -(a - b)


def test_geometric_reciprocal():
    one_minus_t = Series("t", 8, [1, -1], LAMBDA_RING)
    assert one_minus_t.reciprocal().coeffs == (1,) * 9
    assert geom_series(8).coeffs == one_minus_t.reciprocal().coeffs


def test_exp_reciprocal_alternates():
    e = exp_series(7)
    inv = e.reciprocal()
    for k in range(8):
        assert inv.coeff(k) == Rational((-1) ** k, math.factorial(k))
    prod = e * inv
    assert prod.coeffs == (1,) + (0,) * 7


def test_exp_of_t_plus_t_squared():
    s = Series("t", 4, [0, 1, 1], LAMBDA_RING).exp()
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
    composed = outer.compose(lam_inner)
    assert composed.ring is LAMBDA_RING
    assert composed.coeff(2) == LambdaPoly([0, 0, Rational(1, 2)])
    x_inner = Series("t", 4, [0, X], XPOLY_RING)
    composed = outer.compose(x_inner)  # a λ-ring outer embeds upward
    assert composed.ring is XPOLY_RING
    assert composed.coeff(2) == X * X / 2
    with pytest.raises(ValueError):
        x_inner.compose(lam_inner)  # an x-ring outer does not embed into the λ-ring


def test_e_lambda_derivative_identity():
    # d/dt (1+λt)^{1/λ} = (1+λt)^{1/λ - 1}; coefficient n is (1)_{n+1,λ}/n!
    d = e_lambda_series(9).derivative()
    for n in range(9):
        expected = lambda_falling(1, n + 1) / math.factorial(n)
        assert d.coeff(n) == expected


def test_derivative():
    s = Series("t", 3, [5, 1, 2, 7], LAMBDA_RING)
    assert s.derivative().coeffs == (1, 4, 21)
    with pytest.raises(ValueError):
        Series("t", 0, [1], LAMBDA_RING).derivative()


def test_reciprocal_needs_unit():
    with pytest.raises(NonInvertibleError):
        Series("t", 3, [0, 1], LAMBDA_RING).reciprocal()
    lam_const = Series("t", 3, [LambdaPoly([0, 1])], LAMBDA_RING)
    with pytest.raises(NonInvertibleError):
        lam_const.reciprocal()  # λ is not a unit here


@pytest.mark.parametrize(
    "ring, head",
    [
        # the exported alias the benchmark's ops probe still builds series with
        (RATIONAL_RING, 0),
        (LAMBDA_RING, 0),
        (LAMBDA_RING, LAM),
        (XPOLY_RING, 0),
        (XPOLY_RING, LAM),
        (XPOLY_RING, X),
        (XPOLY_RING, 1 + X),
        (LAMBDA_RING, 1 + LAM),
    ],
    # the IDs pytest gave these cases while a ring was not a class
    ids=["ring0-0", "ring1-0", "ring2-head2", "ring3-0", "ring4-head4", "ring5-head5",
         "ring6-head6", "ring7-head7"],
)
def test_a_unit_is_a_nonzero_lambda_free_rational(ring, head):
    with pytest.raises(NonInvertibleError):
        Series("t", 3, [head, 1], ring).reciprocal()
    unit = Series("t", 3, [Rational(-2, 3), 1], ring).reciprocal()
    assert unit.coeff(0) == Rational(-3, 2) and unit.ring is ring


def test_a_series_prints_and_hashes_by_its_ring_name():
    s = Series("t", 2, [1, 2], LAMBDA_RING)
    assert str(s) == repr(s) == "Series[t; lambda; O(t^3)](1, 2, 0)"
    assert str(Series("x", 1, [X, LAM], XPOLY_RING)) == "Series[x; xpoly; O(x^2)](x, λ)"
    same = Series("t", 2, [LambdaPoly.const(1), Rational(4, 2), LambdaPoly()], LAMBDA_RING)
    assert same == s and hash(same) == hash(s)
    xs = Series("t", 2, [XPoly.const(1), 2], XPOLY_RING)
    assert xs == Series(s.var, s.order, s.coeffs, XPOLY_RING) and xs != s
    assert hash(xs) == hash(Series(s.var, s.order, s.coeffs, XPOLY_RING))


def test_a_ring_is_its_coefficient_type():
    import degenpoly
    from degenpoly import poly, series

    assert LAMBDA_RING is LambdaPoly and XPOLY_RING is XPoly and RATIONAL_RING is LambdaPoly
    assert degenpoly.NonInvertibleError is series.NonInvertibleError is poly.NonInvertibleError
    # cli.main turns every ZeroDivisionError into exit 2
    assert issubclass(NonInvertibleError, ZeroDivisionError)


@pytest.mark.parametrize("s", [
    geom_series(5),
    Series("x", 5, [1, X, LAM, 1 + X, 0, X * LAM], XPOLY_RING),
], ids=["lambda", "xpoly"])
def test_diag_weight_keeps_the_series_ring(s):
    for m in range(4):
        w = diag_weight(s, m)
        assert w.ring is s.ring
        assert w.coeffs == tuple(lambda_falling(k, m) * c for k, c in enumerate(s.coeffs))
    assert diag_weight(s, 0) == s


def test_first_mismatch():
    a = Series("t", 5, [1, 2, 3], LAMBDA_RING)
    b = Series("t", 3, [1, 2, 4], LAMBDA_RING)
    assert first_mismatch(a, b) == (2, 3, 4)
    assert first_mismatch(a, a.truncate(2)) is None
    xp = Series(a.var, a.order, a.coeffs, XPOLY_RING)
    assert first_mismatch(a, xp) is None  # cross-ring comparison by value
    with pytest.raises(ValueError):
        first_mismatch(a, Series("x", 3, [1], LAMBDA_RING))


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
    s = Series("t", 6, [0] + tail, LAMBDA_RING)
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
                 LAMBDA_RING)
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
    g = Series("t", len(tail), [0] + tail, LAMBDA_RING)
    assert g.exp() == _exp_by_powers(g)


def test_truncate_refuses_a_negative_order():
    s = Series("t", 3, [1, 2, 3], LAMBDA_RING)
    with pytest.raises(ValueError, match="series order must be an int >= 0"):
        s.truncate(-1)
    assert s.truncate(0).coeffs == (1,)
    # a bool or a float is not read as an int either
    for order in (True, False, 1.0):
        with pytest.raises(ValueError, match="series order must be an int >= 0"):
            s.truncate(order)


@pytest.mark.parametrize("build", [
    lambda: Series("t", True, [1], LAMBDA_RING),
    lambda: Series("t", 2.0, [1], XPOLY_RING),
    lambda: Series("t", -1, [], LAMBDA_RING),
    lambda: exp_series(True),
    lambda: e_lambda_series(True),
    lambda: geom_series(True),
    lambda: binom_series(2, True),
    lambda: RationalFn(X, XP_ONE - X).expand(True),
], ids=["Series-bool", "Series-float", "Series-negative", "exp_series", "e_lambda_series",
        "geom_series", "binom_series", "expand"])
def test_a_series_order_must_be_an_int(build):
    with pytest.raises(ValueError, match="series order must be an int >= 0"):
        build()


# ---------------------------------------------------------------------------
# the per-term loops that the ring dot kernels replaced, kept as references


def _mul_reference(a: Series, b: Series) -> tuple:
    n = min(a.order, b.order)
    out = [a.ring.zero] * (n + 1)
    for i, ai in enumerate(a.coeffs[: n + 1]):
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def _reciprocal_reference(s: Series) -> tuple:
    inv = s.ring.coerce(1 / _unit_value(s.coeffs[0]))
    out = [s.ring.zero] * (s.order + 1)
    out[0] = inv
    a = s.coeffs
    for n in range(1, s.order + 1):
        acc = s.ring.zero
        for k in range(1, n + 1):
            if a[k]:
                acc = acc + a[k] * out[n - k]
        out[n] = -(inv * acc)
    return tuple(out)


def _divide_reference(num, den, order: int, ring: type) -> tuple:
    # num/den term by term with the step series._divide took before the unit
    # rule: 1/den_0 as a ring element, times every coefficient through the
    # general ring product
    inv = ring.coerce(1 / _unit_value(den[0]))
    out = []
    for n in range(order + 1):
        acc = ring.zero
        for k in range(1, min(n, len(den) - 1) + 1):
            if den[k]:
                acc = acc + den[k] * out[n - k]
        out.append(inv * (num[n] - acc if n < len(num) else -acc))
    return tuple(out)


def _exp_reference(s: Series) -> tuple:
    kg = [k * c for k, c in enumerate(s.coeffs)]
    out = [s.ring.zero] * (s.order + 1)
    out[0] = s.ring.one
    for m in range(1, s.order + 1):
        acc = s.ring.zero
        for k in range(1, m + 1):
            if kg[k]:
                acc = acc + kg[k] * out[m - k]
        out[m] = acc / m
    return tuple(out)


def _compose_reference(outer: Series, inner: Series) -> tuple:
    # every power of inner up to the order, whatever the outer degree
    ring = inner.ring
    n = min(outer.order, inner.order)
    inner_t = inner.truncate(n)
    out = [ring.zero] * (n + 1)
    out[0] = ring.coerce(outer.coeffs[0])
    pw = Series.one(inner.var, n, ring)
    for k in range(1, n + 1):
        pw = pw * inner_t
        ck = outer.coeffs[k]
        if not ck:
            continue
        c = ring.coerce(ck)
        for idx in range(k, n + 1):
            p = pw.coeffs[idx]
            if p:
                out[idx] = out[idx] + c * p
    return tuple(out)


def _fields(v):
    # the stored fields of one coefficient, so equal values must also be
    # equal representations: num/den of each λ-polynomial
    if isinstance(v, XPoly):
        return ("xpoly", tuple(_fields(c) for c in v.coeffs))
    return ("lambda", v.num, v.den)


def _same(coeffs, expected):
    assert [_fields(c) for c in coeffs] == [_fields(c) for c in expected]


# "rational" draws λ-free λ-polynomials, the coefficients of a rational series
RINGS = {"rational": LAMBDA_RING, "lambda": LAMBDA_RING, "xpoly": XPOLY_RING}
ORDERS = st.sampled_from([0, 1, 5, 16])
# zero often, and denominators other than 1, mixed within one polynomial
sparse_rationals = st.one_of(st.just(Rational(0)), st.builds(Rational, st.integers(-6, 6),
                                                            st.sampled_from([1, 1, 2, 3, 4])))
lambda_polys = st.builds(LambdaPoly, st.lists(sparse_rationals, max_size=3))
xpolys = st.builds(XPoly, st.lists(lambda_polys, max_size=3))
ELEMENTS = {"rational": st.builds(LambdaPoly.const, sparse_rationals), "lambda": lambda_polys,
            "xpoly": xpolys}


@st.composite
def series_in(draw, ring_name, order=None, valuation=None, head=None):
    n = draw(ORDERS) if order is None else order
    v = draw(st.integers(0, 2)) if valuation is None else valuation
    body = draw(st.lists(ELEMENTS[ring_name], min_size=n + 1, max_size=n + 1))
    cs = [RINGS[ring_name].zero] * min(v, n + 1) + body[v:]
    if head is not None:
        cs[0] = head
    return Series("t", n, cs, RINGS[ring_name])


@pytest.mark.parametrize("name", sorted(RINGS))
def test_dot_of_nothing_or_of_zeros_is_the_ring_zero(name):
    ring = RINGS[name]
    z = ring.zero
    for pairs in ((), [(z, z)], [(z, ring.one), (ring.one, z), (z, z)]):
        out = ring._dot(pairs)
        assert out == z and _fields(out) == _fields(z)


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_dot_matches_a_sum_of_products(name, data):
    pairs = data.draw(st.lists(st.tuples(ELEMENTS[name], ELEMENTS[name]), max_size=6))
    ring = RINGS[name]
    expected = ring.zero
    for a, b in pairs:
        expected = expected + a * b
    assert _fields(ring._dot(pairs)) == _fields(ring.coerce(expected))


def test_dot_rescales_to_a_common_denominator():
    # pairs over 2, then 3, then 4: each needs the running lcm
    half, third = Rational(1, 2), Rational(1, 3)
    lp = [(LambdaPoly([half, 1]), LambdaPoly([1])), (LambdaPoly([third]), LAM),
          (LambdaPoly([0, half]), LambdaPoly([half]))]
    assert _fields(LAMBDA_RING._dot(lp)) == _fields(LambdaPoly([half, Rational(19, 12)]))
    xp = [(XPoly([p]), XPoly([0, q])) for p, q in lp]
    expected = XPoly([0, LambdaPoly([half, Rational(19, 12)])])
    assert _fields(XPOLY_RING._dot(xp)) == _fields(expected)


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_mul_matches_the_per_term_reference(name, data):
    a = data.draw(series_in(name))
    b = data.draw(series_in(name))
    _same((a * b).coeffs, _mul_reference(a, b))


UNIT_HEADS = st.sampled_from([Rational(1), Rational(-1), Rational(1, 2), Rational(-3, 4)])


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_reciprocal_matches_the_per_term_reference(name, data):
    s = data.draw(series_in(name, valuation=0, head=data.draw(UNIT_HEADS)))
    _same(s.reciprocal().coeffs, _reciprocal_reference(s))


# the unit 1, where a quotient coefficient is not multiplied at all, and
# units whose inverse scales it
DEN_HEADS = [Rational(1), Rational(2), Rational(-2, 3), Rational(1, 3)]
DEN_IDS = ["1", "2", "minus-2-3rds", "1-3rd"]


@pytest.mark.parametrize("head", DEN_HEADS, ids=DEN_IDS)
@pytest.mark.parametrize("name", ["lambda", "xpoly"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_reciprocal_matches_the_invert_then_multiply_reference(name, head, data):
    s = data.draw(series_in(name, valuation=0, head=head))
    _same(s.reciprocal().coeffs, _divide_reference((s.ring.one,), s.coeffs, s.order, s.ring))


@pytest.mark.parametrize("head", DEN_HEADS, ids=DEN_IDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_expand_matches_the_invert_then_multiply_reference(head, data):
    # RationalFn.expand always divides over the λ-ring
    num = XPoly(data.draw(st.lists(lambda_polys, max_size=5)))
    den = XPoly([head, *data.draw(st.lists(lambda_polys, max_size=4))])
    order = data.draw(ORDERS)
    s = RationalFn(num, den).expand(order)
    _same(s.coeffs, _divide_reference(num.coeffs, den.coeffs, order, LAMBDA_RING))


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_exp_matches_the_per_term_reference(name, data):
    s = data.draw(series_in(name, valuation=data.draw(st.integers(1, 3))))
    _same(s.exp().coeffs, _exp_reference(s))


def _outer_of_degree(draw, name, order):
    # outer series with a degree below the order, interior zeros included
    degree = draw(st.integers(0, order))
    cs = draw(st.lists(ELEMENTS[name], min_size=degree + 1, max_size=degree + 1))
    return Series("u", order, cs, RINGS[name])


@pytest.mark.parametrize("outer_name, inner_name", [
    ("rational", "rational"), ("rational", "lambda"), ("lambda", "lambda"),
    ("lambda", "xpoly"), ("xpoly", "xpoly"),
])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_compose_matches_the_all_powers_reference(outer_name, inner_name, data):
    inner = data.draw(series_in(inner_name, valuation=data.draw(st.integers(1, 2))))
    outer = _outer_of_degree(data.draw, outer_name, data.draw(ORDERS))
    _same(outer.compose(inner).coeffs, _compose_reference(outer, inner))


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("outer_cs", [
    [],                      # the zero outer
    [Rational(-2, 3)],       # a constant outer
    [0, 0, 1],               # degree 2, far below the order
    [1, 0, 0, Rational(1, 2), 0, 0, 0, 3],  # interior zeros
])
def test_compose_edge_outers_match_the_reference(name, outer_cs):
    ring = RINGS[name]
    inner = Series("t", 16, [0, 1, Rational(1, 2), 0, Rational(-1, 3)], ring)
    if name != "rational":
        inner = inner + Series("t", 16, [0, 0, LAM], ring)
    if name == "xpoly":
        inner = inner + Series("t", 16, [0, X], ring)
    outer = Series("u", 16, outer_cs, LAMBDA_RING)
    _same(outer.compose(inner).coeffs, _compose_reference(outer, inner))
