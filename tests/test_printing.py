"""Printing and λ-substitution on integer numerators, against rational references.

Text, LaTeX and JSON write each coefficient from its integer numerator over
the shared denominator (``poly._ratio_text``), ``XPoly.eval_lambda`` runs
integer Horner per coefficient, and the early digit-limit bound returns at
once for |v| < 2.  The references below are the earlier versions of each,
which built a rational per coefficient and ran the bound for every v.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly.cli import _digit_limit_error, _refuse_past_the_limit, _to_text
from degenpoly.poly import LAM, X, LambdaPoly, XPoly, _format_power, _ratio_text, _strip
from degenpoly.ratfunc import RationalFn
from degenpoly.rational import as_rational, is_scalar
from degenpoly.render import value_to_json


def _format_rational_reference(q, latex):
    if latex and q.denominator != 1:
        sign = "-" if q < 0 else ""
        return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"
    return str(q)


def _terms_reference(self, sym, latex, xpart=""):
    terms = []
    for i, c in enumerate(self.coeffs):
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        lam = _format_power(sym, i, latex)
        sep = " " if latex and lam and xpart else ""
        body = lam + sep + xpart
        if mag != 1 or not body:
            body = _format_rational_reference(mag, latex) + body
        terms.append((neg, body))
    return terms


def _value_to_json_reference(v):
    if is_scalar(v):
        return str(as_rational(v))
    if isinstance(v, LambdaPoly):
        return [str(c) for c in v.coeffs]
    if isinstance(v, XPoly):
        return [[str(q) for q in c.coeffs] for c in v.coeffs]
    return {"num": _value_to_json_reference(v.num), "den": _value_to_json_reference(v.den)}


def _eval_lambda_reference(p, v):
    return XPoly._raw(_strip([LambdaPoly.const(c.eval(v)) for c in p.coeffs]))


def _refuse_reference(value, lam, x):
    limit, v = sys.get_int_max_str_digits(), x if lam is None else lam
    if not limit or v is None:
        return
    num, den, top = abs(v.numerator), v.denominator, limit * 10 // 3
    for p in [value.num, value.den] if isinstance(value, RationalFn) else [XPoly.coerce(value)]:
        d = p.degree if lam is None else p.lambda_degree
        bits = d * (num.bit_length() - 1 - den.bit_length()) - 1
        if bits <= top:
            continue
        q = (LambdaPoly(c.coeff(p.coeffs[-1].degree) for c in p.coeffs) if lam is None
             else max(p.coeffs, key=lambda c: c.degree))
        a = q.num
        if bits - q.den.bit_length() > top and abs(a[-1]) * num >= 2 * sum(map(abs, a[:-1])) * den:
            raise _digit_limit_error()


# coefficients that exercise every printing branch: zero (an interior gap),
# ±1 (a numerator equal to ±den once another coefficient has a denominator),
# small and large numerators over non-unit denominators
coefficients = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 7, 12])),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**12)),
)
lambda_polys = st.lists(coefficients, max_size=6).map(LambdaPoly)
x_polys = st.lists(lambda_polys, max_size=5).map(XPoly)
unit_constants = coefficients.filter(bool).map(LambdaPoly.const)
rational_fns = st.builds(lambda n, c, rest: RationalFn(n, XPoly([c, *rest])),
                         x_polys, unit_constants, st.lists(lambda_polys, max_size=3))
values = st.one_of(lambda_polys, x_polys, rational_fns)


@given(st.integers(-10**30, 10**30), st.integers(1, 10**6), st.booleans())
def test_a_numerator_over_a_denominator_prints_as_its_rational(p, q, latex):
    v = Fraction(p, q)
    assert _ratio_text(p, q, latex) == _format_rational_reference(v, latex)
    # a scalar result, as the CLI prints it and as JSON carries it
    for scalar in (v, p):
        want = LambdaPoly.const(scalar).latex() if latex else str(scalar)
        assert _to_text(scalar, latex) == want
        assert value_to_json(scalar) == _value_to_json_reference(scalar)


@given(values)
@settings(max_examples=300)
def test_text_latex_and_json_match_the_rational_reference(v):
    new = (v.text(), v.latex(), value_to_json(v))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LambdaPoly, "_terms", _terms_reference)
        old = (v.text(), v.latex(), _value_to_json_reference(v))
    assert new == old


def test_the_printing_branches_the_strategy_must_reach():
    # ±den numerators print as a bare power, interior zeros are skipped, and a
    # non-unit denominator prints as p/q or \frac{p}{q}
    p = LambdaPoly([Fraction(-1, 6), 0, 1, -1, Fraction(5, 3)])
    assert p.num == (-1, 0, 6, -6, 10) and p.den == 6
    assert p.text() == "-1/6 + λ^2 - λ^3 + 5/3λ^4"
    assert p.latex() == "-\\frac{1}{6} + \\lambda^{2} - \\lambda^{3} + \\frac{5}{3}\\lambda^{4}"
    assert value_to_json(p) == ["-1/6", "0", "1", "-1", "5/3"]
    assert value_to_json(XPoly([p, 0, -LAM])) == [value_to_json(p), [], ["0", "-1"]]


@given(x_polys, st.one_of(coefficients, st.builds(Fraction, st.integers(-10**20, 10**20),
                                                     st.integers(1, 10**20))))
@settings(max_examples=300)
def test_eval_lambda_matches_the_rational_reference_field_for_field(p, v):
    got, want = p.eval_lambda(v), _eval_lambda_reference(p, v)
    assert [(c.num, c.den) for c in got.coeffs] == [(c.num, c.den) for c in want.coeffs]


# |v| on both sides of 2, down to 2^-50 and up to 10^200; 2^41/(2^40 - 1), just
# above 2, has a numerator two bits longer than its denominator, so the bound
# gains a bit per degree and refuses it at degree 2200
SIDES_OF_TWO = [Fraction(0), Fraction(1, 2**50), Fraction(-1), Fraction(3, 2), Fraction(-1999, 1000),
                Fraction(2**50 - 1, 2**49), Fraction(2), Fraction(-2), Fraction(2**41, 2**40 - 1),
                Fraction(2001, 1000), Fraction(-5, 2), Fraction(4), Fraction(2**40),
                Fraction(-(2**40), 3), Fraction(10**200)]
# members of λ-degree or x-degree 0, 60 and 2200, with a leading term that
# does and that does not dominate the others
MEMBERS = [LambdaPoly.const(3), LAM**60 + 1, 1 + 5 * LAM + LambdaPoly.monomial(Fraction(1, 7), 2200),
           LambdaPoly.monomial(1, 2200) + LambdaPoly.monomial(-10**40, 2199),
           XPoly.monomial(LAM**60 - 1, 60) + X, XPoly.monomial(3, 2200) - X,
           RationalFn(X**60 + LAM**60, 1 + X)]


@pytest.mark.parametrize("v", SIDES_OF_TWO, ids=str)
def test_the_early_digit_bound_refuses_what_it_refused_before(v):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for member in MEMBERS:
            for lam, x in ((v, None), (None, v)):
                outcomes = []
                for refuse in (_refuse_past_the_limit, _refuse_reference):
                    try:
                        refuse(member, lam, x)
                        outcomes.append("printed")
                    except ValueError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (member, lam, x)
                if abs(v) < 2:
                    assert outcomes[0] == "printed"
    finally:
        sys.set_int_max_str_digits(old)


def test_the_early_digit_bound_refuses_on_the_far_side_of_two():
    # the comparison above would hold vacuously if neither side refused
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for v in (Fraction(2**41, 2**40 - 1), Fraction(4), Fraction(2**40), Fraction(10**200)):
            with pytest.raises(ValueError):
                _refuse_past_the_limit(LambdaPoly.monomial(3, 2200) + 1, v, None)
            with pytest.raises(ValueError):
                _refuse_past_the_limit(XPoly.monomial(3, 2200) - X, None, v)
    finally:
        sys.set_int_max_str_digits(old)
