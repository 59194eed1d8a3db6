"""Rational functions in x over the λ-polynomial ring.

A RationalFn is a pair num/den of XPoly values whose denominator has
an invertible constant term (a nonzero λ-free rational), so it always
admits a power-series expansion around x = 0.  No gcd reduction is
attempted; equality is decided by cross-multiplication, which is exact
and cheap at the sizes that occur here.

RationalFn is the last link of the embedding chain described in poly:
its ``_coerce`` lifts anything that embeds into XPoly to a quotient
over 1, and its derived operators, division by a scalar included, come
from poly's ``_Exact`` base.

The module also provides the two substitution rules that do the heavy
lifting elsewhere: the Möbius substitution x -> x/(1 + s*x) applied to
a polynomial (returning a RationalFn with denominator (1+s*x)^deg) and
the gamma-moment rule that integrates a polynomial in y against the
weight e^{-y} on (0, ∞) by sending y^k to k!.
"""

from __future__ import annotations

from math import comb, factorial, lcm
from operator import add
from typing import Sequence, Union

from .rational import Rational
from .poly import LP_ONE, XP_ONE, LambdaPoly, XPoly, _Exact, _unit_value, _xpoly_dot
from .series import Series, _check_order, _divide

__all__ = [
    "RationalFn",
    "PoleError",
    "substitute_mobius",
    "gamma_moment",
]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function where its denominator vanishes."""


class RationalFn(_Exact):
    """Quotient of two XPoly values, expandable around x = 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=XP_ONE):
        self.num = XPoly.coerce(num)
        self.den = XPoly.coerce(den)
        _unit_value(self.den.coeff(0))  # NonInvertibleError unless a unit

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, RationalFn):
            return other
        p = XPoly._coerce(other)
        return None if p is None else RationalFn(p)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        raise TypeError("RationalFn is unhashable (equality is by cross-multiplication)")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFn(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFn(self.num * o.num, self.den * o.den)

    def expand(self, order: int) -> Series:
        """Power-series expansion in x to the given order, λ kept symbolic (series._divide)."""
        _check_order(order)
        out = _divide(self.num.coeffs, self.den.coeffs, order, LambdaPoly)
        return Series._raw("x", order, out, LambdaPoly)

    def eval(self, x, lam) -> Rational:
        """Evaluate at rational x and λ; raises PoleError on a vanishing denominator."""
        d = self.den.eval(x, lam)
        if not d:
            raise PoleError(f"denominator vanishes at x={x}, λ={lam}")
        return self.num.eval(x, lam) / d

    def substituted(self, shift) -> "RationalFn":
        """Apply x -> x/(1 + shift*x) to the whole rational function."""
        dn, dd = self.num.degree, self.den.degree
        s = LambdaPoly.coerce(shift)
        top = substitute_mobius(self.num, s).num
        bot = substitute_mobius(self.den, s).num
        # num/B^dn over den/B^dd with B = 1 + s*x; clear to a polynomial quotient
        if dn >= dd:
            return RationalFn(top, bot * _binomial_power(s, dn - dd))
        return RationalFn(top * _binomial_power(s, dd - dn), bot)

    def text(self, latex: bool = False) -> str:
        num = self.num.text(latex)
        if self.den == XP_ONE:
            return num
        den = self.den.text(latex)
        if latex:
            return f"\\frac{{{num}}}{{{den}}}"
        return f"({num}) / ({den})"


RationalFn.one = RationalFn(XP_ONE)


def _binomial_power(s: LambdaPoly, d: int) -> XPoly:
    # (1 + s*x)^d as sum_j C(d, j) s^j x^j
    coeffs, pw = [], LP_ONE
    for j in range(d + 1):
        coeffs.append(comb(d, j) * pw)
        pw = pw * s
    return XPoly(coeffs)


def substitute_mobius(p: XPoly, shift) -> RationalFn:
    """Substitute x -> x/(1 + shift*x) into a polynomial and clear denominators.

    shift may be a rational or a LambdaPoly; the denominator of the
    result is (1 + shift*x)^d with d = deg(p).  With shift = λ this sends
    the degenerate Bell polynomial to its second-kind sibling; with
    shift = -λ it undoes that; with shift = -1 it is the x/(1-x)
    substitution that turns geometric polynomials into Eulerian ones.

    Clearing sends c_k x^k to c_k x^k (1 + s*x)^(d-k), s the shift, so
    coefficient j of the numerator is the binomial sum
    sum_{k<=j} C(d-k, j-k) s^(j-k) c_k.  That is coefficient d-j of
    r(t + s), where r(t) = sum_k c_k t^(d-k) is p reversed, so the sums
    are read off a Taylor shift of r by s: d Horner passes, each step one
    product with s and one sum.  The passes run on integer numerators:
    with s = S/E (S the integer λ-numerators of s) and L the lcm of the
    coefficient denominators, c_k enters as the integers c_k*L*E^k, the
    shift by S, and coefficient j comes out over L*E^j, divided once.
    The denominator is sum_j C(d, j) s^j x^j.
    """
    p = XPoly.coerce(p)
    s = LambdaPoly.coerce(shift)
    d = p.degree
    if d < 0:
        return RationalFn(XPoly(), XP_ONE)
    cs, e = p.coeffs, s.den
    big = lcm(*(c.den for c in cs))
    r = [[a * (big // c.den * e**k) for a in c.num] for k, c in enumerate(cs)][::-1]
    terms = [(t, a) for t, a in enumerate(s.num) if a]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            src, dst = r[j + 1], r[j]
            if not src:
                continue
            for t, a in terms:
                top = t + len(src)
                if len(dst) < top:
                    dst.extend([0] * (top - len(dst)))
                dst[t:top] = map(add, dst[t:top], src if a == 1 else [a * c for c in src])
    num = [LambdaPoly._new(r[d - j], big * e**j) for j in range(d + 1)]
    return RationalFn(XPoly(num), _binomial_power(s, d))


def gamma_moment(y_coeffs: Sequence[Union[XPoly, LambdaPoly]]) -> XPoly:
    """Integrate sum_k y_coeffs[k] * y^k against e^{-y} dy on (0, ∞).

    The k-th moment of the unit exponential weight is exactly k!, so
    the integral collapses to sum_k k! * y_coeffs[k], an XPoly, summed as
    one x-ring dot.  The entries may be XPoly or anything that coerces
    into one.
    """
    return _xpoly_dot((XPoly.const(factorial(k)), XPoly.coerce(c)) for k, c in enumerate(y_coeffs))
