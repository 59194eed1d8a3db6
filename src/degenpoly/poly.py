"""Dense exact polynomials in the deformation parameter and in x.

LambdaPoly is a polynomial in the deformation parameter (rendered as
the symbol λ) with rational coefficients, stored as a tuple of integer
numerators over one shared positive denominator, reduced by their
common gcd.  Every Stirling-table entry and every falling product has
integer coefficients, so the denominator is almost always 1 and
multiplying two λ-polynomials is an integer schoolbook convolution.
Evaluation is Horner's rule on integers over one common denominator,
at a rational λ (``LambdaPoly.eval``, and ``XPoly.eval_lambda`` per
coefficient) and at a rational x (``XPoly.eval_x``).
XPoly is a polynomial in x whose coefficients are LambdaPoly values, so
it is effectively a bivariate polynomial in (x, λ).  Both are dense,
lowest degree first, with no trailing zeros; the zero polynomial has no
coefficients.  Instances are immutable and all arithmetic is exact.

Values embed along one chain, scalar (int or rational) -> LambdaPoly
-> XPoly -> RationalFn (in ratfunc): each type's ``_coerce`` lifts only
the type one step below it, and every other site embeds through the
classmethod ``coerce``, which raises TypeError for a value that does
not embed.  The private base ``_Exact`` writes the derived operators
once for all three types, so mixed arithmetic such as ``2 * p - q / 3``
works in any combination.

A coefficient ring is its type: LambdaPoly and XPoly carry ``name``,
``zero``, ``one``, ``coerce`` and ``_dot`` (the kernels below).
A unit is a nonzero λ-free rational constant, in whichever type it is
held; ``_unit_value`` returns it as a rational and raises
NonInvertibleError on anything else, so its inverse is a scalar factor.

Sum-of-products rule: a product, and any sum of products, is one ring
dot.  ``_lambda_dot`` and ``_xpoly_dot`` (at the end of this module)
each sum a*b over an iterable of (a, b) pairs in a single accumulator
and normalise once; series coefficients, weighted table sums and the
identity checks all sum through them.
``XPoly.__mul__`` is the one-pair x-ring dot, so the x-convolution is
written once, in ``_xpoly_dot``.  ``LambdaPoly.__mul__`` stays a direct
integer loop: a one-pair ``_lambda_dot`` is 9-15% slower per product on
the small λ-polynomials of warm CLI requests (2.24 vs 2.58 µs on degree
<= 4 operands, Python 3.11 on a 2-vCPU Xeon), and a build routed through
it answered the query-warm benchmark 5-10% slower.

Print-from-numerators rule: text, LaTeX and JSON write each coefficient
from its integer numerator over the shared denominator through
``_ratio_text``, reduced by one gcd; no rational is built to print one.

Scalar-factor rule: a factor from a lower rung of the chain scales
instead of entering the general product.  An int or rational times a
LambdaPoly scales its numerators and its denominator and reduces once;
an XPoly times a scalar or a LambdaPoly scales each coefficient, with
no x-ring dot.  ``__rmul__`` and ``/`` take the same paths.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add
from typing import Iterable

from .rational import RAT_ONE, RAT_ZERO, Rational, as_rational, is_scalar

__all__ = [
    "NonInvertibleError",
    "LambdaPoly",
    "XPoly",
    "LAM",
    "LP_ONE",
    "LP_ZERO",
    "X",
    "XP_ONE",
    "XP_ZERO",
    "lambda_falling",
]


def _strip(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _ratio_text(p: int, q: int, latex: bool = False) -> str:
    # the rational p/q (q > 0) as "p/q", or "p" in lowest terms, or a LaTeX
    # fraction; one gcd and no Fraction (the print-from-numerators rule)
    if q != 1:
        g = gcd(p, q)
        p, q = p // g, q // g
    if q == 1:
        return str(p)
    if latex:
        return f"{'-' if p < 0 else ''}\\frac{{{abs(p)}}}{{{q}}}"
    return f"{p}/{q}"


def _format_power(sym: str, i: int, latex: bool) -> str:
    if i == 0:
        return ""
    if i == 1:
        return sym
    return f"{sym}^{{{i}}}" if latex else f"{sym}^{i}"


def _join_terms(terms: list[tuple[bool, str]]) -> str:
    # terms: (negative?, body) pairs in increasing degree
    if not terms:
        return "0"
    out = []
    for idx, (neg, body) in enumerate(terms):
        if idx == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


def _horner(num, p: int, q: int) -> int:
    # q^degree * sum_i num[i] (p/q)^i for integer numerators num, by Horner's
    # rule on integers; qk = q^(steps taken)
    acc, qk = 0, 1
    for c in reversed(num):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _index(value, what: str, least: int = 0, most: int | None = None) -> int:
    # the one count rule: an index, order, degree or bound is an int (not a
    # bool, a float or anything else) from least up to most; value, or a
    # ValueError naming what
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be an int >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be at most {most}, got {value}")
    return value


def _rat(value):
    # an int or a rational passes through as it is; anything else goes
    # through the parser, which reads "p/q" strings and refuses the rest
    return value if isinstance(value, (int, Rational)) else as_rational(value)


class NonInvertibleError(ZeroDivisionError):
    """Division by a series or coefficient that is not a unit."""


def _unit_value(v) -> Rational:
    # the scalar, LambdaPoly or XPoly v as a rational when it is a unit (the
    # rule in the module docstring), else NonInvertibleError
    p = XPoly.coerce(v)
    if p.degree != 0 or p.lambda_degree != 0:
        raise NonInvertibleError(f"constant term {v} is not a unit")
    return p.coeff(0).coeff(0)


class _Exact:
    """Operators shared by LambdaPoly, XPoly and RationalFn.

    A subclass supplies ``_coerce`` (the value itself, or a value of the
    type one step down the embedding chain lifted into the subclass,
    else None), ``__add__``, ``__neg__``, ``__mul__``, ``text`` and its
    one value ``one``; everything here follows from those.  The type is
    the ring: ``coerce`` is its embedding.
    """

    __slots__ = ()

    @classmethod
    def coerce(cls, value):
        """The value embedded into this type; TypeError if it does not embed."""
        v = cls._coerce(value)
        if v is None:
            raise TypeError(f"{value!r} does not embed into {cls.__name__}")
        return v

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not is_scalar(other):
            return NotImplemented
        if not other:
            raise ZeroDivisionError(f"division of a {type(self).__name__} by zero")
        return self * (RAT_ONE / other)

    def __pow__(self, n: int):
        acc = self.one
        for _ in range(_index(n, "exponent")):
            acc = acc * self
        return acc

    def latex(self) -> str:
        return self.text(latex=True)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"


class LambdaPoly(_Exact):
    """Polynomial in the deformation parameter with rational coefficients.

    Stored as integer numerators ``num`` (lowest degree first, no
    trailing zeros) over one positive denominator ``den``, reduced so
    that gcd(den, *num) == 1; the zero polynomial is ((), 1).  Equal
    values therefore have equal fields.  ``coeffs`` gives the
    coefficients as a tuple of rationals.
    """

    __slots__ = ("num", "den")

    def __new__(cls, coeffs: Iterable = ()):
        qs = [as_rational(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        return cls._new([q.numerator * (den // q.denominator) for q in qs], den)

    @classmethod
    def _new(cls, num: list, den: int = 1) -> "LambdaPoly":
        # internal: integer numerators over a positive denominator; strips
        # trailing zeros and divides out gcd(den, *num), so zero is ((), 1)
        while num and not num[-1]:
            num.pop()
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        p = object.__new__(cls)
        p.num = tuple(num)
        p.den = den
        return p

    @classmethod
    def const(cls, value) -> "LambdaPoly":
        q = _rat(value)
        return cls._new([q.numerator], q.denominator)

    @classmethod
    def monomial(cls, coeff, degree: int) -> "LambdaPoly":
        _index(degree, "monomial degree")
        q = _rat(coeff)
        return cls._new([0] * degree + [q.numerator], q.denominator)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as rationals, lowest degree first."""
        den = self.den
        return tuple(Rational(c, den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree in the deformation parameter; -1 for the zero polynomial."""
        return len(self.num) - 1

    def coeff(self, i: int) -> Rational:
        return Rational(self.num[i], self.den) if 0 <= i < len(self.num) else RAT_ZERO

    @property
    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def constant_value(self) -> Rational:
        """The value of a constant polynomial, as a plain rational."""
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeff(0)

    def eval(self, value) -> Rational:
        """Evaluate at a rational value of the deformation parameter."""
        v = _rat(value)
        if not self.num:
            return RAT_ZERO
        q = v.denominator
        return Rational(_horner(self.num, v.numerator, q), self.den * q**self.degree)

    def scale_lambda(self, factor) -> "LambdaPoly":
        """Substitute factor * λ for λ."""
        f = _rat(factor)
        if not self.num:
            return self
        p, q = f.numerator, f.denominator
        # c_i (p/q)^i over the common denominator den * q^degree
        top = self.degree
        num = [c * p**i * q ** (top - i) for i, c in enumerate(self.num)]
        return LambdaPoly._new(num, self.den * q**top)

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, LambdaPoly):
            return other
        if is_scalar(other):
            return LambdaPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if da == db:
            den = da
        else:
            g = gcd(da, db)
            den = da // g * db
            a = [c * (db // g) for c in a]
            b = [c * (da // g) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LambdaPoly._new(out, den)

    def __neg__(self):
        return LambdaPoly._new([-c for c in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            # a scalar factor scales the numerators and the denominator
            p = other.numerator
            return LambdaPoly._new([c * p for c in self.num], self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not a or not b:
            return LP_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        return LambdaPoly._new(out, self.den * o.den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.is_constant:
            return hash(self.constant_value())
        return hash(("LambdaPoly", self.num, self.den))

    def _terms(self, sym: str, latex: bool, xpart: str = "") -> list[tuple[bool, str]]:
        terms, den = [], self.den
        for i, c in enumerate(self.num):
            if not c:
                continue
            mag = abs(c)
            lam = _format_power(sym, i, latex)
            # a space keeps \lambda from swallowing a following letter
            sep = " " if latex and lam and xpart else ""
            body = lam + sep + xpart
            if mag != den or not body:
                body = _ratio_text(mag, den, latex) + body
            terms.append((c < 0, body))
        return terms

    def text(self, latex: bool = False) -> str:
        """Canonical rendering: increasing degree, p/q rationals, explicit ^."""
        return _join_terms(self._terms("\\lambda" if latex else "λ", latex))


LP_ZERO = LambdaPoly._new([])
LP_ONE = LambdaPoly.one = LambdaPoly._new([1])
LAM = LambdaPoly._new([0, 1])


class XPoly(_Exact):
    """Polynomial in x whose coefficients are LambdaPoly values."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = _strip([LambdaPoly.coerce(c) for c in coeffs])

    @classmethod
    def _raw(cls, coeffs: tuple) -> "XPoly":
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def const(cls, value) -> "XPoly":
        return cls.monomial(value, 0)

    @classmethod
    def monomial(cls, coeff, degree: int) -> "XPoly":
        _index(degree, "monomial degree")
        c = LambdaPoly.coerce(coeff)
        if not c:
            return XP_ZERO
        return cls._raw((LP_ZERO,) * degree + (c,))

    @property
    def degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lambda_degree(self) -> int:
        """Largest degree in the deformation parameter over all coefficients."""
        return max((c.degree for c in self.coeffs), default=-1)

    def coeff(self, k: int) -> LambdaPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else LP_ZERO

    def eval_x(self, value) -> LambdaPoly:
        """Substitute a rational p/q for x; the result still depends on λ.

        The x-twin of ``LambdaPoly.eval``: Horner over integers on
        L * q^degree * self(p/q), L the lcm of the coefficient
        denominators, so each step multiplies the λ-numerator list by p
        and adds the next coefficient's numerators lifted by L/den * q^k,
        and the result is divided once, by L * q^degree.
        """
        v = _rat(value)
        cs = self.coeffs
        if not cs:
            return LP_ZERO
        p, q = v.numerator, v.denominator
        big = lcm(*(c.den for c in cs))
        acc, qk = [], 1
        for c in reversed(cs):
            acc = [a * p for a in acc]
            if c.num:
                m, lift = len(c.num), big // c.den * qk
                if len(acc) < m:
                    acc.extend([0] * (m - len(acc)))
                acc[:m] = map(add, acc[:m], [a * lift for a in c.num])
            qk *= q
        return LambdaPoly._new(acc, big * q**self.degree)

    def eval(self, x, lam) -> Rational:
        """Evaluate at rational x and rational deformation parameter."""
        return self.eval_x(x).eval(lam)

    def eval_lambda(self, value) -> "XPoly":
        """Substitute a rational p/q for λ, keeping x symbolic.

        The λ-twin of ``eval_x``: each coefficient becomes the constant
        of integer Horner numerator over den * q^degree, reduced once,
        as ``LambdaPoly.eval`` computes it, with no rational built.
        """
        v = _rat(value)
        p, q = v.numerator, v.denominator
        return XPoly._raw(_strip([
            LambdaPoly._new([_horner(c.num, p, q)], c.den * q**c.degree) if c.num else LP_ZERO
            for c in self.coeffs
        ]))

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, XPoly):
            return other
        c = LambdaPoly._coerce(other)
        return None if c is None else XPoly.monomial(c, 0)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly._raw(_strip(out))

    def __neg__(self):
        return XPoly._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, XPoly):
            return _xpoly_dot(((self, other),))
        # a scalar or λ-polynomial factor scales each coefficient
        o = other if is_scalar(other) else LambdaPoly._coerce(other)
        if o is None:
            return NotImplemented
        return XPoly._raw(_strip([c * o for c in self.coeffs]))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0]) if self.coeffs else hash(LP_ZERO)
        return hash(("XPoly", self.coeffs))

    def text(self, latex: bool = False) -> str:
        lam = "\\lambda" if latex else "λ"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            xpart = _format_power("x", k, latex)
            if len([q for q in c.num if q]) == 1:
                # single monomial in λ: fold signs and the trivial factor 1
                terms.extend(c._terms(lam, latex, xpart))
            elif k == 0:
                terms.extend(c._terms(lam, latex))
            else:
                terms.append((False, f"({_join_terms(c._terms(lam, latex))}){xpart}"))
        return _join_terms(terms)


XP_ZERO = XPoly._raw(())
XP_ONE = XPoly.one = XPoly._raw((LP_ONE,))
X = XPoly._raw((LP_ZERO, LP_ONE))


# Dot-product kernels, one per coefficient ring (the sum-of-products rule
# in the module docstring).  A pair with a zero factor is skipped.  The
# λ kernel keeps integer numerators over a running common denominator.


def _lambda_dot(pairs) -> LambdaPoly:
    acc, den = [], 1
    for a, b in pairs:
        an, bn = a.num, b.num
        if not an or not bn:
            continue
        s, d = 1, a.den * b.den
        if d != den:
            # lift acc (over den) and this term (over d) to lcm(den, d)
            g = gcd(den, d)
            if g != d:
                acc = [c * (d // g) for c in acc]
            den, s = den // g * d, den // g
        top = len(an) + len(bn) - 1
        if len(acc) < top:
            acc.extend([0] * (top - len(acc)))
        for i, ai in enumerate(an):
            if ai:
                ai *= s
                for j, bj in enumerate(bn, i):
                    acc[j] += ai * bj
    return LambdaPoly._new(acc, den)


def _xpoly_dot(pairs) -> XPoly:
    # the λ-coefficient pairs grouped by power of x, then one λ-dot per power
    # that has any
    groups: list[list] = []
    for a, b in pairs:
        ac, bc = a.coeffs, b.coeffs
        if not ac or not bc:
            continue
        top = len(ac) + len(bc) - 1
        while len(groups) < top:
            groups.append([])
        for i, ai in enumerate(ac):
            if ai:
                for j, bj in enumerate(bc, i):
                    if bj:
                        groups[j].append((ai, bj))
    return XPoly._raw(_strip([_lambda_dot(g) if g else LP_ZERO for g in groups]))


LambdaPoly.name, LambdaPoly.zero, LambdaPoly._dot = "lambda", LP_ZERO, staticmethod(_lambda_dot)
XPoly.name, XPoly.zero, XPoly._dot = "xpoly", XP_ZERO, staticmethod(_xpoly_dot)


def lambda_falling(base, m: int) -> LambdaPoly:
    """m-factor falling product base * (base - λ) * ... * (base - (m-1)λ).

    base may be an int, a rational, or a LambdaPoly.  For base 1 this
    is the coefficient sequence of the degenerate exponential; for an
    integer base k it is the diagonal weight attached to x^k by the
    degenerate derivative operator.
    """
    b = LambdaPoly.coerce(base)
    acc = LP_ONE
    for j in range(_index(m, "falling product length")):
        acc = acc * (b - LambdaPoly.monomial(j, 1))
    return acc
