"""JSON shapes for exact values, shared by the CLI and the check registry.

Rationals travel as "p/q" strings (plain "p" when the denominator is
1), λ-polynomials as arrays of those strings in increasing degree,
x-polynomials as arrays of such arrays, and rational functions as
{"num": ..., "den": ...}.  Parsing is driven purely by structure, and
every value round-trips to an equal value of the same type, with one
exception: the zero λ-polynomial and the zero x-polynomial share the
empty array, which parses back as the zero LambdaPoly (equal by value
to the zero XPoly, but not of its type).

Print-from-numerators rule: every string is written by ``poly._ratio_text``
from an integer numerator over its denominator, for a λ-polynomial the
shared one, with one gcd each and no rational built per coefficient.
"""

from __future__ import annotations

from .rational import as_rational, is_scalar
from .poly import LambdaPoly, XPoly, _ratio_text
from .ratfunc import RationalFn

__all__ = ["value_to_json", "value_from_json"]


def value_to_json(v):
    if is_scalar(v):
        return _ratio_text(v.numerator, v.denominator)
    if isinstance(v, LambdaPoly):
        return _lambda_json(v)
    if isinstance(v, XPoly):
        return [_lambda_json(c) for c in v.coeffs]
    if isinstance(v, RationalFn):
        return {"num": value_to_json(v.num), "den": value_to_json(v.den)}
    raise TypeError(f"cannot serialise {v!r}")


def _lambda_json(p: LambdaPoly) -> list:
    den = p.den
    return [_ratio_text(c, den) for c in p.num]


def value_from_json(j):
    if isinstance(j, str):
        return as_rational(j)
    if isinstance(j, dict):
        return RationalFn(value_from_json(j["num"]), value_from_json(j["den"]))
    if isinstance(j, list):
        if all(isinstance(e, str) for e in j):
            return LambdaPoly(as_rational(e) for e in j)
        return XPoly(value_from_json(e) for e in j)
    raise TypeError(f"cannot parse {j!r}")
