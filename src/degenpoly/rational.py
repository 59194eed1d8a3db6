"""Exact rational scalars, the base field for everything else.

Scalars are plain ints and fractions.Fraction values: always in lowest
terms with a positive denominator, printed as "p/q" (or just "p").
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

RAT_ZERO = Rational(0)
RAT_ONE = Rational(1)


def is_scalar(value) -> bool:
    """True for plain exact scalars: ints and rationals."""
    return isinstance(value, (int, Fraction))


def as_rational(value) -> Rational:
    """Coerce an int, a rational, or a "p/q" string.

    str(as_rational(v)) round-trips; "p/q" (or "p") is the canonical
    text form used throughout the CLI and the JSON output.
    """
    if isinstance(value, (int, Fraction)):
        return Rational(value)
    if isinstance(value, str):
        return Rational(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")
