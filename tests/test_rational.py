"""Scalars must behave like exact normalized rationals."""

from fractions import Fraction

from degenpoly.rational import Rational, as_rational, is_scalar


def test_normalisation():
    assert str(Rational(3, -6)) == "-1/2"
    assert str(Rational(4, 2)) == "2"
    assert Rational(2, 4) == Rational(1, 2)


def test_parse_and_format_round_trip():
    for text in ["0", "5", "-7", "3/4", "-22/7"]:
        assert str(as_rational(text)) == text


def test_interop_with_ints_and_fractions():
    assert Rational(1, 2) + 1 == Rational(3, 2)
    assert as_rational(Fraction(2, 3)) == Rational(2, 3)
    assert Rational(1, 3) * 3 == 1


def test_exactness():
    # 1/3 has no finite binary expansion; exact arithmetic must not care
    x = Rational(1, 3)
    assert 3 * x * x == x
    assert sum([x] * 3, Rational(0)) == 1


def test_is_scalar():
    assert is_scalar(4) and is_scalar(Rational(1, 2)) and is_scalar(Fraction(1, 2))
    assert not is_scalar("1/2")
    assert not is_scalar(None)


def test_as_rational_rejects_junk():
    import pytest

    with pytest.raises(TypeError):
        as_rational(object())
    with pytest.raises((ValueError, ZeroDivisionError)):
        as_rational("not-a-number")
