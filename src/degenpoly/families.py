"""Named polynomial families and the exact triangular tables behind them.

Everything here is anchored to two monic bases of the polynomial ring:
the classical falling factorials x(x-1)...(x-n+1) and their deformed
siblings x(x-λ)...(x-(n-1)λ).  The four change-of-basis tables between
{x^n}, {falling}, {deformed falling} all follow from the three-term
recurrence x (x)_k = (x)_{k+1} + k (x)_k and its deformed twin
x (x)_{k,λ} = (x)_{k+1,λ} + kλ (x)_{k,λ}: each row is the previous one
shifted by a column plus a step weight times itself, memoised row by
row.

The polynomial families are then weighted sums over one table row:
Bell-style sums of table entries against powers of x, geometric
(ordered-partition) sums with an extra k! or rising-factorial weight,
and the Bernoulli-style sequences read off a reciprocal power series.
A cache grows monotonically under one module lock, so concurrent
readers are safe.
"""

from __future__ import annotations

import threading
from math import comb, factorial

from dataclasses import dataclass

from .rational import RAT_ONE, Rational
from .poly import (
    LAM,
    LP_ONE,
    LP_ZERO,
    X,
    XP_ONE,
    LambdaPoly,
    XPoly,
    lambda_falling,
)
from .series import LAMBDA_RING, RATIONAL_RING, XPOLY_RING, Series
from .ratfunc import RationalFn, substitute_mobius

__all__ = [
    "STIRLING_KINDS",
    "TriangularTable",
    "falling_factorial",
    "falling_factorial_lambda",
    "stirling",
    "triangular_table",
    "bell_deg",
    "bell_partial_deg",
    "bell_second_deg",
    "bell_poly",
    "geometric_deg",
    "geometric",
    "geometric_r",
    "bernoulli_deg",
    "bernoulli_number",
    "bernoulli_poly",
    "eulerian_poly",
    "rising_product",
    "exp_series",
    "e_lambda_series",
    "geom_series",
    "binom_series",
    "bell_deg_gf",
    "bell_partial_deg_gf",
    "geometric_deg_gf",
    "bernoulli_deg_gf",
]

STIRLING_KINDS = ("S1", "S2", "S1deg", "S2deg")

_LOCK = threading.RLock()
_FALLING: list[XPoly] = [XP_ONE]
_FALLING_DEG: list[XPoly] = [XP_ONE]
_ROWS: dict[str, list[tuple[LambdaPoly, ...]]] = {k: [] for k in STIRLING_KINDS}
_BETA_DEG: list[LambdaPoly] = []
_BERNOULLI: list[Rational] = []


def rising_product(base: int, m: int) -> int:
    """base (base+1) ... (base+m-1); the empty product is 1."""
    out = 1
    for j in range(m):
        out *= base + j
    return out


def falling_factorial(n: int) -> XPoly:
    """Classical falling factorial x(x-1)...(x-n+1)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    with _LOCK:
        while len(_FALLING) <= n:
            j = len(_FALLING) - 1
            _FALLING.append(_FALLING[-1] * (X - j))
        return _FALLING[n]


def falling_factorial_lambda(n: int) -> XPoly:
    """Deformed falling factorial x(x-λ)...(x-(n-1)λ)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    with _LOCK:
        while len(_FALLING_DEG) <= n:
            j = len(_FALLING_DEG) - 1
            _FALLING_DEG.append(_FALLING_DEG[-1] * (X - XPoly.const(LambdaPoly.monomial(j, 1))))
        return _FALLING_DEG[n]


# step weight a + bλ, as (a, b), in entry(n+1,k) = entry(n,k-1) + w(n,k) entry(n,k)
_STEP = {
    "S1": lambda n, k: (-n, 0),
    "S2": lambda n, k: (k, 0),
    "S1deg": lambda n, k: (-n, k),
    "S2deg": lambda n, k: (k, -n),
}


def _build_row(kind: str, n: int) -> tuple[LambdaPoly, ...]:
    if n == 0:
        return (LP_ONE,)
    prev = _ROWS[kind][n - 1] + (LP_ZERO,)
    step = _STEP[kind]
    return tuple(
        (prev[k - 1] if k else LP_ZERO) + LambdaPoly(step(n - 1, k)) * prev[k]
        for k in range(n + 1)
    )


def stirling(kind: str, n: int, k: int) -> LambdaPoly:
    """Entry (n, k) of one of the four change-of-basis tables.

    "S1"/"S2" expand falling factorials in powers of x and back; the
    classical entries come out as constant polynomials.  "S1deg" writes
    the classical falling factorial in the deformed basis, "S2deg" the
    deformed one in the classical basis.  Entries with k > n are zero;
    entry (n, n) is always 1.
    """
    if kind not in STIRLING_KINDS:
        raise ValueError(f"unknown table kind {kind!r}; expected one of {STIRLING_KINDS}")
    if n < 0 or k < 0:
        raise ValueError("table indices must be nonnegative")
    if k > n:
        return LP_ZERO
    with _LOCK:
        rows = _ROWS[kind]
        while len(rows) <= n:
            rows.append(_build_row(kind, len(rows)))
        return rows[n][k]


@dataclass(frozen=True)
class TriangularTable:
    """All rows 0..n_max of one change-of-basis table."""

    kind: str
    n_max: int
    rows: tuple[tuple[LambdaPoly, ...], ...]

    def entry(self, n: int, k: int) -> LambdaPoly:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"row {n} outside table (n_max={self.n_max})")
        if k < 0:
            raise IndexError("column must be nonnegative")
        return self.rows[n][k] if k <= n else LP_ZERO


def triangular_table(kind: str, n_max: int) -> TriangularTable:
    stirling(kind, n_max, 0)  # force rows into the cache
    with _LOCK:
        rows = tuple(_ROWS[kind][n] for n in range(n_max + 1))
    return TriangularTable(kind, n_max, rows)


# ---------------------------------------------------------------------------
# polynomial families


def _weighted_row(kind: str, n: int, weight) -> XPoly:
    # sum over k of weight(k) * entry(n, k) * x^k
    return XPoly(weight(k) * stirling(kind, n, k) for k in range(n + 1))


def bell_deg(n: int) -> XPoly:
    """Deformed Bell polynomial: sum of (1)_{k,λ} S2(n,k) x^k.

    Counts set partitions with each block weighted by a falling product
    at 1; at λ = 0 it collapses to the classical Bell polynomial.
    """
    return _weighted_row("S2", n, lambda k: lambda_falling(1, k))


def bell_poly(n: int) -> XPoly:
    """Classical Bell polynomial: sum of S2(n,k) x^k."""
    return _weighted_row("S2", n, lambda k: 1)


def bell_partial_deg(n: int) -> XPoly:
    """Partially deformed Bell polynomial: sum of S2deg(n,k) x^k."""
    return _weighted_row("S2deg", n, lambda k: 1)


def bell_second_deg(n: int) -> RationalFn:
    """Second-kind deformed Bell: the first kind under x -> x/(1+λx).

    The result is a rational function with denominator (1+λx)^n.
    """
    return substitute_mobius(bell_deg(n), LAM)


def geometric_deg(n: int) -> XPoly:
    """Deformed geometric (ordered Bell) polynomial: sum of S2deg(n,k) k! x^k."""
    return _weighted_row("S2deg", n, factorial)


def geometric(n: int) -> XPoly:
    """Classical geometric polynomial: sum of S2(n,k) k! x^k."""
    return _weighted_row("S2", n, factorial)


def geometric_r(n: int, r: int) -> XPoly:
    """Higher-order geometric polynomial with rising-factorial weights.

    sum of S2(n,k) r(r+1)...(r+k-1) x^k, for integer order r >= 1.
    Order r = 1 reproduces the plain geometric polynomial.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"order r must be a positive integer, got {r!r}")
    return _weighted_row("S2", n, lambda k: rising_product(r, k))


def bernoulli_deg(n: int) -> LambdaPoly:
    """Deformed Bernoulli number (a polynomial in λ), Carlitz style.

    Defined by the reciprocal of the series sum_m (1)_{m+1,λ} t^m/(m+1)!,
    i.e. t divided by the deformed exponential minus one.  At λ = 0 it
    degenerates to the classical Bernoulli number with B_1 = -1/2.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    with _LOCK:
        if n >= len(_BETA_DEG):
            order = max(n, 2 * len(_BETA_DEG), 8)
            s = bernoulli_deg_gf(order)
            _BETA_DEG[:] = [factorial(m) * s.coeff(m) for m in range(order + 1)]
        return _BETA_DEG[n]


def bernoulli_number(n: int) -> Rational:
    """Classical Bernoulli number, B_1 = -1/2 convention."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    with _LOCK:
        if n >= len(_BERNOULLI):
            order = max(n, 2 * len(_BERNOULLI), 8)
            s = Series(
                "t", order, [Rational(1, factorial(m + 1)) for m in range(order + 1)], RATIONAL_RING
            ).reciprocal()
            _BERNOULLI[:] = [factorial(m) * s.coeff(m) for m in range(order + 1)]
        return _BERNOULLI[n]


def bernoulli_poly(n: int) -> XPoly:
    """Classical Bernoulli polynomial via the binomial sum over B_k."""
    out = XPoly()
    for k in range(n + 1):
        b = bernoulli_number(k)
        if b:
            out = out + XPoly.monomial(comb(n, k) * b, n - k)
    return out


def eulerian_poly(m: int) -> XPoly:
    """Eulerian polynomial, defined here as (1-x)^m W_m(x/(1-x)).

    W_m is the classical geometric polynomial; since deg W_m = m the
    denominator cancels exactly and the result is a polynomial with
    A_0 = 1 and A_m(0) = 0 for m >= 1.  Its coefficients count
    permutations by descents, so they sum to m!.
    """
    w = geometric(m)
    if w.degree != m:
        raise RuntimeError(f"geometric polynomial {m} has degree {w.degree}")
    rf = substitute_mobius(w, -1)
    return rf.num


# ---------------------------------------------------------------------------
# generating series (plain coefficients; the n! bookkeeping is the caller's)


def exp_series(order: int, var: str = "t") -> Series:
    """exp(t): coefficients 1/n!."""
    return Series(var, order, [Rational(1, factorial(n)) for n in range(order + 1)], RATIONAL_RING)


def e_lambda_series(order: int, var: str = "t") -> Series:
    """Deformed exponential at x = 1: coefficients (1)_{n,λ}/n!."""
    return Series(
        var,
        order,
        [lambda_falling(1, n) / factorial(n) for n in range(order + 1)],
        LAMBDA_RING,
    )


def geom_series(order: int, var: str = "x") -> Series:
    """1/(1-x): all coefficients 1."""
    return Series(var, order, [RAT_ONE] * (order + 1), RATIONAL_RING)


def binom_series(r: int, order: int, var: str = "x") -> Series:
    """(1-x)^(-r): coefficients C(r+k-1, k)."""
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"order r must be a positive integer, got {r!r}")
    return Series(var, order, [comb(r + k - 1, k) for k in range(order + 1)], RATIONAL_RING)


def _x_exp_minus_one(order: int) -> Series:
    # x (e^t - 1) as a series in t with XPoly coefficients
    coeffs = [XPoly()] + [XPoly.monomial(Rational(1, factorial(k)), 1) for k in range(1, order + 1)]
    return Series("t", order, coeffs, XPOLY_RING)


def _x_e_lambda_minus_one(order: int) -> Series:
    # x (deformed exp(t) - 1), the deformed sibling of the above
    coeffs = [XPoly()] + [
        XPoly.monomial(lambda_falling(1, k) / factorial(k), 1) for k in range(1, order + 1)
    ]
    return Series("t", order, coeffs, XPOLY_RING)


def bell_deg_gf(order: int) -> Series:
    """Series in t whose n-th coefficient is bell_deg(n)/n!.

    Built as the deformed exponential composed with x(e^t - 1).
    """
    return e_lambda_series(order, "u").compose(_x_exp_minus_one(order))


def bell_partial_deg_gf(order: int) -> Series:
    """Series in t whose n-th coefficient is bell_partial_deg(n)/n!.

    Built as exp of x times (deformed exponential - 1).
    """
    return _x_e_lambda_minus_one(order).exp()


def geometric_deg_gf(order: int) -> Series:
    """Series in t whose n-th coefficient is geometric_deg(n)/n!.

    Built as the reciprocal of 1 - x(deformed exponential - 1).
    """
    one = Series.one("t", order, XPOLY_RING)
    return (one - _x_e_lambda_minus_one(order)).reciprocal()


def bernoulli_deg_gf(order: int) -> Series:
    """Series in t whose n-th coefficient is bernoulli_deg(n)/n!.

    Built as the reciprocal of (deformed exponential - 1)/t.
    """
    coeffs = [lambda_falling(1, m + 1) / factorial(m + 1) for m in range(order + 1)]
    return Series("t", order, coeffs, LAMBDA_RING).reciprocal()
