"""Named polynomial families and the exact triangular tables behind them.

Everything here is anchored to two monic bases of the polynomial ring:
the classical falling factorials x(x-1)...(x-n+1) and their deformed
siblings x(x-λ)...(x-(n-1)λ).  The four change-of-basis tables between
{x^n}, {falling}, {deformed falling} all follow from the three-term
recurrence x (x)_k = (x)_{k+1} + k (x)_k and its deformed twin
x (x)_{k,λ} = (x)_{k+1,λ} + kλ (x)_{k,λ}: each row is the previous one
shifted by a column plus a step weight times itself.

The Bell and geometric families are weighted sums over one table row.
The Bernoulli numbers follow the term recurrence of a reciprocal series
and the Eulerian polynomials their derivative recurrence, so neither
shares code with the generating series or the geometric polynomials it
is checked against.  Each memoised sequence is one ``_sequence``, grown
in index order under one module lock, so concurrent readers are safe:

- both falling bases, (x)_n and (x)_{n,λ};
- the unit falling products (1)_{n,λ}, the weights of ``bell_deg`` and
  the coefficients of the deformed exponential;
- the rows of the four tables, which ``triangular_table`` returns as they
  are, a tuple of rows;
- the t-coefficients (1)_{k+1,λ}/(k+1)! of (e_λ(t) - 1)/t and both
  Bernoulli sequences;
- the Eulerian polynomials.

``bell_second_deg`` and ``geometric_deg`` stay uncached: their rows are
large, and a long-running process would hold every one it was asked for.
"""

from __future__ import annotations

import functools
import threading
from math import comb, factorial

from .rational import RAT_ONE, Rational
from .poly import LAM, LP_ONE, LP_ZERO, X, XP_ONE, LambdaPoly, XPoly
from .series import LAMBDA_RING, XPOLY_RING, Series
from .ratfunc import RationalFn, substitute_mobius

__all__ = [
    "STIRLING_KINDS",
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


def _sequence(step):
    # reader of the memoised sequence whose term n is step(n, terms 0..n-1);
    # a step may read other sequences, since the lock is reentrant
    terms = []

    def term(n: int):
        if n < 0:
            raise ValueError("index must be nonnegative")
        with _LOCK:
            while len(terms) <= n:
                terms.append(step(len(terms), terms))
            return terms[n]

    return term


def rising_product(base: int, m: int) -> int:
    """base (base+1) ... (base+m-1); the empty product is 1."""
    out = 1
    for j in range(m):
        out *= base + j
    return out


_falling = _sequence(lambda n, f: f[-1] * (X - (n - 1)) if n else XP_ONE)
_falling_deg = _sequence(lambda n, f: f[-1] * (X - (n - 1) * LAM) if n else XP_ONE)
# the unit falling products (1)_{n,λ} = (1-λ)(1-2λ)...(1-(n-1)λ)
_unit_falling = _sequence(lambda n, u: u[-1] * LambdaPoly((1, 1 - n)) if n else LP_ONE)


def falling_factorial(n: int) -> XPoly:
    """Classical falling factorial x(x-1)...(x-n+1)."""
    return _falling(n)


def falling_factorial_lambda(n: int) -> XPoly:
    """Deformed falling factorial x(x-λ)...(x-(n-1)λ)."""
    return _falling_deg(n)


# step weight a + bλ, as (a, b), in entry(n+1,k) = entry(n,k-1) + w(n,k) entry(n,k)
_STEP = {
    "S1": lambda n, k: (-n, 0),
    "S2": lambda n, k: (k, 0),
    "S1deg": lambda n, k: (-n, k),
    "S2deg": lambda n, k: (k, -n),
}


def _build_row(kind: str, n: int, rows) -> tuple[LambdaPoly, ...]:
    if n == 0:
        return (LP_ONE,)
    prev = rows[n - 1] + (LP_ZERO,)
    step = _STEP[kind]
    return tuple(
        (prev[k - 1] if k else LP_ZERO) + LambdaPoly(step(n - 1, k)) * prev[k]
        for k in range(n + 1)
    )


# kind -> reader of its rows
_TABLE = {kind: _sequence(functools.partial(_build_row, kind)) for kind in STIRLING_KINDS}


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
    return _TABLE[kind](n)[k]


def triangular_table(kind: str, n_max: int) -> tuple[tuple[LambdaPoly, ...], ...]:
    """Rows 0..n_max of one change-of-basis table; row n holds entries (n, 0..n)."""
    stirling(kind, n_max, 0)  # checks the arguments and builds rows 0..n_max
    return tuple(map(_TABLE[kind], range(n_max + 1)))


# ---------------------------------------------------------------------------
# polynomial families


def _weighted_row(kind: str, n: int, weight) -> XPoly:
    # sum over k of weight(k) * entry(n, k) * x^k
    return XPoly(weight(k) * entry for k, entry in enumerate(_TABLE[kind](n)))


def bell_deg(n: int) -> XPoly:
    """Deformed Bell polynomial: sum of (1)_{k,λ} S2(n,k) x^k.

    Counts set partitions with each block weighted by a falling product
    at 1; at λ = 0 it collapses to the classical Bell polynomial.
    """
    return _weighted_row("S2", n, _unit_falling)


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


def _reciprocal_step(coeff, one):
    # plain coefficients s_n of 1/(1 + coeff(1) t + coeff(2) t^2 + ...):
    # s_0 = 1 and s_n = -(coeff(1) s_{n-1} + ... + coeff(n) s_0)
    def step(n, s):
        if n == 0:
            return one
        return -sum(coeff(k) * s[n - k] for k in range(1, n + 1) if s[n - k])

    return step


# t-coefficients (1)_{k+1,λ}/(k+1)! of (deformed exponential - 1)/t
_e_lambda_quotient = _sequence(lambda k, _: _unit_falling(k + 1) / factorial(k + 1))
_bernoulli_deg = _sequence(_reciprocal_step(_e_lambda_quotient, LP_ONE))
_bernoulli = _sequence(_reciprocal_step(lambda k: Rational(1, factorial(k + 1)), RAT_ONE))


def bernoulli_deg(n: int) -> LambdaPoly:
    """Deformed Bernoulli number (a polynomial in λ), Carlitz style.

    Defined by the reciprocal of the series sum_m (1)_{m+1,λ} t^m/(m+1)!,
    i.e. t divided by the deformed exponential minus one.  At λ = 0 it
    degenerates to the classical Bernoulli number with B_1 = -1/2.
    Computed as n! s_n, where s_n follows the reciprocal recurrence
    s_0 = 1, s_n = -sum_{k=1..n} (1)_{k+1,λ}/(k+1)! s_{n-k}.
    """
    return _bernoulli_deg(n) * factorial(n)


def bernoulli_number(n: int) -> Rational:
    """Classical Bernoulli number, B_1 = -1/2 convention."""
    return _bernoulli(n) * factorial(n)


def bernoulli_poly(n: int) -> XPoly:
    """Classical Bernoulli polynomial via the binomial sum over B_k."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    # coefficient of x^i is C(n, i) B_{n-i}
    return XPoly(comb(n, i) * bernoulli_number(n - i) for i in range(n + 1))


@_sequence
def _eulerian(m, a):
    # A_m = x((1-x)A'_{m-1} + m A_{m-1}), read off coefficient by coefficient:
    # [x^i] A_m = i [x^i] A_{m-1} + (m-i+1) [x^{i-1}] A_{m-1}
    if m == 0:
        return XP_ONE
    c = a[m - 1].coeff
    return XPoly([LP_ZERO] + [i * c(i) + (m - i + 1) * c(i - 1) for i in range(1, m + 1)])


def eulerian_poly(m: int) -> XPoly:
    """Eulerian polynomial, equal to (1-x)^m W_m(x/(1-x)).

    W_m is the classical geometric polynomial; since deg W_m = m the
    denominator cancels exactly and the result is a polynomial with
    A_0 = 1 and A_m(0) = 0 for m >= 1.  Its coefficients count
    permutations by descents, so they sum to m!.  Built from the
    recurrence A_m = x((1-x)A'_{m-1} + m A_{m-1}), independently of W_m.
    """
    return _eulerian(m)


# ---------------------------------------------------------------------------
# generating series (plain coefficients; the n! bookkeeping is the caller's)


def exp_series(order: int) -> Series:
    """exp(t): coefficients 1/n!."""
    return Series("t", order, [Rational(1, factorial(n)) for n in range(order + 1)], LAMBDA_RING)


def e_lambda_series(order: int, var: str = "t") -> Series:
    """Deformed exponential at x = 1: coefficients (1)_{n,λ}/n!."""
    return Series(
        var,
        order,
        [_unit_falling(n) / factorial(n) for n in range(order + 1)],
        LAMBDA_RING,
    )


def geom_series(order: int) -> Series:
    """1/(1-x): all coefficients 1."""
    return Series("x", order, [1] * (order + 1), LAMBDA_RING)


def binom_series(r: int, order: int) -> Series:
    """(1-x)^(-r): coefficients C(r+k-1, k)."""
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"order r must be a positive integer, got {r!r}")
    return Series("x", order, [comb(r + k - 1, k) for k in range(order + 1)], LAMBDA_RING)


def _x_times_minus_one(e: Series) -> Series:
    # x (e(t) - 1) as a series in t with XPoly coefficients
    coeffs = [XPoly()] + [XPoly.monomial(c, 1) for c in e.coeffs[1:]]
    return Series("t", e.order, coeffs, XPOLY_RING)


def bell_deg_gf(order: int) -> Series:
    """Series in t whose n-th coefficient is bell_deg(n)/n!.

    Built as the deformed exponential composed with x(e^t - 1).
    """
    return e_lambda_series(order, "u").compose(_x_times_minus_one(exp_series(order)))


def bell_partial_deg_gf(order: int) -> Series:
    """Series in t whose n-th coefficient is bell_partial_deg(n)/n!.

    Built as exp of x times (deformed exponential - 1).
    """
    return _x_times_minus_one(e_lambda_series(order)).exp()


def geometric_deg_gf(order: int) -> Series:
    """Series in t whose n-th coefficient is geometric_deg(n)/n!.

    Built as the reciprocal of 1 - x(deformed exponential - 1).
    """
    one = Series.one("t", order, XPOLY_RING)
    return (one - _x_times_minus_one(e_lambda_series(order))).reciprocal()


def bernoulli_deg_gf(order: int) -> Series:
    """Series in t whose n-th coefficient is bernoulli_deg(n)/n!.

    Built as the reciprocal of (deformed exponential - 1)/t.
    """
    coeffs = [_e_lambda_quotient(m) for m in range(order + 1)]
    return Series("t", order, coeffs, LAMBDA_RING).reciprocal()
