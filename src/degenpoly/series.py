"""Truncated formal power series with exact coefficients.

A Series is a finite prefix c_0 + c_1 v + ... + c_N v^N of a formal
power series in the variable named by ``var``, with coefficients in
one of two rings.  A ring is the coefficient type, LambdaPoly or XPoly
(see poly); a series with rational coefficients is a λ-free series over
LambdaPoly.  The stored coefficients are the plain series coefficients;
any factorial normalisation belongs to whoever builds or reads the
series, not to this module.

Truncation discipline: a binary operation never manufactures precision,
so the result order is min(order_a, order_b).  Binary operations also
insist on an identical variable tag and an identical coefficient ring.
truncate() only shortens.

reciprocal() needs a unit constant term (poly's unit rule); it and
ratfunc's RationalFn.expand both solve den * s = num through _divide.
A quotient's constant term is a unit, so 1/den_0 is a rational q: each
quotient coefficient is multiplied by q through poly's scalar-factor
path, and not at all when q is 1 (a denominator such as 1 + λx or
1 - x(e_λ - 1)).

Kernel rule: each coefficient of a product, quotient, exp or compose
is one ring dot, as poly's sum-of-products rule says.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .rational import RAT_ONE
from .poly import LambdaPoly, NonInvertibleError, XPoly, _index, _unit_value, lambda_falling

__all__ = [
    "Series",
    "LAMBDA_RING",
    "XPOLY_RING",
    "NonInvertibleError",
    "diag_weight",
    "first_mismatch",
]


# second names of the two rings, read by the tests and the benchmark's ops
# probe (perfbench/child.py); the package itself writes LambdaPoly and XPoly
LAMBDA_RING = LambdaPoly
XPOLY_RING = XPoly


def _divide(num: Sequence, den: Sequence, order: int, ring: type) -> tuple:
    """s_0..s_order of num/den over ring, den[0] a unit: one ring dot over
    den's own terms per den_0 s_n = num_n - sum_{k=1..n} den_k s_{n-k}.

    The unit rule: q = 1/den_0 is a rational, and each s_n is scaled by
    it through poly's scalar-factor path, only when q is not 1.
    """
    q, dot, tail = RAT_ONE / _unit_value(den[0]), ring._dot, den[1 : order + 1]
    out = []
    for n in range(order + 1):
        acc = dot(zip(tail, reversed(out)))
        c = num[n] - acc if n < len(num) else -acc
        out.append(c if q == 1 else c * q)
    return tuple(out)


def _check_order(order) -> int:
    return _index(order, "series order")


class Series:
    """Order-N truncation of a formal power series, exact coefficients."""

    __slots__ = ("var", "order", "ring", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Sequence, ring: type):
        _check_order(order)
        if len(coeffs) > order + 1:
            raise ValueError(f"{len(coeffs)} coefficients for order {order}")
        cs = [ring.coerce(c) for c in coeffs]
        cs.extend([ring.zero] * (order + 1 - len(cs)))
        self.var = var
        self.order = order
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, var, order, coeffs, ring) -> "Series":
        s = object.__new__(cls)
        s.var = var
        s.order = order
        s.ring = ring
        s.coeffs = coeffs
        return s

    @classmethod
    def one(cls, var: str, order: int, ring: type) -> "Series":
        return cls(var, order, [1], ring)

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def _check_mate(self, other: "Series"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
        if self.ring is not other.ring:
            raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")

    def truncate(self, order: int) -> "Series":
        _check_order(order)
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return Series._raw(self.var, order, self.coeffs[: order + 1], self.ring)

    def __add__(self, other):
        if isinstance(other, Series):
            self._check_mate(other)
            n = min(self.order, other.order)
            out = tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
            return Series._raw(self.var, n, out, self.ring)
        try:
            c = self.ring.coerce(other)
        except TypeError:
            return NotImplemented
        out = (self.coeffs[0] + c,) + self.coeffs[1:]
        return Series._raw(self.var, self.order, out, self.ring)

    __radd__ = __add__

    def __neg__(self):
        return Series._raw(self.var, self.order, tuple(-c for c in self.coeffs), self.ring)

    def __sub__(self, other):
        if not isinstance(other, Series):
            try:
                other = self.ring.coerce(other)
            except TypeError:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else -diff

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_mate(other)
            n = min(self.order, other.order)
            a, b, dot = self.coeffs, other.coeffs, self.ring._dot
            out = tuple(dot(zip(a[: m + 1], b[m::-1])) for m in range(n + 1))
            return Series._raw(self.var, n, out, self.ring)
        try:
            return self.scaled(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def scaled(self, factor) -> "Series":
        """Multiply every coefficient by a fixed ring element.

        Raises TypeError when the factor does not embed into the ring.
        """
        c = self.ring.coerce(factor)
        return Series._raw(self.var, self.order, tuple(c * a for a in self.coeffs), self.ring)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse; needs an invertible constant term."""
        out = _divide((self.ring.one,), self.coeffs, self.order, self.ring)
        return Series._raw(self.var, self.order, out, self.ring)

    def compose(self, inner: "Series") -> "Series":
        """Substitute inner for this series' variable.

        The inner series must have zero constant term, and the outer
        coefficients must embed into the inner ring: an x-ring outer
        needs an x-ring inner.  The result lives in the inner ring and
        variable, at order min of the two.
        """
        if inner.coeffs[0]:
            raise ValueError("inner series must have zero constant term")
        if self.ring is XPoly and inner.ring is not XPoly:
            raise ValueError(
                f"outer ring {self.ring.name} does not embed into {inner.ring.name}"
            )
        ring = inner.ring
        n = min(self.order, inner.order)
        inner_t = inner.truncate(n)
        # cols[idx] collects the pairs (c_k, [v^idx] inner^k) of one dot
        cols = [[] for _ in range(n + 1)]
        pw = Series.one(inner.var, n, ring)
        for k in range(1, n + 1):
            pw = pw * inner_t
            c = ring.coerce(self.coeffs[k])
            for idx in range(k, n + 1):
                cols[idx].append((c, pw.coeffs[idx]))
        out = [ring.coerce(self.coeffs[0])] + [ring._dot(col) for col in cols[1:]]
        return Series._raw(inner.var, n, tuple(out), ring)

    def exp(self) -> "Series":
        """Exponential of a series with zero constant term.

        Comparing coefficients in (e^g)' = g' e^g gives the O(n^2)
        recurrence m a_m = sum_{k=1..m} k g_k a_{m-k}.
        """
        if self.coeffs[0]:
            raise ValueError("exp needs a zero constant term")
        kg = [k * c for k, c in enumerate(self.coeffs)]
        dot = self.ring._dot
        out = [self.ring.one]
        for m in range(1, self.order + 1):
            out.append(dot(zip(kg[1 : m + 1], out[::-1])) / m)
        return Series._raw(self.var, self.order, tuple(out), self.ring)

    def derivative(self) -> "Series":
        """Formal derivative; drops the truncation order by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        out = tuple((i + 1) * self.coeffs[i + 1] for i in range(self.order))
        return Series._raw(self.var, self.order - 1, out, self.ring)

    def diag(self, weight: Callable[[int], object]) -> "Series":
        """Replace coefficient c_k by weight(k) * c_k; the weights must embed into the ring."""
        ring = self.ring
        vals = tuple(ring.coerce(weight(k) * c) if c else ring.zero for k, c in enumerate(self.coeffs))
        return Series._raw(self.var, self.order, vals, ring)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.order, self.ring.name, self.coeffs))

    def __str__(self):
        inside = ", ".join(str(c) for c in self.coeffs)
        return f"Series[{self.var}; {self.ring.name}; O({self.var}^{self.order + 1})]({inside})"

    __repr__ = __str__


def diag_weight(s: Series, m: int) -> Series:
    """Apply the m-fold degenerate derivative diagonal: weight (k)_{m,λ} on c_k.

    This is the coefficient-level action of m passes of the operator
    that differentiates, rescales exponents by 1-λ, and restores the
    power of x; on x^k one pass multiplies by k, then k-λ, and so on.
    m = 0 is the identity.
    """
    _index(m, "operator power")
    return s.diag(lambda k: lambda_falling(k, m))


def first_mismatch(a: Series, b: Series):
    """First index where two series disagree, up to the smaller order.

    Returns None when they agree, else (index, a_coeff, b_coeff).  The
    rings may differ; coefficients are compared by value.
    """
    if a.var != b.var:
        raise ValueError(f"variable mismatch: {a.var!r} vs {b.var!r}")
    n = min(a.order, b.order)
    for k in range(n + 1):
        x, y = a.coeffs[k], b.coeffs[k]
        if x != y:
            return k, x, y
    return None
