"""Machine-checkable identity suite over the polynomial families.

Every check states an identity between two (or three) independently
computed exact quantities and reports a Verdict: pass/fail, the bounds
actually checked, and on failure the first offending indices together
with both values.  Checks are registered with a deliberate fault
("negative control") that can be switched on to prove the check can
fail; a healthy suite passes normally and fails in exactly the
targeted way under its control.

A check is a function decorated with ``@_check(id, fault=...)``: its
docstring is the description, its integer keyword defaults are the
bounds a caller may override, and its body returns None on success or
``(indices, lhs, rhs)`` for the first failure it finds.

All comparisons are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Optional

from .rational import RAT_ONE, RAT_ZERO, Rational, as_rational
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
from .series import LAMBDA_RING, XPOLY_RING, Series, diag_weight, first_mismatch
from .ratfunc import RationalFn, gamma_moment, substitute_mobius
from .render import value_to_json
from . import families as fam

__all__ = [
    "MAX_BOUND",
    "Verdict",
    "IdentityCheck",
    "REGISTRY",
    "run_check",
    "run_all",
    "verdict_to_dict",
    "verdicts_to_json",
]


# largest bound a check or a table accepts: the default bounds reach 50,
# and at 100 the slowest check (E04) still finishes in under a minute
MAX_BOUND = 100


@dataclass(frozen=True)
class Verdict:
    """Outcome of one identity check."""

    id: str
    status: str  # "pass" | "fail"
    checked_range: dict
    description: str
    params: dict
    counterexample: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class IdentityCheck:
    """A registered check: its bounds, runner, and negative control."""

    id: str
    description: str
    params: dict
    fn: Callable[..., Verdict]
    perturbation: str


_CHECKS: list[IdentityCheck] = []


def _check_bound(check_id: str, name: str, value) -> None:
    if type(value) is not int or value < 0:
        raise ValueError(f"{check_id}: {name} must be an int >= 0, got {value!r}")
    if value > MAX_BOUND:
        raise ValueError(f"{check_id}: {name} must be at most {MAX_BOUND}, got {value}")


def _check(check_id: str, fault: str, **fixed):
    """Register the decorated check body under check_id.

    Keywords in ``fixed`` are bound into every call; they lead ``params``
    but cannot be overridden.  The returned wrapper validates the bounds
    (each must be an int in 0..MAX_BOUND) and turns the body's result
    into a Verdict.
    """

    def register(body):
        sig = inspect.signature(body)
        bounds = [name for name, p in sig.parameters.items() if type(p.default) is int]
        description = " ".join(body.__doc__.split())

        @functools.wraps(body)
        def run(*args, **kwargs) -> Verdict:
            call = sig.bind(*args, **fixed, **kwargs)
            call.apply_defaults()
            for name in bounds:
                _check_bound(check_id, name, call.arguments[name])
            params = {**fixed, **{name: call.arguments[name] for name in bounds}}
            failure = body(*call.args, **call.kwargs)
            if failure is None:
                return Verdict(check_id, "pass", dict(params), description, params)
            indices, lhs, rhs = failure
            return Verdict(
                check_id,
                "fail",
                dict(params),
                description,
                params,
                {"indices": indices, "lhs": lhs, "rhs": rhs},
            )

        defaults = {**fixed, **{name: sig.parameters[name].default for name in bounds}}
        _CHECKS.append(IdentityCheck(check_id, description, defaults, run, fault))
        return run

    return register


def _s2_transform(g: Series, top: int):
    # the series transformation of g: maps the coefficients fc of
    # f = sum_n fc[n] x^n to sum_n fc[n] sum_k S2(n, k) x^k g^(k), k <= top
    ders = [g]
    for _ in range(top):
        ders.append(ders[-1].derivative())

    def transform(fc) -> Series:
        ring = g.ring
        # w_k = sum_n fc[n] S2(n, k), once per k that fc and top reach
        w = [ring.coerce(sum(fn * fam.stirling("S2", n, k) for n, fn in enumerate(fc[k:], k) if fn))
             for k in range(min(len(fc) - 1, top) + 1)]
        # coefficient j of sum_k w_k x^k g^(k) is one ring dot over k <= j
        out = [ring._dot((w[k], ders[k].coeffs[j - k]) for k in range(min(j, len(w) - 1) + 1))
               for j in range(g.order + 1)]
        return Series(g.var, g.order, out, ring)

    return transform


def _poly_battery(d_max: int):
    # monomials of each degree, then one polynomial mixing all of them
    fs = [((RAT_ZERO,) * d + (RAT_ONE,), f"x^{d}" if d else "1") for d in range(d_max + 1)]
    fs.append((tuple(as_rational(j + 1) for j in range(d_max + 1)), "mixed"))
    return fs


# ---------------------------------------------------------------------------
# individual checks


@_check("T1", fault="inserts an extra factor of y before integrating")
def check_T1(n_max=16, perturbed=False):
    """integrating the partially deformed Bell polynomial of x*y in y against
    the unit exponential weight yields the deformed geometric polynomial"""
    for n in range(n_max + 1):
        p = fam.bell_partial_deg(n)
        # p(x*y) collected by powers of y: the y^k slot holds coeff_k * x^k
        moments = [XPoly.monomial(p.coeff(k), k) for k in range(p.degree + 1)]
        if perturbed:
            moments = [XPoly()] + moments  # sneak in an extra factor of y
        lhs = gamma_moment(moments)
        rhs = fam.geometric_deg(n)
        if lhs != rhs:
            return {"n": n}, lhs, rhs


@_check("L2", fault="puts weight 2 on x^1, doubling the S2(1, 1) term")
def check_L2(n_max=16, perturbed=False):
    """n-fold x d/dx on a series equals the S2-weighted sum of x^k times
    its k-th derivative"""
    g = fam.e_lambda_series(n_max + 5, "x")
    transform = _s2_transform(g, n_max)
    for n in range(n_max + 1):
        lhs = g.diag(lambda k: k**n)
        # f = x^n, with weight 2 under the control at n = 1
        fc = (0,) * n + (2 if perturbed and n == 1 else 1,)
        bad = first_mismatch(lhs, transform(fc))
        if bad is not None:
            return {"n": n, "coeff": bad[0]}, bad[1], bad[2]


@_check("T3", fault="samples the polynomial at k+1 instead of k")
def check_T3(d_max=4, r_max=3, order=16, perturbed=False):
    """sampling a polynomial along the coefficient index of a base series
    equals its S2-weighted derivative expansion"""
    bases = [
        ("e_lambda", fam.e_lambda_series(order, "x")),
        ("geometric", fam.geom_series(order)),
    ]
    bases += [(f"binomial_{r}", fam.binom_series(r, order)) for r in range(2, r_max + 1)]
    battery = [(XPoly(fc), fc, f_label) for fc, f_label in _poly_battery(d_max)]
    # x^k g^(k) vanishes below x^(order+1) once k > order
    top = min(d_max, order)
    for g_label, g in bases:
        transform = _s2_transform(g, top)
        for f, fc, f_label in battery:
            shift = 1 if perturbed else 0
            lhs = g.diag(lambda k: f.eval(k + shift, 0))
            bad = first_mismatch(lhs, transform(fc))
            if bad is not None:
                return {"g": g_label, "f": f_label, "coeff": bad[0]}, bad[1], bad[2]


@_check("T4", fault="adds k to the sampled value at index k")
def check_T4(d_max=6, order=16, perturbed=False):
    """deformed exponential sums sampled by a polynomial equal the deformed
    exponential times the matching second-kind deformed Bell combination"""
    e = fam.e_lambda_series(order, "x")
    for fc, f_label in _poly_battery(d_max):
        f = XPoly(fc)
        lhs = e.diag(lambda k: f.eval(k, 0) + (k if perturbed else 0))
        combo = Series("x", order, [], LAMBDA_RING)
        for n, fn in enumerate(fc):
            if fn:
                combo = combo + fam.bell_second_deg(n).expand(order).scaled(fn)
        rhs = e * combo
        bad = first_mismatch(lhs, rhs)
        if bad is not None:
            return {"f": f_label, "coeff": bad[0]}, bad[1], bad[2]


@_check("T5T6", fault="expands x/(1+λx) with the wrong sign pattern")
def check_T5_T6(n_max=12, order=16, perturbed=False):
    """the second-kind deformed Bell polynomial equals the first kind under
    x -> x/(1+λx), and the inverse substitution recovers the first kind"""
    sign = 1 if perturbed else -1
    # series expansion of x/(1+λx): alternating geometric in λx
    inner = Series(
        "x",
        order,
        [LP_ZERO] + [LambdaPoly.monomial(sign**(k - 1), k - 1) for k in range(1, order + 1)],
        LAMBDA_RING,
    )
    # inner has no constant term, so u^k with k > order cannot reach x^order;
    # its powers are built once and composed coefficient j is one λ-dot
    # over k <= j of [u^k] bell_deg(n) times [x^j] inner^k
    powers = [Series.one("x", order, LAMBDA_RING)]
    for _ in range(min(n_max, order)):
        powers.append(powers[-1] * inner)
    for n in range(n_max + 1):
        rf = fam.bell_second_deg(n)
        closed = rf.expand(order)
        outer = fam.bell_deg(n).coeffs[: order + 1]
        composed = Series("x", order, [
            LAMBDA_RING._dot((c, powers[k].coeffs[j]) for k, c in enumerate(outer[: j + 1]))
            for j in range(order + 1)
        ], LAMBDA_RING)
        bad = first_mismatch(closed, composed)
        if bad is not None:
            return {"n": n, "coeff": bad[0]}, bad[1], bad[2]
        back = rf.substituted(-LAM)
        first = RationalFn(fam.bell_deg(n))
        if back != first:
            return {"n": n, "leg": "inverse"}, back, first


# the denominator of the x/(1-x) substitution
_ONE_MINUS_X = XP_ONE - X


def _s1_lambda_weight(m: int, l: int) -> LambdaPoly:
    # S1(m, l) λ^{m-l}: the weight converting power sums to falling products
    return fam.stirling("S1", m, l) * LambdaPoly.monomial(1, m - l)


def _s1_mobius_numerator(m: int, poly_of, bump_l0=False) -> XPoly:
    # sum over l of weight(m,l) times poly_of(l)(x/(1-x)) cleared to the
    # common denominator (1-x)^m.  The substitution is linear and the sum
    # has degree exactly m (weight 1 on poly_of(m), of degree m), so it is
    # one x-ring dot followed by one substitution.
    weights = [_s1_lambda_weight(m, l) for l in range(m + 1)]
    if bump_l0:
        weights[0] = weights[0] + 1
    total = XPOLY_RING._dot((XPoly.coerce(w), poly_of(l)) for l, w in enumerate(weights) if w)
    return substitute_mobius(total, -1).num


@_check("T7", fault="adds 1 to the S1(m, 0) weight")
def check_T7(m_max=10, k_max=16, perturbed=False):
    """running sums of deformed falling products match the S1-weighted
    geometric closed form with denominator (1-x)^(m+2)"""
    for m in range(m_max + 1):
        num = _s1_mobius_numerator(m, fam.geometric, bump_l0=perturbed)
        s = RationalFn(num, _ONE_MINUS_X ** (m + 2)).expand(k_max)
        acc = LP_ZERO
        for k in range(k_max + 1):
            acc = acc + lambda_falling(k, m)
            if s.coeff(k) != acc:
                return {"m": m, "k": k}, s.coeff(k), acc


@_check("T8", fault="uses 2^n instead of 2^(n+1) on the half-scale term")
def check_T8(n_max=30, perturbed=False):
    """the deformed geometric polynomial at x = -1/2 equals
    2/(n+1) times (beta_{n+1} at λ minus 2^{n+1} beta_{n+1} at λ/2)"""
    half = Rational(-1, 2)
    for n in range(n_max + 1):
        lhs = fam.geometric_deg(n).eval_x(half)
        b = fam.bernoulli_deg(n + 1)
        b_half = b.scale_lambda(Rational(1, 2))
        power = 2 ** (n + (0 if perturbed else 1))
        rhs = (b - power * b_half) * Rational(2, n + 1)
        if lhs != rhs:
            return {"n": n}, lhs, rhs


@_check("E04", fault="adds 1 to the deformed first-kind entry (2, 1)")
def check_E04(n_max=40, perturbed=False):
    """the change-of-basis tables are mutually inverse: classical pairs in
    both composition orders, deformed pair in one, plus reconstruction
    of both falling-factorial bases"""
    s1, s2, s1d, s2d = (fam.triangular_table(k, n_max) for k in ("S1", "S2", "S1deg", "S2deg"))
    for n in range(min(n_max, 12) + 1):
        for basis, table, by, want in (
            ("deformed", s2d, fam.falling_factorial, fam.falling_factorial_lambda(n)),
            ("classical", s1d, fam.falling_factorial_lambda, fam.falling_factorial(n)),
        ):
            rebuilt = XPOLY_RING._dot((XPoly.coerce(e), by(k)) for k, e in enumerate(table[n]))
            if rebuilt != want:
                return {"n": n, "basis": basis}, rebuilt, want
    for n in range(n_max + 1):
        row = s1d[n]
        if perturbed and n == 2:
            row = (row[0], row[1] + 1, *row[2:])
        for m in range(n + 1):
            want = RAT_ONE if n == m else RAT_ZERO
            for a, b in ((s1, s2), (s2, s1)):
                got = LAMBDA_RING._dot((a[n][k], b[k][m]) for k in range(m, n + 1)).constant_value()
                if got != want:
                    return {"n": n, "m": m, "pair": "classical"}, got, want
            val = LAMBDA_RING._dot((row[k], s2d[k][m]) for k in range(m, n + 1))
            if val != want:
                return {"n": n, "m": m, "pair": "deformed"}, val, LambdaPoly.const(want)


@_check("E40", fault="divides the Bernoulli closed form by m+2 instead of m+1")
def check_E40(m_max=10, k_max=50, perturbed=False):
    """power sums 0^m + ... + k^m: the direct sum, the Bernoulli-polynomial
    closed form, and the λ=0 geometric route all agree"""
    for m in range(m_max + 1):
        num = substitute_mobius(fam.geometric(m), -1).num
        s = RationalFn(num, _ONE_MINUS_X ** (m + 2)).expand(k_max)
        bp = fam.bernoulli_poly(m + 1)
        b0 = bp.eval(0, 0)
        div = m + 1 + (1 if perturbed else 0)
        acc = RAT_ZERO
        for k in range(k_max + 1):
            acc = acc + Rational(k) ** m
            via_bernoulli = (bp.eval(k + 1, 0) - b0) / div
            if via_bernoulli != acc:
                return {"m": m, "k": k, "route": "bernoulli"}, via_bernoulli, acc
            if s.coeff(k) != acc:
                return {"m": m, "k": k, "route": "geometric"}, s.coeff(k), acc


@_check("E44", fault="expands over (1-x)^m instead of (1-x)^(m+1)")
def check_eulerian(m_max=10, k_max=20, perturbed=False):
    """Eulerian numerators: coefficients are λ-free, sum to m!, and
    regenerate the k^m coefficient stream over (1-x)^(m+1)"""
    for m in range(m_max + 1):
        a = fam.eulerian_poly(m)
        if a.lambda_degree > 0:
            return {"m": m, "leg": "lambda-free"}, a, XPoly()
        total = RAT_ZERO
        for k in range(a.degree + 1):
            total += a.coeff(k).constant_value()
        if total != factorial(m):
            return {"m": m, "leg": "coefficient-sum"}, total, as_rational(factorial(m))
        dpow = m + 1 - (1 if perturbed else 0)
        s = RationalFn(a, _ONE_MINUS_X**dpow).expand(k_max)
        for k in range(k_max + 1):
            want = as_rational(k**m)
            if s.coeff(k) != want:
                return {"m": m, "k": k}, s.coeff(k), want


@_check("E50", fault="uses binomial C(r+k, k) weights instead of C(r+k-1, k)")
def check_E50(m_max=8, r_max=4, order=16, perturbed=False):
    """rising-binomial coefficients weighted by deformed falling products
    match the S1-weighted higher-order geometric closed form"""
    for r in range(1, r_max + 1):
        shift = 0 if perturbed else 1
        bs = Series("x", order, [comb(r + k - shift, k) for k in range(order + 1)], LAMBDA_RING)
        for m in range(m_max + 1):
            lhs = diag_weight(bs, m)
            num = _s1_mobius_numerator(m, lambda l: fam.geometric_r(l, r))
            rhs = RationalFn(num, _ONE_MINUS_X ** (m + r)).expand(order)
            bad = first_mismatch(lhs, rhs)
            if bad is not None:
                return {"r": r, "m": m, "coeff": bad[0]}, bad[1], bad[2]


@_check("E57", fault="divides the Bernoulli combination by n+2 instead of n+1")
def check_E57(n_max=16, perturbed=False):
    """series coefficients of 1/(deformed exponential + 1) match both the
    deformed Bernoulli combination and half the geometric value at -1/2"""
    rec = (fam.e_lambda_series(n_max, "t") + 1).reciprocal()
    for n in range(n_max + 1):
        lhs = factorial(n) * rec.coeff(n)
        b = fam.bernoulli_deg(n + 1)
        b_half = b.scale_lambda(Rational(1, 2))
        div = n + 1 + (1 if perturbed else 0)
        via_beta = (b - 2 ** (n + 1) * b_half) / div
        if lhs != via_beta:
            return {"n": n, "route": "bernoulli"}, lhs, via_beta
        via_geom = fam.geometric_deg(n).eval_x(Rational(-1, 2)) / 2
        if lhs != via_geom:
            return {"n": n, "route": "geometric"}, lhs, via_geom


@_check("R9", fault="drops the factor 1/2 on the geometric route")
def check_R9(n_max=16, perturbed=False):
    """alternating sums of deformed falling products, defined as the exact
    rational-function value at x = -1: geometric and Eulerian routes agree"""
    mhalf = Rational(-1, 2)
    for n in range(n_max + 1):
        weights = [_s1_lambda_weight(n, l) for l in range(n + 1)]
        via_geom = LAMBDA_RING._dot(
            (w, fam.geometric(l).eval_x(mhalf)) for l, w in enumerate(weights) if w
        )
        via_euler = LAMBDA_RING._dot(
            (w, fam.eulerian_poly(l).eval_x(-1) * Rational(1, 2 ** (l + 1)))
            for l, w in enumerate(weights)
            if w
        )
        if not perturbed:
            via_geom = via_geom / 2
        if via_geom != via_euler:
            return {"n": n}, via_geom, via_euler


@_check("DEG", fault="degenerates at λ = 1 instead of λ = 0")
def check_degeneration(n_max=20, perturbed=False):
    """every deformed family collapses to its classical counterpart at λ = 0,
    and classical Bell values match the additive-triangle recurrence"""
    at = 1 if perturbed else 0  # the control degenerates at the wrong point
    for n in range(n_max + 1):
        legs = [
            ("bell_deg", fam.bell_deg(n).eval_lambda(at), fam.bell_poly(n)),
            ("phi_deg", fam.bell_partial_deg(n).eval_lambda(at), fam.bell_poly(n)),
            ("geom_deg", fam.geometric_deg(n).eval_lambda(at), fam.geometric(n)),
            ("falling_lambda", fam.falling_factorial_lambda(n).eval_lambda(at),
             XPoly.monomial(1, n)),
            (
                "bernoulli_deg",
                LambdaPoly.const(fam.bernoulli_deg(n).eval(at)),
                LambdaPoly.const(fam.bernoulli_number(n)),
            ),
        ]
        for name, got, want in legs:
            if got != want:
                return {"family": name, "n": n}, got, want
        for k in range(n + 1):
            s1 = fam.stirling("S1deg", n, k).eval(at)
            s2 = fam.stirling("S2deg", n, k).eval(at)
            if s1 != fam.stirling("S1", n, k).constant_value():
                return {"family": "stirling1_deg", "n": n, "k": k}, s1, fam.stirling("S1", n, k)
            if s2 != fam.stirling("S2", n, k).constant_value():
                return {"family": "stirling2_deg", "n": n, "k": k}, s2, fam.stirling("S2", n, k)
    # Bell numbers from the additive triangle, no tables involved
    row = [1]
    for n in range(min(n_max, 15) + 1):
        got = fam.bell_poly(n).eval(1, 0)
        if got != row[0]:
            return {"family": "bell-numbers", "n": n}, got, as_rational(row[0])
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt


_GF_BUILDERS = {
    "bell_deg": (fam.bell_deg_gf, fam.bell_deg),
    "phi_deg": (fam.bell_partial_deg_gf, fam.bell_partial_deg),
    "geom_deg": (fam.geometric_deg_gf, fam.geometric_deg),
    "bernoulli_deg": (fam.bernoulli_deg_gf, fam.bernoulli_deg),
}


def _gf_consistency(family, order=16, perturbed=False):
    """coefficients of the defining series regenerate the constructed family"""
    build, construct = _GF_BUILDERS[family]
    s = build(order)
    for n in range(order + 1):
        w = factorial(n + 1) if perturbed else factorial(n)
        got = w * s.coeff(n)
        want = construct(n)
        if got != want:
            return {"n": n}, got, want
    if family == "bernoulli_deg":
        # the series must also solve its defining equation: product with
        # (deformed exponential - 1)/t is exactly 1
        shifted = Series(
            "t",
            order,
            [lambda_falling(1, m + 1) / factorial(m + 1) for m in range(order + 1)],
            LAMBDA_RING,
        )
        prod = s * shifted
        for n in range(order + 1):
            want = LP_ONE if n == 0 else LP_ZERO
            if prod.coeff(n) != want:
                return {"n": n, "leg": "defining-equation"}, prod.coeff(n), want


_GF_FAULT = "reads coefficient n with weight (n+1)! instead of n!"
_check("GF-bell", _GF_FAULT, family="bell_deg")(_gf_consistency)
_check("GF-phi", _GF_FAULT, family="phi_deg")(_gf_consistency)
_check("GF-geom", _GF_FAULT, family="geom_deg")(_gf_consistency)
_check("GF-bern", _GF_FAULT, family="bernoulli_deg")(_gf_consistency)


# ---------------------------------------------------------------------------
# registry

REGISTRY: tuple[IdentityCheck, ...] = tuple(sorted(_CHECKS, key=lambda c: c.id))

_BY_ID = {c.id: c for c in REGISTRY}


def _bounds(entry: IdentityCheck, overrides: dict | None) -> dict:
    # the overrides that reach entry's integer bounds, each checked in
    # the order the check's own wrapper checks them
    out = {}
    for name, default in entry.params.items():
        value = (overrides or {}).get(name)
        if value is not None and isinstance(default, int):
            _check_bound(entry.id, name, value)
            out[name] = value
    return out


def run_check(check_id: str, overrides: dict | None = None, perturbed=False) -> Verdict:
    """Run one registered check, optionally overriding its default bounds.

    Only the integer bounds can be overridden; other keys and None values
    in ``overrides`` are ignored.
    """
    try:
        entry = _BY_ID[check_id]
    except KeyError:
        known = ", ".join(sorted(_BY_ID))
        raise ValueError(f"unknown check {check_id!r}; known: {known}") from None
    return entry.fn(**_bounds(entry, overrides), perturbed=perturbed)


def run_all(prefix: str | None = None, overrides: dict | None = None, negative_control=False):
    """Run every check (or those whose id starts with prefix), in id order.

    negative_control may be True (inject every registered fault) or the
    id of one selected check (inject only that one, leaving the rest
    honest).
    Every override is checked against every selected check's bounds
    before any check runs.
    """
    entries = [c for c in REGISTRY if prefix is None or c.id.startswith(prefix)]
    if not entries:
        known = ", ".join(c.id for c in REGISTRY)
        raise ValueError(f"no check id starts with {prefix!r}; known: {known}")
    if isinstance(negative_control, str) and negative_control not in _BY_ID:
        known = ", ".join(sorted(_BY_ID))
        raise ValueError(f"unknown check {negative_control!r}; known: {known}")
    if isinstance(negative_control, str) and _BY_ID[negative_control] not in entries:
        raise ValueError(f"negative control {negative_control!r} is not a selected check")
    for c in entries:
        _bounds(c, overrides)
    return [
        run_check(c.id, overrides, negative_control is True or negative_control == c.id)
        for c in entries
    ]


def verdict_to_dict(v: Verdict) -> dict:
    out = {
        "id": v.id,
        "status": v.status,
        "checked_range": dict(v.checked_range),
        "description": v.description,
        "params": dict(v.params),
    }
    if v.counterexample is not None:
        ce = v.counterexample
        out["counterexample"] = {
            "indices": dict(ce["indices"]),
            "lhs": value_to_json(ce["lhs"]),
            "rhs": value_to_json(ce["rhs"]),
        }
    return out


def verdicts_to_json(verdicts) -> str:
    return json.dumps([verdict_to_dict(v) for v in verdicts], indent=2)
