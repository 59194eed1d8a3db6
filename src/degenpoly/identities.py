"""Machine-checkable identity suite over the polynomial families.

Every check states an identity between two (or three) independently
computed exact quantities and reports a Verdict: pass/fail, the bounds
actually checked, and on failure the first offending indices together
with both values.  Checks are registered with a deliberate fault
("negative control") that can be switched on to prove the check can
fail; a healthy suite passes normally and fails in exactly the
targeted way under its control.

A check is a generator function decorated with ``@_check(id, fault=...)``:
its docstring is the description, its integer keyword defaults are the
bounds a caller may override, and its body yields ``(indices, lhs, rhs)``
for each comparison it makes.  The decorator does all the comparing: a
``Series`` pair by ``first_mismatch``, with the first differing
coefficient added to the indices as ``"coeff"``, any other pair by
``==``.  The first pair that differs is the counterexample, and no
operand after it is computed; a body that runs out has passed.

All comparisons are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple
from itertools import count, islice, zip_longest
from math import comb, factorial

from .rational import RAT_ONE, RAT_ZERO, Rational, as_rational
from .poly import (
    LAM,
    LP_ONE,
    LP_ZERO,
    LambdaPoly,
    XPoly,
    _index,
    _strip,
)
from .series import Series, first_mismatch
from .ratfunc import RationalFn, _binomial_power, gamma_moment, substitute_mobius
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


# largest bound a check or a table accepts: the default bounds reach 50.
# At 100 (order 64 where a check takes one) the slowest checks are L2 at
# about 8.0 s and T5T6 at 3.5 s, and E04 takes 0.14 s; all 18 take about
# 18 s in one process (medians of 5 runs, Python 3.11 on a 2-vCPU x86-64 host)
MAX_BOUND = 100


class Verdict(namedtuple("Verdict", "id status checked_range description params counterexample",
                          defaults=(None,))):
    """Outcome of one identity check; status is "pass" or "fail"."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class IdentityCheck(namedtuple("IdentityCheck", "id description params fn perturbation")):
    """A registered check: its bounds, runner, and negative control."""

    __slots__ = ()


_CHECKS: list[IdentityCheck] = []


# CO_GENERATOR: set in the flags of a generator function's code object;
# read there so that importing the package does not load inspect
_CO_GENERATOR = 0x20


def _check(check_id: str, fault: str, **fixed):
    """Register the decorated check body under check_id.

    Keywords in ``fixed`` are bound into every call; they lead ``params``
    but cannot be overridden.  The returned wrapper takes keyword
    arguments only (the body's parameters that have defaults), validates
    the bounds (each must be an int in 0..MAX_BOUND) and compares the
    ``(indices, lhs, rhs)`` triples the body yields until one differs: a
    ``Series`` pair by ``first_mismatch``, adding ``"coeff"`` to the
    indices, any other pair by ``==``.  A body that is not a generator
    function is refused with TypeError: a triple it returned would be
    misread as a stream of comparisons.
    """

    def register(body):
        if not body.__code__.co_flags & _CO_GENERATOR:
            raise TypeError(f"{check_id}: a check body must be a generator function "
                            "that yields (indices, lhs, rhs)")
        # the parameters with defaults are the last co_argcount names the
        # body's code lists, in order
        code, values = body.__code__, body.__defaults__
        names = code.co_varnames[code.co_argcount - len(values) : code.co_argcount]
        defaults = {name: v for name, v in zip(names, values) if name not in fixed}
        bounds = [name for name, value in defaults.items() if type(value) is int]
        description = " ".join(body.__doc__.split())

        @functools.wraps(body)
        def run(**kwargs) -> Verdict:
            unknown = kwargs.keys() - defaults.keys()
            if unknown:
                raise TypeError(f"{check_id} takes no argument {', '.join(sorted(unknown))}")
            call = {**defaults, **kwargs}
            for name in bounds:
                _index(call[name], f"{check_id}: {name}", most=MAX_BOUND)
            params = {**fixed, **{name: call[name] for name in bounds}}
            for indices, lhs, rhs in body(**fixed, **call):
                if isinstance(lhs, Series):
                    bad = first_mismatch(lhs, rhs)
                    if bad is None:
                        continue
                    indices, lhs, rhs = {**indices, "coeff": bad[0]}, bad[1], bad[2]
                elif lhs == rhs:
                    continue
                counterexample = {"indices": indices, "lhs": lhs, "rhs": rhs}
                return Verdict(check_id, "fail", dict(params), description, params, counterexample)
            return Verdict(check_id, "pass", dict(params), description, params)

        params = {**fixed, **{name: defaults[name] for name in bounds}}
        _CHECKS.append(IdentityCheck(check_id, description, params, run, fault))
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
        yield {"n": n}, gamma_moment(moments), fam.geometric_deg(n)


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
        yield {"n": n}, lhs, transform(fc)


@_check("T3", fault="samples the polynomial at k+1 instead of k")
def check_T3(d_max=4, r_max=3, order=16, perturbed=False):
    """sampling a polynomial along the coefficient index of a base series
    equals its S2-weighted derivative expansion"""
    bases = [
        ("e_lambda", fam.e_lambda_series(order, "x")),
        ("geometric", fam.binom_series(1, order)),
    ]
    bases += [(f"binomial_{r}", fam.binom_series(r, order)) for r in range(2, r_max + 1)]
    shift = 1 if perturbed else 0
    # each polynomial's samples f(k + shift), k <= order, once for all bases
    battery = [([XPoly(fc).eval(k + shift, 0) for k in range(order + 1)], fc, f_label)
               for fc, f_label in _poly_battery(d_max)]
    # x^k g^(k) vanishes below x^(order+1) once k > order
    top = min(d_max, order)
    for g_label, g in bases:
        transform = _s2_transform(g, top)
        for samples, fc, f_label in battery:
            yield {"g": g_label, "f": f_label}, g.diag(samples.__getitem__), transform(fc)


def _t4_right_sides(e: Series, mix_fc) -> list:
    # T4's right sides: for x^n, n < len(mix_fc), e times the second-kind
    # Bell polynomial N/D of degree n, built once, then for the mix
    # sum_n mix_fc[n] x^n the same combination of those.  Each is expanded
    # once as (e·N)/D: e·N is exact up to x^order and expand reads no
    # further, so it is the series e * (N/D).expand(order) without a λ-ring
    # series product (GF-bern's defining-equation leg still takes one)
    e_poly, order = XPoly(e.coeffs), e.order
    rows, mix = [], Series(e.var, order, [], LambdaPoly)
    for n, c in enumerate(mix_fc):
        rf = fam.bell_second_deg(n)
        rows.append(RationalFn(e_poly * rf.num, rf.den).expand(order))
        mix = mix + rows[-1].scaled(c)
    return rows + [mix]


@_check("T4", fault="adds k to the sampled value at index k")
def check_T4(d_max=6, order=16, perturbed=False):
    """deformed exponential sums sampled by a polynomial equal the deformed
    exponential times the matching second-kind deformed Bell combination"""
    e = fam.e_lambda_series(order, "x")
    # the battery is x^0..x^d_max and then one mix of them
    battery = _poly_battery(d_max)
    for (fc, f_label), rhs in zip(battery, _t4_right_sides(e, battery[-1][0])):
        f = XPoly(fc)
        yield {"f": f_label}, e.diag(lambda k: f.eval(k, 0) + (k if perturbed else 0)), rhs


def _inner_power_rows(order: int, sign: int) -> list:
    # row j-1 holds [x^j](x/(1 - sign·λx))^k = C(j-1, k-1)(sign·λ)^(j-k) for
    # k = 1..j, j = 1..order: the powers of T5T6's inner series in closed form
    return [[LambdaPoly.monomial(comb(j - 1, k - 1) * sign**(j - k), j - k) for k in range(1, j + 1)]
            for j in range(1, order + 1)]


@_check("T5T6", fault="expands x/(1+λx) with the wrong sign pattern")
def check_T5_T6(n_max=12, order=16, perturbed=False):
    """the second-kind deformed Bell polynomial equals the first kind under
    x -> x/(1+λx), and the inverse substitution recovers the first kind"""
    # composed coefficient j >= 1 is one λ-dot of row j with [u^k] bell_deg(n);
    # the monomial goes left, since the kernel loops over its left factor's terms
    rows = _inner_power_rows(order, 1 if perturbed else -1)
    for n in range(n_max + 1):
        rf = fam.bell_second_deg(n)
        bell = fam.bell_deg(n)
        composed = Series("x", order, [bell.coeff(0)] + [
            LambdaPoly._dot(zip(row, bell.coeffs[1:])) for row in rows
        ], LambdaPoly)
        yield {"n": n}, rf.expand(order), composed
        yield {"n": n, "leg": "inverse"}, rf.substituted(-LAM), RationalFn(bell)


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
    total = XPoly._dot((XPoly.coerce(w), poly_of(l)) for l, w in enumerate(weights) if w)
    return substitute_mobius(total, -1).num


def _falling_rows(top: int):
    # for m = 0, 1, ...: the deformed falling products (k)_{m,λ}, k <= top,
    # each row the one before times k - (m-1)λ, one product per entry
    row = [LP_ONE] * (top + 1)
    for m in count():
        yield row
        row = [w * LambdaPoly._new([k, -m]) for k, w in enumerate(row)]


@_check("T7", fault="adds 1 to the S1(m, 0) weight")
def check_T7(m_max=10, k_max=16, perturbed=False):
    """running sums of deformed falling products match the S1-weighted
    geometric closed form with denominator (1-x)^(m+2)"""
    for m, falling in zip(range(m_max + 1), _falling_rows(k_max)):
        num = _s1_mobius_numerator(m, fam.geometric, bump_l0=perturbed)
        s = RationalFn(num, _binomial_power(-LP_ONE, m + 2)).expand(k_max)
        acc = LP_ZERO
        for k in range(k_max + 1):
            acc = acc + falling[k]
            yield {"m": m, "k": k}, s.coeff(k), acc


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
        yield {"n": n}, lhs, (b - power * b_half) * Rational(2, n + 1)


def _read(table, step):
    # a table with its step data and its first row off the recurrence
    # entry(n, k) = entry(n-1, k-1) + (a + bλ) entry(n-1, k), where
    # a = an (n-1) + ak k and b = bn (n-1) + bk k for the step data
    # (an, ak, bn, bk): the first row that the recurrence does not give from
    # the row before, row 0 standing against (1), or len(table) when it
    # gives every row.  Row 0 is (1) and the data are ints, so every row
    # the recurrence gives is integral: the rows are compared on their
    # integer numerators, and an entry with a denominator is off.  This
    # restates families._build_row's evaluation of the data on purpose,
    # not by calling a shared helper: with an evaluator that dropped bk in
    # both places, S1deg's rows are S1's and every row is given, and
    # _first_miss passes S1deg·S2deg = I
    an, ak, bn, bk = step
    if table[0][0] != LP_ONE:
        return table, step, 0
    for n in range(1, len(table)):
        prev = [e.num for e in table[n - 1]]
        for k, e, s, c in zip(count(), table[n], [(), *prev], [*prev, ()]):
            a, b = an * (n - 1) + ak * k, bn * (n - 1) + bk * k
            terms = zip_longest(s, c, (0, *c), fillvalue=0)
            if e.den != 1 or _strip([p + a * x + b * y for p, x, y in terms]) != e.num:
                return table, step, n
    return table, step, len(table)


def _first_miss(a, b, c, before):
    # the first (n, m) before ``before`` in row-major order at which the
    # product P[n][m] = sum_k a[n][k] b[k][m] differs from the target
    # c[n][m], or None; a, b and c as _read returns them.  In a row below
    # the first that any of the three leaves its recurrence, each table
    # reads A[n][k] = A[n-1][k-1] + wA(n-1, k) A[n-1][k]; putting a's and
    # b's into the sum gives
    #   P[n][m] = P[n-1][m-1] + W_m P[n-1][m]
    #           + sum_{j=m+1..n-1} (W_j - W_m) A[n-1][j] B[j][m]
    # with W_j = wA(n-1, j) + wB(j, m).  The weights being linear,
    # W_j - W_m = (j - m) d for the slope d = (ak_A + an_B) + (bk_A + bn_B)λ.
    # When d is 0 and row n-1 of P is c's, less c's own recurrence,
    # P[n][m] - C[n][m] is the gap (W_m - wC(n-1, m)) C[n-1][m], where
    # W_m - wC(n-1, m) = g0 (n-1) + g1 m + (g2 (n-1) + g3 m)λ; row 0 is
    # (1) in all three.  So those rows take no λ-product, and the rows from
    # the first off (from row 0 when d is not 0) take each entry as its
    # own λ-dot.  On E04's products d is 0, and so is the gap wherever
    # C[n-1][m] is nonzero: g is 0 for S2·S1 and S2deg·S1, and m - n + 1
    # for S1·S2 and S1deg·S2deg, 0 on the identity's m = n - 1
    (a, sa, fa), (b, sb, fb), (c, sc, fc) = a, b, c
    g = (sa[0] - sc[0], sa[1] + sb[0] + sb[1] - sc[1], sa[2] - sc[2], sa[3] + sb[2] + sb[3] - sc[3])
    proved = 0 if sa[1] + sb[0] or sa[3] + sb[2] else min(fa, fb, fc)
    stop = before or (len(a), 0)
    for n in range(min(stop[0] + 1, len(a))):
        for m in range(n + 1 if n < stop[0] else stop[1]):
            if n < proved:
                miss = m < n and (g[0] * (n - 1) + g[1] * m or g[2] * (n - 1) + g[3] * m) and c[n - 1][m]
            else:
                miss = LambdaPoly._dot((a[n][k], b[k][m]) for k in range(m, n + 1)) != c[n][m]
            if miss:
                return n, m
    return None


@_check("E04", fault="adds 1 to the deformed first-kind entry (2, 1)")
def check_E04(n_max=40, perturbed=False):
    """the change-of-basis tables are mutually inverse: classical pairs in
    both composition orders, deformed pair in one, plus reconstruction
    of both falling-factorial bases"""
    tables = {k: fam.triangular_table(k, n_max) for k in fam.STIRLING_KINDS}
    if perturbed and n_max >= 2:
        s1d = tables["S1deg"]
        tables["S1deg"] = (*s1d[:2], (s1d[2][0], s1d[2][1] + 1, *s1d[2][2:]), *s1d[3:])
    # the targets: the identity I, and T(n, k) = [x^k] (x)_{n,λ}, whose step
    # weight is -nλ since (x)_{n+1,λ} = (x)_{n,λ} (x - nλ)
    tables["I"] = tuple((LP_ZERO,) * n + (LP_ONE,) for n in range(n_max + 1))
    tables["T"] = tuple(tuple(map(fam.falling_factorial_lambda(n).coeff, range(n + 1)))
                        for n in range(n_max + 1))
    steps = {**fam._STEP, "I": (0, 0, 0, 0), "T": (0, 0, -1, 0)}
    read = {k: _read(t, steps[k]) for k, t in tables.items()}
    # the first (n, m) where a product misses its target, an earlier product
    # ahead of a later one at the same (n, m); its entry is then recomputed
    # as the λ-dot for the counterexample.  S2deg·S1 = T rebuilds the
    # deformed basis from the classical one.  The classical basis from the
    # deformed one, S1deg·T = S1, is not a product of its own: it is
    # S1deg·S2deg·S1, so it holds once S1deg·S2deg = I and S2deg·S1 = T do
    found = None
    legs = ((("pair", "classical"), "S1", "S2", "I"), (("pair", "classical"), "S2", "S1", "I"),
            (("pair", "deformed"), "S1deg", "S2deg", "I"), (("basis", "deformed"), "S2deg", "S1", "T"))
    for leg, ka, kb, kc in legs:
        at = _first_miss(read[ka], read[kb], read[kc], found and found[0])
        if at is not None:
            found = at, leg, tables[ka], tables[kb], tables[kc]
    if found is None:
        return
    (n, m), (key, kind), a, b, c = found
    val, want = LambdaPoly._dot((a[n][k], b[k][m]) for k in range(m, n + 1)), c[n][m]
    if kind == "classical" and val.is_constant and want.is_constant:
        val, want = val.constant_value(), want.constant_value()
    yield {"n": n, "m": m, key: kind}, val, want


@_check("E40", fault="divides the Bernoulli closed form by m+2 instead of m+1")
def check_E40(m_max=10, k_max=50, perturbed=False):
    """power sums 0^m + ... + k^m: the direct sum, the Bernoulli-polynomial
    closed form, and the λ=0 geometric route all agree"""
    for m in range(m_max + 1):
        num = substitute_mobius(fam.geometric(m), -1).num
        s = RationalFn(num, _binomial_power(-LP_ONE, m + 2)).expand(k_max)
        bp = fam.bernoulli_poly(m + 1)
        b0 = bp.eval(0, 0)
        div = m + 1 + (1 if perturbed else 0)
        acc = RAT_ZERO
        for k in range(k_max + 1):
            acc = acc + Rational(k) ** m
            yield {"m": m, "k": k, "route": "bernoulli"}, (bp.eval(k + 1, 0) - b0) / div, acc
            yield {"m": m, "k": k, "route": "geometric"}, s.coeff(k), acc


@_check("E44", fault="expands over (1-x)^m instead of (1-x)^(m+1)")
def check_eulerian(m_max=10, k_max=20, perturbed=False):
    """Eulerian numerators: coefficients are λ-free, sum to m!, and
    regenerate the k^m coefficient stream over (1-x)^(m+1)"""
    for m in range(m_max + 1):
        a = fam.eulerian_poly(m)
        yield {"m": m, "leg": "lambda-free"}, a, a.eval_lambda(0)
        total = sum((a.coeff(k).constant_value() for k in range(a.degree + 1)), RAT_ZERO)
        yield {"m": m, "leg": "coefficient-sum"}, total, as_rational(factorial(m))
        dpow = m + 1 - (1 if perturbed else 0)
        s = RationalFn(a, _binomial_power(-LP_ONE, dpow)).expand(k_max)
        for k in range(k_max + 1):
            yield {"m": m, "k": k}, s.coeff(k), as_rational(k**m)


@_check("E50", fault="uses binomial C(r+k, k) weights instead of C(r+k-1, k)")
def check_E50(m_max=8, r_max=4, order=16, perturbed=False):
    """rising-binomial coefficients weighted by deformed falling products
    match the S1-weighted higher-order geometric closed form"""
    shift = 0 if perturbed else 1
    # the rows of weights (k)_{m,λ} serve every r, so they are built once;
    # r runs outside, so the first failure is the least (r, m)
    falling = [row for _, row in zip(range(m_max + 1), _falling_rows(order))]
    for r in range(1, r_max + 1):
        binom = Series("x", order, [comb(r + k - shift, k) for k in range(order + 1)], LambdaPoly)
        geometric = [fam.geometric_r(l, r) for l in range(m_max + 1)]
        for m, weights in enumerate(falling):
            num = _s1_mobius_numerator(m, geometric.__getitem__)
            rhs = RationalFn(num, _binomial_power(-LP_ONE, m + r)).expand(order)
            yield {"r": r, "m": m}, binom.diag(weights.__getitem__), rhs


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
        yield {"n": n, "route": "bernoulli"}, lhs, (b - 2 ** (n + 1) * b_half) / div
        yield {"n": n, "route": "geometric"}, lhs, fam.geometric_deg(n).eval_x(Rational(-1, 2)) / 2


@_check("R9", fault="drops the factor 1/2 on the geometric route")
def check_R9(n_max=16, perturbed=False):
    """alternating sums of deformed falling products, defined as the exact
    rational-function value at x = -1: geometric and Eulerian routes agree"""
    mhalf = Rational(-1, 2)
    for n in range(n_max + 1):
        weights = [_s1_lambda_weight(n, l) for l in range(n + 1)]
        via_geom = LambdaPoly._dot(
            (w, fam.geometric(l).eval_x(mhalf)) for l, w in enumerate(weights) if w
        )
        via_euler = LambdaPoly._dot(
            (w, fam.eulerian_poly(l).eval_x(-1) * Rational(1, 2 ** (l + 1)))
            for l, w in enumerate(weights)
            if w
        )
        yield {"n": n}, via_geom if perturbed else via_geom / 2, via_euler


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
            ("bernoulli_deg", LambdaPoly.const(fam.bernoulli_deg(n).eval(at)),
             LambdaPoly.const(fam.bernoulli_number(n))),
        ]
        for name, got, want in legs:
            yield {"family": name, "n": n}, got, want
        for k in range(n + 1):
            for kind in ("1", "2"):
                yield ({"family": f"stirling{kind}_deg", "n": n, "k": k},
                       fam.stirling(f"S{kind}deg", n, k).eval(at), fam.stirling(f"S{kind}", n, k))
    # Bell numbers from the additive triangle, no tables involved
    row = [1]
    for n in range(n_max + 1):
        yield {"family": "bell-numbers", "n": n}, fam.bell_poly(n).eval(1, 0), as_rational(row[0])
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
        yield {"n": n}, w * s.coeff(n), construct(n)
    if family == "bernoulli_deg":
        # the series must also solve its defining equation: product with
        # (deformed exponential - 1)/t is exactly 1; the falling products
        # (1)_{m,λ}, m = 1..order+1, are column 1 of _falling_rows, which
        # shares no code with families' _unit_falling memo
        units = islice(_falling_rows(1), 1, order + 2)
        shifted = [row[1] / factorial(m) for m, row in enumerate(units, 1)]
        prod = s * Series("t", order, shifted, LambdaPoly)
        for n in range(order + 1):
            yield {"n": n, "leg": "defining-equation"}, prod.coeff(n), LP_ONE if n == 0 else LP_ZERO


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
            out[name] = _index(value, f"{entry.id}: {name}", most=MAX_BOUND)
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

    negative_control may be False, True (inject every registered fault)
    or the id of one selected check (inject only that one, leaving the
    rest honest); any other value raises TypeError.
    Every override is checked against every selected check's bounds
    before any check runs, and one that is not None but is a bound of no
    selected check raises ValueError.
    """
    if not isinstance(negative_control, (bool, str)):
        raise TypeError(f"negative_control must be a bool or a check id, got {negative_control!r}")
    entries = [c for c in REGISTRY if prefix is None or c.id.startswith(prefix)]
    if not entries:
        known = ", ".join(c.id for c in REGISTRY)
        raise ValueError(f"no check id starts with {prefix!r}; known: {known}")
    if isinstance(negative_control, str) and negative_control not in _BY_ID:
        known = ", ".join(sorted(_BY_ID))
        raise ValueError(f"unknown check {negative_control!r}; known: {known}")
    if isinstance(negative_control, str) and _BY_ID[negative_control] not in entries:
        raise ValueError(f"negative control {negative_control!r} is not a selected check")
    for name, value in (overrides or {}).items():
        if value is not None and not any(isinstance(c.params.get(name), int) for c in entries):
            raise ValueError(f"{name} does not apply to {', '.join(c.id for c in entries)}")
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
