"""Tables and families against oracles that share no code with their construction.

The tables are built by row recurrences; here each row must instead
rebuild the basis polynomial it is defined by, multiplied out from
scratch, and the classical entries must match sympy.  The Eulerian
polynomials and the deformed Bernoulli numbers, built from their own
recurrences, are checked against permutation descents, the Möbius image
of the geometric polynomials and the reciprocal generating series.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from degenpoly.poly import LAM, X, XP_ONE, XPoly
from degenpoly.ratfunc import substitute_mobius
from degenpoly.families import (
    STIRLING_KINDS,
    bell_poly,
    bernoulli_deg,
    bernoulli_deg_gf,
    bernoulli_number,
    eulerian_poly,
    geometric,
    stirling,
)


def _falling(step, n):
    # x (x - step) (x - 2 step) ... (x - (n-1) step)
    out = XP_ONE
    for j in range(n):
        out = out * (X - j * step)
    return out


# kind -> (basis the row is a combination of, polynomial it must rebuild)
_BASIS_RELATIONS = {
    "S1": (lambda k: X**k, lambda n: _falling(1, n)),
    "S2": (lambda k: _falling(1, k), lambda n: X**n),
    "S1deg": (lambda k: _falling(LAM, k), lambda n: _falling(1, n)),
    "S2deg": (lambda k: _falling(1, k), lambda n: _falling(LAM, n)),
}


@pytest.mark.parametrize("kind", STIRLING_KINDS)
def test_rows_rebuild_their_basis(kind):
    basis, target = _BASIS_RELATIONS[kind]
    for n in range(13):
        rebuilt = sum((stirling(kind, n, k) * basis(k) for k in range(n + 1)), XPoly())
        assert rebuilt == target(n), (kind, n)


def test_classical_values_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling as sympy_stirling

    for n in range(21):
        for k in range(n + 1):
            assert stirling("S1", n, k) == int(sympy_stirling(n, k, kind=1, signed=True)), (n, k)
            assert stirling("S2", n, k) == int(sympy_stirling(n, k, kind=2)), (n, k)
        assert bell_poly(n).eval(1, 0) == int(sympy.bell(n)), n
        # sympy takes B_1 = +1/2; this library takes B_1 = -1/2
        b = sympy.bernoulli(n)
        want = Fraction(int(b.p), int(b.q))
        assert bernoulli_number(n) == (-want if n == 1 else want), n


def test_eulerian_counts_permutations_by_descents():
    for m in range(8):
        counts = [0] * (m + 1)
        for p in permutations(range(m)):
            descents = sum(p[i] > p[i + 1] for i in range(m - 1))
            # A_0 = 1; for m >= 1, coefficient k counts k - 1 descents
            counts[descents + 1 if m else 0] += 1
        assert eulerian_poly(m) == XPoly(counts), m


def test_eulerian_is_the_mobius_image_of_the_geometric_polynomial():
    # the former definition: (1-x)^m W_m(x/(1-x)), the denominator cleared
    for m in range(31):
        assert eulerian_poly(m) == substitute_mobius(geometric(m), -1).num, m


def test_deformed_bernoulli_matches_its_generating_series():
    s = bernoulli_deg_gf(40)
    for n in range(41):
        assert bernoulli_deg(n) == factorial(n) * s.coeff(n), n
