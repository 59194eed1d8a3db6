"""Tables and families against oracles that share no code with their construction.

The tables are built by row recurrences; here each row must instead
rebuild the basis polynomial it is defined by, multiplied out from
scratch, and the classical entries must match sympy.
"""

from fractions import Fraction

import pytest

from degenpoly.poly import LAM, X, XP_ONE, XPoly
from degenpoly.families import STIRLING_KINDS, bell_poly, bernoulli_number, stirling


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
