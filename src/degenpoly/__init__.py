"""Exact arithmetic for deformed special polynomial families.

The package builds the falling-factorial change-of-basis tables and
the Bell, geometric, Bernoulli, and Eulerian style families on top of
an exact truncated-power-series kernel, and ships a registry of
machine-checkable identities relating them.  Everything is computed
over the rationals with a symbolic deformation parameter; there is no
floating point anywhere.
"""

from .rational import Rational
from .poly import (
    LAM,
    X,
    LambdaPoly,
    XPoly,
    lambda_falling,
)
# LAMBDA_RING and XPOLY_RING stay exported for the tests and perfbench/child.py
from .series import (
    LAMBDA_RING,
    XPOLY_RING,
    NonInvertibleError,
    Series,
    diag_weight,
    first_mismatch,
)
from .ratfunc import PoleError, RationalFn, gamma_moment, substitute_mobius
from .families import (
    STIRLING_KINDS,
    bell_deg,
    bell_partial_deg,
    bell_poly,
    bell_second_deg,
    bernoulli_deg,
    bernoulli_number,
    bernoulli_poly,
    eulerian_poly,
    falling_factorial,
    falling_factorial_lambda,
    geometric,
    geometric_deg,
    geometric_r,
    stirling,
    triangular_table,
)
from .identities import (
    REGISTRY,
    IdentityCheck,
    Verdict,
    run_all,
    run_check,
    verdicts_to_json,
)

# read only by the benchmark's ops probe (perfbench/child.py), which still
# builds a "rational" series; the next benchmark change removes it
RATIONAL_RING = LambdaPoly

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "LambdaPoly",
    "XPoly",
    "LAM",
    "X",
    "lambda_falling",
    "Series",
    "LAMBDA_RING",
    "XPOLY_RING",
    "NonInvertibleError",
    "diag_weight",
    "first_mismatch",
    "RationalFn",
    "PoleError",
    "substitute_mobius",
    "gamma_moment",
    "STIRLING_KINDS",
    "stirling",
    "triangular_table",
    "falling_factorial",
    "falling_factorial_lambda",
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
    "Verdict",
    "IdentityCheck",
    "REGISTRY",
    "run_check",
    "run_all",
    "verdicts_to_json",
    "__version__",
]
