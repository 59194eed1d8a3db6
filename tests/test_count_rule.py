"""The count rule: every index, order, degree and bound is an int from its least.

Each entry below takes a count; a bool, a float or a value below the least
is refused with ValueError("<what> must be an int >= <least>, got <value>").
"""

import re

import pytest

from degenpoly import families as fam
from degenpoly.cli import _build_parser
from degenpoly.identities import check_L2, run_check
from degenpoly.poly import LAM, X, LambdaPoly, XPoly, lambda_falling
from degenpoly.series import LAMBDA_RING, Series, diag_weight


def _cli(*argv, option):
    # a table/eval row bound, set past argparse's int conversion
    def run(value):
        args = _build_parser().parse_args(list(argv))
        setattr(args, option, value)
        return args.fn(args)

    return run


# entry -> (call with the count, its least)
ENTRIES = {
    "LambdaPoly.__pow__": (lambda v: LAM**v, 0),
    "XPoly.__pow__": (lambda v: X**v, 0),
    "LambdaPoly.monomial": (lambda v: LambdaPoly.monomial(1, v), 0),
    "XPoly.monomial": (lambda v: XPoly.monomial(1, v), 0),
    "lambda_falling": (lambda v: lambda_falling(1, v), 0),
    "Series": (lambda v: Series("t", v, [], LAMBDA_RING), 0),
    "Series.truncate": (lambda v: Series("t", 3, [], LAMBDA_RING).truncate(v), 0),
    "diag_weight": (lambda v: diag_weight(Series("x", 2, [], LAMBDA_RING), v), 0),
    "sequence-reader": (fam.bell_deg, 0),
    "stirling-n": (lambda v: fam.stirling("S2", v, 0), 0),
    "stirling-k": (lambda v: fam.stirling("S2", 3, v), 0),
    "triangular_table": (lambda v: fam.triangular_table("S2", v), 0),
    "bernoulli_poly": (fam.bernoulli_poly, 0),
    "geometric_r": (lambda v: fam.geometric_r(2, v), 1),
    "binom_series-r": (lambda v: fam.binom_series(v, 2), 1),
    "binom_series-order": (lambda v: fam.binom_series(2, v), 0),
    "check-wrapper": (lambda v: check_L2(n_max=v), 0),
    "run_check-bounds": (lambda v: run_check("T8", {"n_max": v}), 0),
    "table-n": (_cli("table", "--family", "bell", "--n", "0", option="n"), 0),
    "table-n_max": (_cli("table", "--family", "bell", "--n-max", "0", option="n_max"), 0),
    "eval-n": (_cli("eval", "--family", "bell", "--n", "0", option="n"), 0),
}

CASES = [(name, bad) for name, (_, least) in ENTRIES.items()
         for bad in (True, 2.0, -1) + ((0,) if least else ())]


@pytest.mark.parametrize("name, bad", CASES, ids=[f"{n}-{b!r}" for n, b in CASES])
def test_every_count_refuses_a_bool_a_float_and_a_value_below_its_least(name, bad):
    call, least = ENTRIES[name]
    with pytest.raises(ValueError, match=rf" must be an int >= {least}, got {re.escape(repr(bad))}$"):
        call(bad)
