"""Command line front end: print tables, evaluate, verify identities.

Exit codes: 0 on success, 1 when an identity check fails, 2 on usage
or input errors (including evaluation at a pole).

Parse-once rule: argv whose first word is a command is parsed once, by
that command's parser, and any argument it leaves goes to the top-level
parser's ``error``, so the usage text and exit code are those of
``parse_args``; the top-level parser reads every other argv (no command,
an unknown one, or an option before the command).  Both are built once
per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys

from .rational import as_rational, is_scalar
from .poly import LambdaPoly, XPoly, _index, _ratio_text
from .ratfunc import PoleError, RationalFn
from .render import value_to_json
from .identities import MAX_BOUND, run_all, verdicts_to_json
from . import families as fam

_SEQUENCE_FAMILIES = {
    "bell_deg": fam.bell_deg,
    "phi_deg": fam.bell_partial_deg,
    "bel_second": fam.bell_second_deg,
    "geom_deg": fam.geometric_deg,
    "geom_r": fam.geometric_r,
    "geometric": fam.geometric,
    "bell": fam.bell_poly,
    "bernoulli_deg": fam.bernoulli_deg,
    "bernoulli_poly": fam.bernoulli_poly,
    "eulerian": fam.eulerian_poly,
    "falling": fam.falling_factorial,
    "falling_lambda": fam.falling_factorial_lambda,
}

_TRIANGLE_FAMILIES = {
    "stirling1": "S1",
    "stirling2": "S2",
    "stirling1_deg": "S1deg",
    "stirling2_deg": "S2deg",
}

_DEFAULT_N_MAX = 32


# a decimal numeral, as Fraction reads it once underscores are removed
_DECIMAL = re.compile(r"\s*[-+]?(\d*)(?:\.(\d*))?(?:e([-+]?\d+))?\s*", re.IGNORECASE)


def _spelled_digits(text: str) -> int:
    # digits of the longer of numerator and denominator that a decimal
    # numeral spells before reduction, counted without building either
    m = _DECIMAL.fullmatch(text.replace("_", ""))
    if m is None:
        return 0
    whole, frac, exp = m.groups(default="")
    shift = int(exp or 0) - len(frac)
    return len((whole + frac).lstrip("0")) + shift if shift >= 0 else 1 - shift


def _rat_or_sym(text: str):
    if text == "sym":
        return None
    try:
        # the int-string limit sees the digits typed, not the 10**exponent
        # that Fraction would build first: apply it to the spelled value
        limit = sys.get_int_max_str_digits()
        if limit and _spelled_digits(text) > limit:
            raise ValueError(text)
        return as_rational(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise argparse.ArgumentTypeError(f"expected a rational p/q or 'sym', got {text!r}")


def _digit_limit_error(options: str = "--x or --lambda") -> ValueError:
    limit = sys.get_int_max_str_digits()
    return ValueError(f"a number in the result exceeds {limit} digits, the int-string limit "
                      f"(sys.get_int_max_str_digits()); {options} is too large")


def _refuse_past_the_limit(value, lam, x):
    # The one given value v of lam and x renders in full a part q of each
    # polynomial p: the x-coefficient of top λ-degree, or the λ^j-coefficient
    # across the powers of x, j the λ-degree of the top x-coefficient.  Of
    # degree d in v's variable, with integer numerators a_i over den: if |v| >= 1
    # and |a_d v| >= 2 sum_{i<d} |a_i|, the lower terms are at most half the top
    # one, so q(v) in lowest terms has a numerator of at least |v|^d / (2 den)
    # > 2^(bits - den bits), and 10^limit < 2^(limit*10//3 + 1).
    limit, v = sys.get_int_max_str_digits(), x if lam is None else lam
    if not limit or v is None:
        return
    num, den, top = abs(v.numerator), v.denominator, limit * 10 // 3
    if num < 2 * den:  # |v| < 2 gains no bit per degree: nothing below refuses
        return
    for p in [value.num, value.den] if isinstance(value, RationalFn) else [XPoly.coerce(value)]:
        d = p.degree if lam is None else p.lambda_degree
        bits = d * (num.bit_length() - 1 - den.bit_length()) - 1
        if bits <= top:
            continue
        q = (LambdaPoly(c.coeff(p.coeffs[-1].degree) for c in p.coeffs) if lam is None
             else max(p.coeffs, key=lambda c: c.degree))
        a = q.num
        if bits - q.den.bit_length() > top and abs(a[-1]) * num >= 2 * sum(map(abs, a[:-1])) * den:
            raise _digit_limit_error()


def _specialise(value, lam, x):
    """Substitute the requested rational values into a family member.

    A substitution of one value is refused first when a number in the
    rendered result provably exceeds the int-string limit.
    """
    if isinstance(value, LambdaPoly):
        if lam is None:
            return value
        _refuse_past_the_limit(value, lam, None)
        return value.eval(lam)
    # every other family member is an XPoly or a RationalFn; both
    # evaluate at rational x and λ in one pass
    if lam is not None and x is not None:
        return value.eval(x, lam)
    _refuse_past_the_limit(value, lam, x)
    if isinstance(value, XPoly):
        if lam is not None:
            return value.eval_lambda(lam)
        return value.eval_x(x) if x is not None else value
    if lam is not None:
        return RationalFn(value.num.eval_lambda(lam), value.den.eval_lambda(lam))
    if x is not None:
        # the (num, den) pair of λ-polynomials left by substituting x
        return value.num.eval_x(x), value.den.eval_x(x)
    return value


def _geom_r_order(args) -> int:
    # the order r of geom_r: --r, or 1 when it is absent
    return 1 if args.r is None else args.r


def _member(args, n: int, k: int | None = None):
    """Row n (column k of a triangle) of args.family, specialised to args.lam and args.x."""
    family = args.family
    if family not in _SEQUENCE_FAMILIES and family not in _TRIANGLE_FAMILIES:
        known = ", ".join(sorted(_SEQUENCE_FAMILIES) + sorted(_TRIANGLE_FAMILIES))
        raise ValueError(f"unknown family {family!r}; known: {known}")
    if args.r is not None and family != "geom_r":
        raise ValueError(f"--r does not apply to {family}: only geom_r has an order")
    if family in _TRIANGLE_FAMILIES:
        if args.x is not None:
            raise ValueError(f"--x does not apply to {family}: its entries do not depend on x")
        if k is None:
            raise ValueError(f"eval of {family} requires --k")
        v = fam.stirling(_TRIANGLE_FAMILIES[family], n, k)
    else:
        if k is not None:
            raise ValueError(f"--k does not apply to {family}: it has one member per n")
        if family == "geom_r":
            # with x symbolic the x^n coefficient r(r+1)...(r+n-1) >= r^n,
            # of at least n (digits(r) - 1) + 1 digits, is printed in full
            r, limit = _geom_r_order(args), sys.get_int_max_str_digits()
            if args.x is None and limit and r > 0 and n * (len(str(r)) - 1) + 1 > limit:
                raise _digit_limit_error("--r")
            v = fam.geometric_r(n, r)
        else:
            v = _SEQUENCE_FAMILIES[family](n)
    return _specialise(v, args.lam, args.x)


def _to_text(v, latex=False) -> str:
    if is_scalar(v):
        return _ratio_text(v.numerator, v.denominator, latex)
    if isinstance(v, tuple):
        num, den = v
        if den == 1:
            return _to_text(num, latex)
        if latex:
            return f"\\frac{{{num.latex()}}}{{{den.latex()}}}"
        return f"({num}) / ({den})"
    return v.latex() if latex else v.text()


def _rendered(args, render, *rest) -> str:
    # str() of an int past the int-string limit is the one ValueError that
    # rendering a computed value raises; name the limit and its causes
    try:
        return render(*rest)
    except ValueError:
        raise _digit_limit_error(("--r, " if args.r is not None else "") + "--x or --lambda") from None


def _to_json_value(v):
    if isinstance(v, tuple):
        num, den = v
        return {"num": value_to_json(num), "den": value_to_json(den)}
    return value_to_json(v)


def _write(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_table(args) -> int:
    family = args.family
    if args.n is not None:
        if args.n_max is not None:
            raise ValueError("--n-max does not apply to a single row: --n prints row n alone")
        ns = [_index(args.n, "n", most=MAX_BOUND)]
    else:
        n_max = args.n_max if args.n_max is not None else _DEFAULT_N_MAX
        ns = list(range(_index(n_max, "n_max", most=MAX_BOUND) + 1))

    rows = []
    for n in ns:
        if family in _TRIANGLE_FAMILIES:
            rows += [{"n": n, "k": k, "value": _member(args, n, k)} for k in range(n + 1)]
        else:
            rows.append({"n": n, "value": _member(args, n)})
    _write(_rendered(args, _table_text, args, rows), args.output)
    return 0


def _table_text(args, rows) -> str:
    family = args.family
    header = list(rows[0])
    if args.format == "json":
        payload = {
            "family": family,
            "lambda": "sym" if args.lam is None else str(args.lam),
            "x": "sym" if args.x is None else str(args.x),
            "rows": [
                {**{k: row[k] for k in header if k != "value"}, "value": _to_json_value(row["value"])}
                for row in rows
            ],
        }
        if family == "geom_r":
            payload["r"] = _geom_r_order(args)
        return json.dumps(payload, indent=2)
    if args.format == "latex":
        lines = ["\\begin{tabular}{" + "r" * (len(header) - 1) + "l}"]
        lines.append(" & ".join(header) + " \\\\")
        lines.append("\\hline")
        for row in rows:
            cells = [str(row[k]) for k in header if k != "value"]
            cells.append(_to_text(row["value"], latex=True))
            lines.append(" & ".join(cells) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        cells = [row[k] for k in header if k != "value"]
        cells.append(_to_text(row["value"]))
        w.writerow(cells)
    return buf.getvalue()


def _cmd_eval(args) -> int:
    _index(args.n, "n", most=MAX_BOUND)
    _write(_rendered(args, _to_text, _member(args, args.n, args.k)), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.all and args.prefix is not None:
        raise ValueError(f"--all does not apply to prefix {args.prefix!r}: give one or the other")
    overrides = {
        "n_max": args.n_max,
        "order": args.order,
        "m_max": args.m_max,
        "r_max": args.r_max,
    }
    verdicts = run_all(args.prefix, overrides, negative_control=args.negative_control)
    json_out = args.format == "json" or args.output not in (None, "-")
    lines_to = sys.stderr if (args.format == "json" and args.output in (None, "-")) else sys.stdout
    for v in verdicts:
        mark = "PASS" if v.ok else "FAIL"
        rng = ", ".join(f"{k}={val}" for k, val in v.checked_range.items())
        print(f"{mark} {v.id:<8} {v.description} [{rng}]", file=lines_to)
        if not v.ok:
            ce = v.counterexample
            print(f"     at {ce['indices']}: {ce['lhs']} != {ce['rhs']}", file=lines_to)
    failed = [v for v in verdicts if not v.ok]
    print(f"{len(verdicts) - len(failed)} passed, {len(failed)} failed", file=lines_to)
    if json_out:
        _write(verdicts_to_json(verdicts), args.output)
    return 1 if failed else 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # the top-level parser and each command's parser by name, built on first
    # use and shared by every later call in the process; parsing keeps no
    # state between calls
    p = argparse.ArgumentParser(
        prog="degenpoly",
        description="Exact tables, evaluations, and identity verification for "
        "deformed special polynomial families.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--family", required=True, help="family name, e.g. bell_deg, stirling2")
        sp.add_argument("--lambda", dest="lam", type=_rat_or_sym, default=None,
                        metavar="P/Q|sym", help="deformation parameter value (default: symbolic)")
        sp.add_argument("--x", type=_rat_or_sym, default=None, metavar="P/Q|sym",
                        help="value for x (default: symbolic)")
        sp.add_argument("--r", type=int, default=None,
                        help="order for geom_r (default 1); no other family takes it")
        sp.add_argument("--output", default=None, metavar="PATH", help="write to file instead of stdout")

    t = sub.add_parser("table", help="print family members for a range of n")
    common(t)
    t.add_argument("--n", type=int, default=None, help="single row n")
    t.add_argument("--n-max", type=int, default=None,
                   help=f"rows 0..n_max (default {_DEFAULT_N_MAX})")
    t.add_argument("--format", choices=("csv", "latex", "json"), default="csv")
    t.set_defaults(fn=_cmd_table)

    e = sub.add_parser("eval", help="evaluate one family member")
    common(e)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, default=None, help="column for triangular tables")
    e.set_defaults(fn=_cmd_eval)

    v = sub.add_parser("verify", help="run the identity checks")
    v.add_argument("prefix", nargs="?", default=None,
                   help="only run checks whose id starts with this prefix")
    v.add_argument("--all", action="store_true", help="run the complete suite")
    v.add_argument("--n-max", type=int, default=None)
    v.add_argument("--order", type=int, default=None)
    v.add_argument("--m-max", type=int, default=None)
    v.add_argument("--r-max", type=int, default=None)
    v.add_argument("--negative-control", nargs="?", const=True, default=False,
                   metavar="ID",
                   help="inject the registered fault into every check, or only "
                   "into the named one (test hook)")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--output", default=None, metavar="PATH", help="write JSON verdicts to a file")
    v.set_defaults(fn=_cmd_verify)

    return p, {"table": t, "eval": e, "verify": v}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        # the parse-once rule (module docstring)
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # NonInvertibleError and PoleError are ZeroDivisionErrors
        pole = "pole: " if isinstance(exc, PoleError) else ""
        print(f"error: {pole}{exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
