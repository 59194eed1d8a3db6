"""Independent oracles and response parsers for the query-warm workload.

Nothing here imports degenpoly.  Values are sparse polynomials in x and
λ: dicts {(x power, λ power): Fraction} with no zero entries.  The four
tables come from their defining recurrences (ROADMAP direction 3), the
families from their textbook sums over those tables, and the classical
values at λ = 0 are checked once more against sympy.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import comb, factorial

ONE = {(0, 0): Fraction(1)}
X = {(1, 0): Fraction(1)}

TRIANGLES = {"stirling1": "S1", "stirling2": "S2",
             "stirling1_deg": "S1deg", "stirling2_deg": "S2deg"}
SEQUENCES = ("bell_deg", "phi_deg", "bel_second", "geom_deg", "geom_r", "geometric", "bell",
             "bernoulli_deg", "bernoulli_poly", "eulerian", "falling", "falling_lambda")


# ---------------------------------------------------------------------------
# sparse bivariate arithmetic


def add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + sign * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def mul(a, b):
    out = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


def const(c):
    c = Fraction(c)
    return {(0, 0): c} if c else {}


def power(a, n):
    out = ONE
    for _ in range(n):
        out = mul(out, a)
    return out


def evaluate(p, x=None, lam=None):
    """Substitute rational values for x and/or λ (None keeps the variable)."""
    out = {}
    for (i, j), c in p.items():
        key = (0 if x is not None else i, 0 if lam is not None else j)
        val = c * (x ** i if x is not None else 1) * (lam ** j if lam is not None else 1)
        out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v}


def falling_one(m):
    """(1)_{m,λ} = 1 (1 - λ) ... (1 - (m-1)λ)."""
    out = ONE
    for j in range(m):
        out = mul(out, add(ONE, {(0, 1): Fraction(j)}, -1))
    return out


# ---------------------------------------------------------------------------
# tables and families


class Oracle:
    """Tables to row n_max by recurrence, and family values built on them."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.tables = {kind: self._table(kind) for kind in ("S1", "S2", "S1deg", "S2deg")}
        self._beta = None
        self._e_lam = [falling_one(m) for m in range(n_max + 2)]  # m! [t^m] e_λ(t)

    def _table(self, kind):
        rows = [[ONE]]
        for n in range(self.n_max):
            prev = rows[-1] + [{}]
            row = []
            for k in range(n + 2):
                left = prev[k - 1] if k else {}
                if kind == "S2":      # S2(n+1,k) = S2(n,k-1) + k S2(n,k)
                    w = const(k)
                elif kind == "S1":    # S1(n+1,k) = S1(n,k-1) - n S1(n,k)
                    w = const(-n)
                elif kind == "S2deg":  # + (k - nλ) S2deg(n,k)
                    w = add(const(k), {(0, 1): Fraction(n)}, -1)
                else:                 # S1deg: + (kλ - n) S1deg(n,k)
                    w = add({(0, 1): Fraction(k)} if k else {}, const(n), -1)
                row.append(add(left, mul(w, prev[k])))
            rows.append(row)
        return rows

    def entry(self, kind, n, k):
        return self.tables[kind][n][k] if k <= n else {}

    def _weighted(self, kind, n, weight):
        out = {}
        for k in range(n + 1):
            out = add(out, mul(mul(self.entry(kind, n, k), weight(k)), {(k, 0): Fraction(1)}))
        return out

    def bernoulli_deg(self, n):
        # sum_k C(n,k) (1)_{n-k+1,λ}/(n-k+1) β_k = [n = 0]
        if self._beta is None:
            beta = []
            for m in range(self.n_max + 1):
                acc = ONE if m == 0 else {}
                for k in range(m):
                    c = Fraction(comb(m, k), m - k + 1)
                    acc = add(acc, mul(mul(const(c), self._e_lam[m - k + 1]), beta[k]), -1)
                beta.append(acc)
            self._beta = beta
        return self._beta[n]

    def value(self, family, n, r=1, k=None):
        """The unspecialised member: a polynomial, or ("ratio", num, den)."""
        if family in TRIANGLES:
            return self.entry(TRIANGLES[family], n, k)
        if family == "falling":
            return power_product(n, lambda j: add(X, const(j), -1))
        if family == "falling_lambda":
            return power_product(n, lambda j: add(X, {(0, 1): Fraction(j)} if j else {}, -1))
        if family in ("bell_deg", "bel_second"):
            p = self._weighted("S2", n, lambda k: self._e_lam[k])
            if family == "bell_deg":
                return p
            base = add(ONE, {(1, 1): Fraction(1)})  # 1 + λx
            num = {}
            for (i, j), c in p.items():
                num = add(num, mul({(i, j): c}, power(base, n - i)))
            return ("ratio", num, power(base, n))
        if family == "bell":
            return self._weighted("S2", n, lambda k: ONE)
        if family == "phi_deg":
            return self._weighted("S2deg", n, lambda k: ONE)
        if family == "geom_deg":
            return self._weighted("S2deg", n, lambda k: const(factorial(k)))
        if family == "geometric":
            return self._weighted("S2", n, lambda k: const(factorial(k)))
        if family == "geom_r":
            return self._weighted("S2", n, lambda k: const(rising(r, k)))
        if family == "eulerian":
            one_minus_x = {(0, 0): Fraction(1), (1, 0): Fraction(-1)}
            return self._weighted("S2", n, lambda k: mul(const(factorial(k)),
                                                         power(one_minus_x, n - k)))
        if family == "bernoulli_deg":
            return self.bernoulli_deg(n)
        if family == "bernoulli_poly":
            out = {}
            b = self.bernoulli_deg
            for k in range(n + 1):
                out = add(out, mul(const(comb(n, k) * evaluate(b(k), lam=0).get((0, 0), 0)),
                                   {(n - k, 0): Fraction(1)}))
            return out
        raise ValueError(f"no oracle for {family!r}")


def power_product(n, factor):
    out = ONE
    for j in range(n):
        out = mul(out, factor(j))
    return out


def rising(r, k):
    out = 1
    for j in range(k):
        out *= r + j
    return out


def specialise(value, lam, x):
    """What the CLI prints for a member at the requested values.

    Returns a polynomial, ("ratio", num, den), or "pole".
    """
    if isinstance(value, tuple):
        _, num, den = value
        num, den = evaluate(num, x, lam), evaluate(den, x, lam)
        if lam is not None and x is not None:
            d = den.get((0, 0), 0)
            if not d:
                return "pole"
            return const(num.get((0, 0), 0) / d)
        return ("ratio", num, den)
    return evaluate(value, x, lam)


def same(expected, got) -> bool:
    if expected == "pole" or got is None:
        return False
    if isinstance(expected, tuple) or isinstance(got, tuple):
        en, ed = (expected[1], expected[2]) if isinstance(expected, tuple) else (expected, ONE)
        gn, gd = (got[1], got[2]) if isinstance(got, tuple) else (got, ONE)
        return mul(en, gd) == mul(gn, ed)
    return expected == got


# ---------------------------------------------------------------------------
# classical values from sympy, at λ = 0


def sympy_value(family, n, k=None):
    """Classical value from sympy for the families that degenerate to one.

    sympy >= 1.12 returns B_1 = +1/2; this library uses B_1 = -1/2.
    """
    import sympy

    xs = sympy.Symbol("x")
    if family in ("stirling1", "stirling1_deg"):
        return const(int(sympy.functions.combinatorial.numbers.stirling(n, k, kind=1, signed=True)))
    if family in ("stirling2", "stirling2_deg"):
        return const(int(sympy.functions.combinatorial.numbers.stirling(n, k, kind=2)))
    if family in ("bell", "bell_deg", "phi_deg"):
        poly = sympy.Poly(sympy.bell(n, xs), xs) if n else sympy.Poly(1, xs)
    elif family == "bernoulli_deg":
        b = Fraction(-1, 2) if n == 1 else Fraction(str(sympy.bernoulli(n)))
        return const(b)
    elif family == "bernoulli_poly":
        poly = sympy.Poly(sympy.bernoulli(n, xs), xs)
    else:
        return None
    out = {}
    for (e,), c in poly.terms():
        if c:
            out[(e, 0)] = Fraction(int(c.p), int(c.q))
    return out


# ---------------------------------------------------------------------------
# parsing what the CLI prints

_TERM = re.compile(r"^(\d+(?:/\d+)?)?(λ(?:\^(\d+))?)?(x(?:\^(\d+))?)?$")
_XPART = re.compile(r"^x(?:\^(\d+))?$")


def _split_top(s, seps):
    """Split s at separators that sit outside parentheses, keeping the separators."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for sep in seps:
                if s.startswith(sep, i):
                    parts.append(s[start:i])
                    parts.append(sep)
                    i += len(sep)
                    start = i
                    break
            else:
                i += 1
                continue
            continue
        i += 1
    parts.append(s[start:])
    return parts


def parse_poly(s):
    s = s.strip()
    out = {}
    pieces = _split_top(s, (" + ", " - "))
    sign = 1
    for idx, piece in enumerate(pieces):
        if idx % 2:
            sign = 1 if piece == " + " else -1
            continue
        term = piece
        if idx == 0 and term.startswith("-"):
            sign, term = -1, term[1:]
        if term.startswith("("):
            close = _matching(term, 0)
            inner = parse_poly(term[1:close])
            m = _XPART.match(term[close + 1:])
            if not m:
                raise ValueError(f"bad term {piece!r}")
            e = int(m.group(1) or 1)
            val = mul(inner, {(e, 0): Fraction(sign)})
        else:
            m = _TERM.match(term)
            if not m or not term:
                raise ValueError(f"bad term {piece!r}")
            c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            le = (int(m.group(3) or 1)) if m.group(2) else 0
            xe = (int(m.group(5) or 1)) if m.group(4) else 0
            val = {(xe, le): sign * c} if c else {}
        out = add(out, val)
    return out


def _matching(s, i):
    depth = 0
    for j in range(i, len(s)):
        if s[j] == "(":
            depth += 1
        elif s[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    raise ValueError(f"unbalanced {s!r}")


def parse_text(s):
    """A value as the CLI prints it: a polynomial or "(num) / (den)"."""
    s = s.strip()
    parts = _split_top(s, (" / ",))
    if len(parts) == 3:
        num, den = parts[0].strip(), parts[2].strip()
        return ("ratio", parse_poly(num[1:-1]), parse_poly(den[1:-1]))
    return parse_poly(s)


def _brace(s, i):
    """Content of the brace group opening at s[i], and the index after it."""
    depth = 0
    for j in range(i, len(s)):
        if s[j] == "{":
            depth += 1
        elif s[j] == "}":
            depth -= 1
            if depth == 0:
                return s[i + 1:j], j + 1
    raise ValueError(f"unbalanced {s!r}")


def latex_to_text(s):
    out, i = [], 0
    while i < len(s):
        if s.startswith("\\frac", i):
            a, i = _brace(s, i + 5)
            b, i = _brace(s, i)
            a, b = latex_to_text(a), latex_to_text(b)
            out.append(f"{a}/{b}" if a.isdigit() and b.isdigit() else f"({a}) / ({b})")
        else:
            out.append(s[i])
            i += 1
    text = "".join(out).replace("\\lambda", "λ")
    text = re.sub(r"\^\{(\d+)\}", r"^\1", text)
    return re.sub(r"(λ(?:\^\d+)?) x", r"\1x", text)


def parse_json_value(j):
    if isinstance(j, str):
        return const(Fraction(j))
    if isinstance(j, dict):
        return ("ratio", parse_json_value(j["num"]), parse_json_value(j["den"]))
    if all(isinstance(e, str) for e in j):
        return {(0, i): Fraction(c) for i, c in enumerate(j) if Fraction(c)}
    out = {}
    for k, lp in enumerate(j):
        for i, c in enumerate(lp):
            if Fraction(c):
                out[(k, i)] = Fraction(c)
    return out


def parse_response(cmd, fmt, out):
    """Rows of (n, k or None, value) from one `table --n` or `eval` response."""
    if cmd == "eval":
        return [(None, None, parse_text(out))]
    if fmt == "json":
        rows = json.loads(out)["rows"]
        return [(r["n"], r.get("k"), parse_json_value(r["value"])) for r in rows]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        tri = header == ["n", "k", "value"]
        return [(int(r[0]), int(r[1]) if tri else None, parse_text(r[-1])) for r in body]
    lines = out.strip().splitlines()
    if not (lines[0].startswith("\\begin{tabular}") and lines[-1] == "\\end{tabular}"):
        raise ValueError("not a tabular")
    header = [h.strip() for h in lines[1].rstrip("\\ ").split(" & ")]
    tri = header == ["n", "k", "value"]
    rows = []
    for line in lines[3:-1]:
        cells = line[: -len(" \\\\")].split(" & ")
        rows.append((int(cells[0]), int(cells[1]) if tri else None,
                     parse_text(latex_to_text(cells[-1]))))
    return rows
