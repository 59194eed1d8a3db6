"""One fresh interpreter's share of a benchmark run.

Started by run.py with PYTHONPATH pointing at the checkout's src.  The
last line on stdout is one JSON object, which carries the child's own
peak RSS; everything the package prints is captured, so that line is
always the last.  Modes:

  import                  time `import degenpoly`
  verify-cold [--fault=ID] `degenpoly verify --all --format json`, in process
  series-deep [--fault=ID] the eight order-bounded checks at order 32
  controls ID...          each check passes honest and fails perturbed
                          at small bounds
  serve N                 import, prefill tables to row N, then answer
                          JSON-encoded `degenpoly` argv lines from stdin
                          until it closes
  row KIND N              cold build of rows 0..N of one table
  ops SEED                isolated poly multiply and series kernels

Any mode takes --trace, which installs layertrace.py's wrappers after the
import and adds the per-layer stats to the result, and --tiny, which
shrinks the bounds for a smoke run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction
from random import Random

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layertrace  # noqa: E402

# bounds at which every registered fault still flips its own check
SMALL = {"n_max": 8, "m_max": 4, "k_max": 8, "d_max": 3, "r_max": 2, "order": 8}
TINY_FLAGS = ["--n-max", "8", "--m-max", "4", "--r-max", "2", "--order", "8"]
DEEP_IDS = ("E50", "GF-bell", "GF-bern", "GF-geom", "GF-phi", "T3", "T4", "T5T6")
DEEP_ORDER = 32


def _quiet_cli(argv):
    from degenpoly import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def verify_cold(fault, tiny):
    argv = ["verify", "--all", "--format", "json"] + (TINY_FLAGS if tiny else [])
    if fault:
        argv.append(f"--negative-control={fault}")
    rc, out, err = _quiet_cli(argv)
    try:
        verdicts = json.loads(out)
    except ValueError:
        return {"rc": rc, "verdicts": [], "error": err[-2000:]}
    return {"rc": rc, "verdicts": [{"id": v["id"], "status": v["status"],
                                    "checked_range": v["checked_range"]} for v in verdicts]}


def series_deep(fault, tiny):
    from degenpoly import identities

    overrides = dict(SMALL) if tiny else {"order": DEEP_ORDER}
    verdicts = [identities.run_check(i, overrides, perturbed=(i == fault)) for i in DEEP_IDS]
    return {"rc": 0, "verdicts": [{"id": v.id, "status": v.status,
                                   "checked_range": v.checked_range} for v in verdicts]}


def controls(ids):
    from degenpoly import identities

    out = []
    for i in ids:
        honest = identities.run_check(i, SMALL).ok
        flipped = not identities.run_check(i, SMALL, perturbed=True).ok
        out.append({"id": i, "honest_pass": honest, "fault_fails": flipped})
    return {"controls": out}


def prefill(n):
    from degenpoly import families as fam

    for kind in fam.STIRLING_KINDS:
        fam.triangular_table(kind, n)
    fam.falling_factorial(n)
    fam.falling_factorial_lambda(n)
    fam.bernoulli_deg(n)
    fam.bernoulli_number(n)


def serve(n, tracer):
    t0 = time.perf_counter()
    prefill(n)
    prefill_s = time.perf_counter() - t0
    emit({"ready": True, "prefill_s": prefill_s})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg == "stats":
            emit({"trace": tracer.stats if tracer else {}})
            continue
        rc, out, err = _quiet_cli(msg)
        emit({"rc": rc, "out": out, "err": err})
    emit({"peak_rss_mb": peak_rss_mb()})


def cold_row(kind, n):
    from degenpoly import families as fam

    t0 = time.perf_counter()
    fam.triangular_table(kind, n)
    return {"row_s": time.perf_counter() - t0}


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def ops(seed, tiny):
    """Median times of the kernels ROADMAP aim 1 lists, on seeded inputs."""
    from degenpoly import (LAMBDA_RING, RATIONAL_RING, XPOLY_RING, LambdaPoly, Series, XPoly,
                           lambda_falling)
    from math import factorial

    rng = Random(seed)

    def rat():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 9))

    def lpoly(d):
        return LambdaPoly([rat() for _ in range(d + 1)])

    order = 8 if tiny else 32
    a, b = lpoly(40), lpoly(40)
    xa = XPoly([lpoly(rng.randint(0, 10)) for _ in range(21)])
    xb = XPoly([lpoly(rng.randint(0, 10)) for _ in range(21)])
    # e^t - 1 and its deformed sibling: the inner series the GF builders use
    e_minus_one = [0] + [Fraction(1, factorial(k)) for k in range(1, order + 1)]
    e_lam_minus_one = [0] + [lambda_falling(1, k) / factorial(k) for k in range(1, order + 1)]
    inner = {
        "rational": Series("t", order, e_minus_one, RATIONAL_RING),
        "lambda": Series("t", order, e_lam_minus_one, LAMBDA_RING),
        "xpoly": Series("t", order, [XPoly.monomial(c, 1) for c in e_lam_minus_one], XPOLY_RING),
    }
    out = {"LambdaPoly_mul_deg40": _median_time(lambda: a * b, 15),
           "XPoly_mul_deg20": _median_time(lambda: xa * xb, 5)}
    for ring, s in inner.items():
        one_minus = Series.one("t", order, s.ring) - s
        outer = Series("u", order, [1] * (order + 1), s.ring)
        reps = 5 if ring == "rational" else 1
        out[f"reciprocal.{ring}"] = _median_time(one_minus.reciprocal, reps)
        out[f"exp.{ring}"] = _median_time(s.exp, reps)
        out[f"compose.{ring}"] = _median_time(lambda o=outer, s=s: o.compose(s), reps)
    return {"ops": out}


def peak_rss_mb():
    """This interpreter's own peak RSS.  ru_maxrss would not do: across the
    spawn it carries over the high-water mark of the parent, which grows
    as the parent keeps responses."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv):
    mode, rest = argv[0], argv[1:]
    tracing = "--trace" in rest
    tiny = "--tiny" in rest
    fault = None
    args = []
    for a in rest:
        if a.startswith("--fault="):
            fault = a.split("=", 1)[1]
        elif a not in ("--trace", "--tiny"):
            args.append(a)

    t0 = time.perf_counter()
    import degenpoly  # noqa: F401

    import_s = time.perf_counter() - t0
    from degenpoly import rational

    tracer = None
    if tracing:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    head = {"import_s": import_s, "backend": getattr(rational, "BACKEND", "unknown")}

    if mode == "import":
        result = {}
    elif mode == "verify-cold":
        result = verify_cold(fault, tiny)
    elif mode == "series-deep":
        result = series_deep(fault, tiny)
    elif mode == "controls":
        result = controls(args)
    elif mode == "serve":
        emit(head)
        serve(int(args[0]), tracer)
        return 0
    elif mode == "row":
        result = cold_row(args[0], int(args[1]))
    elif mode == "ops":
        result = ops(int(args[0]), tiny)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer:
        result["trace"] = tracer.stats
    emit({**head, **result, "peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
