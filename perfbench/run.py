"""The degenpoly benchmark: one command per workload, outputs checked.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is treated as a black box
under PYTHONPATH=src: every measurement happens in a child interpreter
(perfbench/child.py), started one at a time, timed here with
perf_counter.  Workloads:

  verify-cold  a fresh interpreter runs `degenpoly verify --all`, the full
               18-check registry at default bounds
  series-deep  a fresh interpreter runs the eight checks that take an
               order bound, at order 32
  query-warm   episodes until the deadline: in each, one interpreter with
               tables prefilled in set-up answers 1056 seeded `table --n`
               and `eval` requests from one closed-loop client, half of
               them repeats by construction

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics from layertrace.py plus the
isolated kernel probes.  Lines before it record the environment.  Exit
status is nonzero, with no result line, when the package is missing, a
set-up step fails or the run outlasts RUN_LIMIT.  NOTES.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")

sys.path.insert(0, str(HERE))
import layertrace  # noqa: E402
import oracle  # noqa: E402
from child import DEEP_IDS, DEEP_ORDER  # noqa: E402

WORKLOADS = ("verify-cold", "series-deep", "query-warm")
ALL_IDS = ("DEG", "E04", "E40", "E44", "E50", "E57", "GF-bell", "GF-bern", "GF-geom",
           "GF-phi", "L2", "R9", "T1", "T3", "T4", "T5T6", "T7", "T8")
CHECKS = {"verify-cold": ALL_IDS, "series-deep": DEEP_IDS}

# layers the traced run must see called, per workload
LAYERS = {
    "verify-cold": ("poly", "series", "ratfunc", "families", "identities", "cli", "rational"),
    "series-deep": ("poly", "series", "ratfunc", "families", "identities", "rational"),
    "query-warm": ("poly", "ratfunc", "families", "render", "cli", "rational"),
}

PREFILL_N = 32
IMPORT_SAMPLES = 8  # cold: fresh-interpreter imports before the first child and after each
SAMPLE = 120  # distinct query-warm responses checked against the oracles
TRACE_REQUESTS = 300  # requests served by each query-warm trace pass
CHILD_TIMEOUT = 60.0  # a cold child is killed after this
RUN_LIMIT = 160  # seconds; a run that is not done by then stops without a result
ROW_PROBE_N = 40

RINGS = ("rational", "lambda", "xpoly")
# series ops reported per ring: the pairings some workload calls (the
# probes time every pairing in isolation)
SERIES_RINGS = {
    "Series.__mul__": ("lambda", "xpoly"),
    "Series.reciprocal": RINGS,
    "Series.compose": ("lambda", "xpoly"),
    "Series.exp": ("xpoly",),
}

LAMBDAS = ("sym", "0", "1", "1/2", "-1/3")
XS = ("sym", "1", "-1", "2/3", "-1/2", "3")
FORMATS = ("csv", "json", "latex")


class SetupError(Exception):
    """The run cannot produce its metrics; it prints no result and exits nonzero."""


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# ---------------------------------------------------------------------------
# children


def _last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_child(args, timeout=CHILD_TIMEOUT):
    """Run child.py to exit; return (wall seconds, result or None, output)."""
    t0 = perf_counter()
    try:
        p = subprocess.run([sys.executable, CHILD, *args], env=child_env(), cwd=ROOT,
                           stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        out = (exc.output or b"").decode(errors="replace")
        return perf_counter() - t0, None, f"{out}\nkilled after {timeout} s"
    wall = perf_counter() - t0
    text = p.stdout.decode(errors="replace")
    return wall, (_last_json(text) if p.returncode == 0 else None), text


class Server:
    """A query-warm child: prefilled tables, one request in flight at a time."""

    def __init__(self, n, tracing=False):
        args = [CHILD, "serve", str(n)] + (["--trace"] if tracing else [])
        self.p = subprocess.Popen([sys.executable, *args], env=child_env(), cwd=ROOT,
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT)
        head = self.read()
        ready = self.read()
        if not head or not ready or "import_s" not in head or not ready.get("ready"):
            self.close()
            raise SetupError("query server did not start (is src/degenpoly importable?)")
        self.backend = head["backend"]
        self.setup_s = head["import_s"] + ready["prefill_s"]

    def read(self):
        return _last_json(self.p.stdout.readline().decode(errors="replace"))

    def ask(self, msg):
        self.p.stdin.write((json.dumps(msg) + "\n").encode())
        self.p.stdin.flush()
        return self.read()

    def close(self):
        """Stop the child and wait for it; return the peak RSS in MB it reports."""
        self.p.stdin.close()
        try:
            self.p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        last = _last_json(self.p.stdout.read().decode(errors="replace")) or {}
        self.p.stdout.close()
        return last.get("peak_rss_mb")


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """The p99, or the highest percentile that leaves at least 10 samples above it.

    With fewer than 11 samples no percentile qualifies, and the maximum
    is reported.  Returns (value, percentile used).
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    idx = min(math.ceil(0.99 * n) - 1, n - 11)
    return xs[idx], 100.0 * (idx + 1) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# cold workloads


def setup_imports(repeats, times):
    """Append the in-child import times of fresh interpreters to times; return the backend."""
    for _ in range(repeats):
        _, res, text = run_child(["import"])
        if not res or "import_s" not in res:
            raise SetupError(f"a fresh interpreter cannot import degenpoly:\n{text[-2000:]}")
        times.append(res["import_s"])
    return res["backend"]


def cold_ok(workload, res, tiny):
    """Every verdict of the workload's checks passes, at the intended bounds."""
    if not res or res.get("rc") != 0:
        return False
    verdicts = res.get("verdicts", [])
    if tuple(v["id"] for v in verdicts) != CHECKS[workload]:
        return False
    if any(v["status"] != "pass" for v in verdicts):
        return False
    if workload == "series-deep" and not tiny:
        return all(v["checked_range"].get("order") == DEEP_ORDER for v in verdicts)
    return True


def cold_args(workload, opts, fault=None, tracing=False):
    args = [workload]
    if opts.tiny:
        args.append("--tiny")
    if fault:
        args.append(f"--fault={fault}")
    if tracing:
        args.append("--trace")
    return args


def run_controls(workload, seed):
    """Each check's registered fault must flip its own verdict at small bounds."""
    ids = list(CHECKS[workload])
    random.Random(seed).shuffle(ids)
    _, res, text = run_child(["controls", *ids])
    if not res:
        return len(ids), len(ids)
    bad = [c["id"] for c in res["controls"] if not (c["honest_pass"] and c["fault_fails"])]
    if bad:
        print(f"negative controls failed: {bad}", file=sys.stderr)
    return len(ids), len(bad)


def cold_run(workload, opts, info):
    setup_imports(1, [])  # warm-up: the first interpreter may write bytecode caches
    imports = []
    info["backend"] = setup_imports(IMPORT_SAMPLES, imports)
    walls, rss, attempted, failed = [], [], 0, 0
    if opts.fault:  # an untimed child with the fault injected, which must fail the gate
        _, res, _ = run_child(cold_args(workload, opts, opts.fault))
        attempted += 1
        failed += not cold_ok(workload, res, opts.tiny)
    start = perf_counter()
    # stop where the next child would end nearer the deadline than the last did
    while perf_counter() - start < opts.seconds - (statistics.median(walls) / 2 if walls else 0):
        wall, res, text = run_child(cold_args(workload, opts))
        # import samples spread over the run, so that no one burst of host
        # speed sets setup_s
        setup_imports(IMPORT_SAMPLES, imports)
        attempted += 1
        if cold_ok(workload, res, opts.tiny):
            walls.append(wall)
            rss.append(res["peak_rss_mb"])
        else:
            failed += 1
            print(f"{workload}: wrong or missing verdicts\n{text[-2000:]}", file=sys.stderr)
    n, bad = run_controls(workload, opts.seed)
    attempted += n
    failed += bad
    if not walls:
        raise SetupError(f"{workload}: no cold run produced its verdicts")
    p99, pct = tail(walls)
    info.update(samples=len(walls), tail_percentile=pct, import_samples=len(imports))
    metrics = {
        "verify_s": metric(statistics.median(walls), "s"),
        "req_p50_ms": metric(1000 * statistics.median(walls), "ms"),
        "req_p99_ms": metric(1000 * p99, "ms"),
        "req_per_s": metric(len(walls) / sum(walls), "1/s"),
        "setup_s": metric(statistics.median(imports), "s"),
        "peak_rss_mb": metric(max(rss), "MB"),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# query-warm


def _catalogue(rng, n_max):
    """For each family, one request per row 0..n_max.

    Each option cycles through a seeded order of its values as n grows,
    so every run of consecutive rows, the costly top rows included, sees
    each value about equally often whatever the seed.
    """
    per_family = {}
    for family in list(oracle.TRIANGLES) + list(oracle.SEQUENCES):
        m = n_max + 1

        def balanced(options):
            order = list(options)
            rng.shuffle(order)
            return [order[n % len(order)] for n in range(m)]

        cmds, lams, xs, fmts, rs = (balanced(o) for o in
                                    (("table", "eval"), LAMBDAS, XS, FORMATS, (1, 2, 3)))
        entries = []
        for i, n in enumerate(range(m)):
            argv = [cmds[i], "--family", family, "--n", str(n), f"--lambda={lams[i]}"]
            req = {"family": family, "n": n, "cmd": cmds[i], "lam": lams[i], "x": "sym",
                   "fmt": None, "k": None, "r": 1}
            if family in oracle.TRIANGLES:
                if cmds[i] == "eval":
                    req["k"] = rng.randint(0, n)
                    argv += ["--k", str(req["k"])]
            else:
                req["x"] = xs[i]
                argv.append(f"--x={xs[i]}")
                if family == "geom_r":
                    req["r"] = rs[i]
                    argv += ["--r", str(rs[i])]
            if cmds[i] == "table":
                req["fmt"] = fmts[i]
                argv += ["--format", fmts[i]]
            req["argv"] = argv
            req["key"] = " ".join(argv)
            entries.append(req)
        rng.shuffle(entries)
        per_family[family] = entries
    return per_family


def _pass(rng, per_family, n_max):
    """Every catalogue entry once, in blocks of 16 that hold each family once."""
    queues = {f: rng.sample(entries, len(entries)) for f, entries in per_family.items()}
    families, out = list(per_family), []
    for _ in range(n_max + 1):
        rng.shuffle(families)
        out += [queues[f].pop() for f in families]
    return out


def episode_requests(seed, n_max, episode):
    """The requests one server answers: a fresh seeded catalogue served
    twice, each pass in its own order.  Half of them repeat an earlier
    request word for word, by construction and whatever the speed."""
    rng = random.Random(f"{seed}:{episode}")
    per_family = _catalogue(rng, n_max)
    return _pass(rng, per_family, n_max) + _pass(rng, per_family, n_max)


def _rat(text):
    return None if text == "sym" else Fraction(text)


def expect_pole(req):
    lam, x = _rat(req["lam"]), _rat(req["x"])
    return (req["family"] == "bel_second" and req["n"] >= 1 and lam is not None
            and x is not None and 1 + lam * x == 0)


def response_ok(req, resp):
    """Exit status and stream shape, for every response."""
    if resp is None:
        return False
    if expect_pole(req):
        return resp["rc"] == 2 and "pole" in resp["err"]
    return resp["rc"] == 0 and bool(resp["out"].strip())


def oracle_ok(req, resp, orc):
    """The response's value(s) against the recurrence oracle, and sympy at λ = 0."""
    if expect_pole(req):
        return True
    lam, x = _rat(req["lam"]), _rat(req["x"])
    try:
        rows = oracle.parse_response(req["cmd"], req["fmt"], resp["out"])
    except (ValueError, KeyError, IndexError) as exc:
        print(f"unparsable response to {req['key']}: {exc}", file=sys.stderr)
        return False
    triangle = req["family"] in oracle.TRIANGLES
    if req["cmd"] == "eval":
        ks = [req["k"]]
    else:
        ks = list(range(req["n"] + 1)) if triangle else [None]
        if [(r[0], r[1]) for r in rows] != [(req["n"], k) for k in ks]:
            return False
    for k, (_, _, got) in zip(ks, rows):
        want = oracle.specialise(orc.value(req["family"], req["n"], req["r"], k), lam, x)
        if not oracle.same(want, got):
            print(f"oracle mismatch for {req['key']} (k={k})", file=sys.stderr)
            return False
        classical = oracle.sympy_value(req["family"], req["n"], k) if lam == 0 else None
        if classical is not None:
            classical = oracle.evaluate(classical, x=None if triangle else x)
            if not oracle.same(classical, got):
                print(f"sympy mismatch for {req['key']} (k={k})", file=sys.stderr)
                return False
    return True


def serve(server, requests):
    """Closed loop: send the next request when the last reply is in."""
    served, lat = [], []
    for req in requests:
        t0 = perf_counter()
        resp = server.ask(req["argv"])
        lat.append(perf_counter() - t0)
        served.append((req, resp))
        if resp is None:
            break
    return served, lat


def check_served(served, seed, n_max, sample):
    """Count wrong responses: bad exit status, a repeat that differs from the
    first answer, or a sampled answer the oracles reject."""
    distinct, bad_keys = {}, set()
    for req, resp in served:
        _, first = distinct.setdefault(req["key"], (req, resp))
        if not response_ok(req, resp) or resp != first:
            bad_keys.add(req["key"])
    keys = sorted(k for k in distinct if k not in bad_keys)
    rng = random.Random(seed)
    chosen = set(rng.sample(keys, min(sample, len(keys))))
    chosen |= {k for k in keys if expect_pole(distinct[k][0])}
    orc = oracle.Oracle(n_max)
    for key in sorted(chosen):
        req, resp = distinct[key]
        if not oracle_ok(req, resp, orc):
            bad_keys.add(key)
    failed = sum(1 for req, _ in served if req["key"] in bad_keys)
    return failed, len(chosen)


def warm_sizes(opts):
    return (8, 20) if opts.tiny else (PREFILL_N, SAMPLE)


def query_run(opts, info):
    """Episodes until the deadline: start a server, serve one episode, stop it."""
    n_max, sample = warm_sizes(opts)
    size = 16 * (n_max + 1)  # one pass
    Server(n_max).close()  # warm-up: the first interpreter may write bytecode caches
    setups, walls, rss, served, lat, passes, fresh = [], [], [], [], [], ([], []), 0
    start = perf_counter()
    # stop where the next episode would end nearer the deadline than the last did
    while perf_counter() - start < opts.seconds - (statistics.median(walls) / 2 if walls else 0):
        t0 = perf_counter()
        server = Server(n_max)
        try:
            got, times = serve(server, episode_requests(opts.seed, n_max, len(walls)))
        finally:
            rss.append(server.close())
        walls.append(perf_counter() - t0)
        if len(times) < 2 * size:
            raise SetupError(f"query-warm: a server stopped after {len(times)} requests")
        setups.append(server.setup_s)
        served += got
        lat += times
        fresh += len({req["key"] for req, _ in got})
        passes[0].append(sum(times[:size]))
        passes[1].append(sum(times[size:]))
    info["backend"] = server.backend
    failed, checked = check_served(served, opts.seed, n_max, sample)
    p99, pct = tail(lat)
    info.update(samples=len(lat), tail_percentile=pct, episodes=len(walls), checked=checked,
                repeat_share=1 - fresh / len(served),
                first_pass_s=statistics.median(passes[0]),
                repeat_pass_s=statistics.median(passes[1]))
    metrics = {
        "verify_s": metric(statistics.median(a + b for a, b in zip(*passes)), "s"),
        "req_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "req_p99_ms": metric(1000 * p99, "ms"),
        "req_per_s": metric(len(lat) / sum(lat), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max(rss), "MB"),
        "ok_ratio": metric((len(served) - failed) / len(served), "ratio"),
    }
    return len(served), failed, metrics


# ---------------------------------------------------------------------------
# traced pass


def per_layer_names():
    """Every per-layer metric, in BENCHMARK.json order."""
    names = []
    for mod, path, split in layertrace.TARGETS:
        if split == "check_id":
            continue
        rings = SERIES_RINGS.get(path, ())
        stems = [f"{mod}.{path}.{r}" for r in rings] if split else [f"{mod}.{path}"]
        for stem in stems:
            names += [f"{stem}.calls", f"{stem}.self_s"]
    names += [f"identities.{i}.s" for i in ALL_IDS]
    names += [f"probe.row.{kind}.s" for kind in ("S1", "S2", "S1deg", "S2deg")]
    names += ["probe.LambdaPoly_mul_deg40.s", "probe.XPoly_mul_deg20.s"]
    names += [f"probe.{op}.{r}.s" for op in ("reciprocal", "exp", "compose") for r in RINGS]
    names.append("trace_overhead_ratio")
    return names


def layer_metrics(stats):
    out = {}
    for name in per_layer_names():
        if name.startswith(("probe.", "trace_")):
            continue
        if name.startswith("identities."):
            s = stats.get(f"identities.run_check.{name.split('.')[1]}", [0, 0.0, 0.0])
            out[name] = metric(s[2], "s")
            continue
        stem, field = name.rsplit(".", 1)
        s = stats.get(stem, [0, 0.0, 0.0])
        out[name] = metric(s[0], "count") if field == "calls" else metric(s[1], "s")
    return out


def missing_layers(workload, stats):
    missing = [layer for layer in LAYERS[workload]
               if not any(k.startswith(layer + ".") and v[0] for k, v in stats.items())]
    for check in CHECKS.get(workload, ()):
        if not stats.get(f"identities.run_check.{check}", [0])[0]:
            missing.append(f"identities.{check}")
    return missing


def probes(opts):
    out = {}
    n = 8 if opts.tiny else ROW_PROBE_N
    for kind in ("S1", "S2", "S1deg", "S2deg"):
        _, res, text = run_child(["row", kind, str(n)])
        if not res:
            raise SetupError(f"row probe {kind} failed:\n{text[-2000:]}")
        out[f"probe.row.{kind}.s"] = metric(res["row_s"], "s")
    _, res, text = run_child(["ops", str(opts.seed)] + (["--tiny"] if opts.tiny else []))
    if not res:
        raise SetupError(f"kernel probes failed:\n{text[-2000:]}")
    for name, sec in res["ops"].items():
        out[f"probe.{name}.s"] = metric(sec, "s")
    return out


def _trace_cold(workload, opts, info):
    walls = []
    for tracing in (False, True):
        wall, res, text = run_child(cold_args(workload, opts, tracing=tracing))
        if not cold_ok(workload, res, opts.tiny):
            raise SetupError(f"{workload}: wrong or missing verdicts\n{text[-2000:]}")
        walls.append(wall)
    info["backend"] = res["backend"]
    return walls, res["trace"], 2, 0


def _trace_warm(opts, info):
    n_max, sample = warm_sizes(opts)
    count = 40 if opts.tiny else TRACE_REQUESTS
    walls, stats, attempted, failed = [], {}, 0, 0
    for tracing in (False, True):
        server = Server(n_max, tracing)
        try:
            served, lat = serve(server, episode_requests(opts.seed, n_max, 0)[:count])
            if tracing:
                stats = (server.ask("stats") or {}).get("trace", {})
        finally:
            server.close()
        bad, _ = check_served(served, opts.seed, n_max, sample)
        attempted += len(served)
        failed += bad
        walls.append(sum(lat))
    info["backend"] = server.backend
    return walls, stats, attempted, failed


def traced_run(workload, opts, info):
    """One untraced and one traced pass of the workload, then the probes."""
    if workload == "query-warm":
        walls, stats, attempted, failed = _trace_warm(opts, info)
    else:
        walls, stats, attempted, failed = _trace_cold(workload, opts, info)
    missing = missing_layers(workload, stats)
    if missing:
        print(f"traced {workload}: no calls recorded in {missing}", file=sys.stderr)
        failed += 1
        attempted += 1
    metrics = layer_metrics(stats)
    metrics.update(probes(opts))
    metrics["trace_overhead_ratio"] = metric(walls[1] / walls[0], "ratio")
    return attempted, failed, metrics


# ---------------------------------------------------------------------------


def commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def _out_of_time(signum, frame):
    raise SetupError(f"the run took longer than {RUN_LIMIT} s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # hooks for the self-tests in test_perfbench.py
    p.add_argument("--tiny", action="store_true", help="small bounds, for a smoke run")
    p.add_argument("--fault", metavar="ID",
                   help="run one extra cold child with this check's registered fault")
    return p.parse_args(argv)


def main(argv=None):
    opts = parse_args(argv)
    if not (SRC / "degenpoly" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'degenpoly'}; run from a checkout root",
              file=sys.stderr)
        return 2
    info = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
            "trace": opts.trace, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(), "commit": commit()}
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT)
    try:
        if opts.trace:
            attempted, failed, metrics = traced_run(opts.workload, opts, info)
        elif opts.workload == "query-warm":
            attempted, failed, metrics = query_run(opts, info)
        else:
            attempted, failed, metrics = cold_run(opts.workload, opts, info)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
