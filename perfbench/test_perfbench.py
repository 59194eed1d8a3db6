"""Self-tests of the benchmark; run with `python3 -m pytest perfbench -q`.

They run the benchmark command at tiny bounds, so a full pass
takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("traced", [0, 1])
def test_smoke_tiny(workload, traced):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(traced), "--tiny"))
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if traced else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    if not traced:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_metric_names_match_spec():
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["verify-cold", "series-deep"])
def test_perturbed_check_counts_as_failed(workload):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--tiny", "--fault", "T4"))
    assert not res["correct"] and res["failed"] >= 1
    assert res["metrics"]["ok_ratio"]["value"] < 1


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "query-warm", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_leaves_ten_samples_above():
    assert run.tail(list(range(1000)))[0] == 989
    assert run.tail(list(range(100)))[0] == 89
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_oracle_rejects_a_wrong_coefficient():
    orc = oracle.Oracle(6)
    want = orc.value("bell_deg", 3)
    good = oracle.parse_text("x + (3 - 3λ)x^2 + (1 - 3λ + 2λ^2)x^3")
    bad = oracle.parse_text("x + (3 - 3λ)x^2 + (1 - 3λ + 3λ^2)x^3")
    assert oracle.same(want, good) and not oracle.same(want, bad)
    latex = oracle.latex_to_text("-\\frac{1}{6}\\lambda^{2} x^{3}")
    assert oracle.parse_text(latex) == {(3, 2): Fraction(-1, 6)}


def test_episode_is_seeded_balanced_and_half_repeats():
    def keys(seed, episode):
        return [r["key"] for r in run.episode_requests(seed, 8, episode)]

    first = keys(5, 0)
    assert first == keys(5, 0) != keys(6, 0) and first != keys(5, 1)
    size = 16 * 9
    assert len(first) == 2 * size and len(set(first)) == size
    assert sorted(first[:size]) == sorted(first[size:]) and first[:size] != first[size:]
    for i in range(0, len(first), 16):
        assert len({k.split()[2] for k in first[i:i + 16]}) == 16


def test_trace_refuses_a_reference_it_cannot_wrap():
    # a list is not a site install() rewrites, so the referrer check must catch it
    code = ("import layertrace, degenpoly.cli as cli\n"
            "cli._hidden = [cli.fam.bell_deg]\n"
            "layertrace.install(layertrace.Tracer())\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
                          env={**run.child_env(), "PYTHONPATH": f"{run.SRC}:{HERE}"}, timeout=60)
    assert proc.returncode != 0 and "untraced reference to bell_deg" in proc.stderr


def test_traced_call_counts_repeat_exactly():
    def counts():
        res = result(bench("--workload", "query-warm", "--seed", "4", "--seconds", "1",
                           "--trace", "1", "--tiny"))
        return {k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")}

    first = counts()
    assert first == counts() and any(first.values())
