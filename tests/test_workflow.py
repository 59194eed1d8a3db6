"""The CI workflow's check steps, replayed here as the hosted runner runs them.

Every ``run`` step of ``.github/workflows/tests.yml`` but the install and
the two pytest runs is a check step.  Each one that is not named in
``SLOW`` runs under ``bash -e`` from the repository root, with
``RUNNER_TEMP`` at a fresh temporary directory, and must exit 0.

Run as a script, ``python tests/test_workflow.py``, it replays every check
step, the ``SLOW`` ones too, one after another, prints each step's exit
code and wall time and exits 1 if any step failed.  That takes minutes,
so it is not part of the suite.
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# name -> script of each check step: the install needs the network, and one
# of the two pytest runs is this suite
CHECK_STEPS = {
    step["name"]: step["run"]
    for step in yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tests"]["steps"]
    if "run" in step and not re.search(r"\bpip install\b|\bpytest\b", step["run"])
}

# the check steps that take seconds each on a 2-vCPU host, left to the hosted run
SLOW = (
    "the closed-form composition through (x/(1+λx))^k keeps T5T6 within bounds at n_max 100, order 64",
    "L2 stays within bounds at n_max 100",
    "all 18 checks pass at the largest bounds they accept, n_max 100 and order 64",
    "verify --all at deep bounds through the real entry point matches the golden verdicts",
    "each of the 18 targeted negative controls exits 1 and changes only its own verdict "
    "from the golden ones, at default and deep bounds",
)

FAST = [name for name in CHECK_STEPS if name not in SLOW]


def test_every_slow_step_is_in_the_workflow():
    assert set(SLOW) <= CHECK_STEPS.keys(), set(SLOW) - CHECK_STEPS.keys()


def run_step(name, runner_temp):
    # `python` in a step is this interpreter
    env = {**os.environ, "RUNNER_TEMP": str(runner_temp),
           "PATH": os.pathsep.join((str(Path(sys.executable).parent), os.environ.get("PATH", "")))}
    return subprocess.run(["bash", "-e", "-c", CHECK_STEPS[name]], cwd=ROOT, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", FAST)
def test_the_check_step_exits_0(name, tmp_path):
    run = run_step(name, tmp_path)
    assert run.returncode == 0, (run.stdout[-2000:], run.stderr[-2000:])


def main() -> int:
    failed = 0
    for name in CHECK_STEPS:
        with tempfile.TemporaryDirectory() as runner_temp:
            start = time.perf_counter()
            run = run_step(name, runner_temp)
            took = time.perf_counter() - start
        failed += run.returncode != 0
        print(f"exit {run.returncode} {took:6.1f} s {'slow' if name in SLOW else 'fast'}  {name}",
              flush=True)
        if run.returncode:
            print(run.stdout[-2000:], run.stderr[-2000:], sep="\n", flush=True)
    print(f"{len(CHECK_STEPS) - failed} of {len(CHECK_STEPS)} check steps exited 0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
