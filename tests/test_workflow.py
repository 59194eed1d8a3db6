"""The CI workflow's check steps, replayed here as the hosted runner runs them.

Every ``run`` step of ``.github/workflows/tests.yml`` but the install and
the two pytest runs is a check step.  Each one that is not named in
``SLOW`` runs under ``bash -e`` from the repository root, with
``RUNNER_TEMP`` at a fresh temporary directory, and must exit 0.
"""

import os
import re
import subprocess
import sys
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


@pytest.mark.parametrize("name", FAST)
def test_the_check_step_exits_0(name, tmp_path):
    # `python` in a step is this interpreter
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path),
           "PATH": os.pathsep.join((str(Path(sys.executable).parent), os.environ.get("PATH", "")))}
    run = subprocess.run(["bash", "-e", "-c", CHECK_STEPS[name]], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, (run.stdout[-2000:], run.stderr[-2000:])
