"""Runtime checks hold under `python -O`, which strips bare asserts."""

import os
import pathlib
import subprocess
import sys

import ibaka

SCRIPT = """
import sys
from ibaka import cli
from ibaka.ibs import Variant
from ibaka.sim import AttackKind, AttackReport, LogicalClock, Outcome, Transcript

class UnequalKeys:
    keys_equal = False

cli.run_honest_exchange = lambda *args, **kwargs: UnequalKeys()
print("optimize", sys.flags.optimize)
print("exit", cli.main(["selftest"]))
report = AttackReport(
    AttackKind.EPHEMERAL_COMPROMISE, Variant.FLAWED, Outcome.SUCCEEDED, None,
    None, None, Transcript(LogicalClock()),
)
print("keys_match", report.keys_match)
"""


def test_selftest_and_report_checks_run_under_python_O():
    src = str(pathlib.Path(ibaka.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert "FAIL honest-exchanges" in lines
    assert "selftest: 7/8 passed" in lines
    assert "exit 1" in lines
    assert lines[-1] == "keys_match False"
