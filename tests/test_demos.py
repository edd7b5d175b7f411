"""Smoke test: every demo script runs cleanly and reports no failed check.

Demos print their self-checks as ``label: True``; a line ending in
``False`` is a failed check.  Empty stderr also catches numpy warnings
(NaN, overflow) that would otherwise scroll past.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    failed = [line for line in proc.stdout.splitlines() if line.rstrip().endswith("False")]
    assert failed == []
