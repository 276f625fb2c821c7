"""Smoke test for the demos: each script runs to completion against the
package in src/, and every demo whose output holds no wall time or
temporary path prints the same bytes on a second run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# prints wall times and temporary paths
VARYING = {"06_experiments_and_cli.py"}


def test_demos_found():
    assert len(DEMOS) >= 6
    assert VARYING <= {d.name for d in DEMOS}


def _stdout(demo, tmp_path):
    # TMPDIR keeps the files a demo writes to its temporary directory inside
    # the test's own directory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    first = _stdout(demo, tmp_path)
    if demo.name not in VARYING:
        assert _stdout(demo, tmp_path) == first
