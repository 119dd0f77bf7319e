"""The experiment scripts run as separate processes against the package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("reproduce_tables.py", ["--max-rank", "4"], "  E8  30808063/99532800"),
        ("volume_sweep.py", ["--type", "A2", "--samples", "10000", "20000"], "exact: 1/3 = 0.333333"),
    ],
    ids=["reproduce_tables", "volume_sweep"],
)
def test_script_runs(script, args, line):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
