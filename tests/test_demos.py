"""Smoke test of the scripts under demos/: each runs to exit 0 on small settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args",
    [
        ("benchmark_comparison.py", ["--seeds", "0", "--epochs", "2"]),
        ("custom_data_walkthrough.py", ["--workdir", "{tmp}"]),
        ("theory_checks.py", ["--domain-grid", "8,16", "--n-seeds", "3", "--mc", "1000"]),
    ],
)
def test_demo_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
