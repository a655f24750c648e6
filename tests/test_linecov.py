"""tools/linecov.py: a traced relgen subprocess, and the statements it never ran."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_one_line_command_lists_the_raise_it_never_reached(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/linecov.py", "--", sys.executable, "-m", "relgen.cli",
         "gen", "dg15", "--n-per-class", "2", "--out", str(tmp_path / "d")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rng = [line for line in lines if line.startswith("src/relgen/rng.py:")]
    # substream ran on every draw, but never with a negative seed; its docstring is no statement
    assert rng == ['src/relgen/rng.py:33: raise ConfigError(f"seed must be non-negative, got {seed}")']
    assert lines[-1].endswith("statements never executed")
