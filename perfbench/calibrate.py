"""Host-speed calibration for the benchmark runner.

    python3 perfbench/calibrate.py

Reads one line per measurement from stdin and answers each with the seconds
one run of a fixed numpy kernel took, until stdin closes. The kernel uses no
relgen code, so a change to relgen cannot move it; what moves it is the host:
other work sharing the processor, its caches and memory slows it by the same
kind of factor it slows relgen. ``run.py`` keeps this process beside the
benchmark, asks for a measurement between iterations, and scales each time
by the kernel times measured just before and after it. The kernel runs in its own process so that its arrays do
not count towards the benchmark's peak resident set.

The kernel mixes the two kinds of work in relgen: random draws and
element-wise reductions over arrays of 20,000 float64s, as in ``relgen
theory`` and the data layer, and a pure-Python loop standing for the
interpreter overhead of the small per-step calls in ``relgen train``. Among
the candidates tried (a small network trained with Adam, arrays of a million
float64s, these two), these tracked the relgen commands' own slow-downs best.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ARRAY_REPS = 120
ARRAY_SIZE = 20_000
LOOP_STEPS = 400_000


def _arrays() -> None:
    rng = np.random.default_rng(0)
    for _ in range(ARRAY_REPS):
        x = rng.uniform(-1.0, 1.0, ARRAY_SIZE)
        e = rng.normal(size=ARRAY_SIZE)
        d = np.abs(0.3 * x - e) - np.abs(e)
        d.mean()
        d.std()


def _interpreter() -> None:
    acc = 0
    for i in range(LOOP_STEPS):
        acc += i * i % 7


def kernel_s() -> float:
    t0 = time.perf_counter()
    _arrays()
    _interpreter()
    return time.perf_counter() - t0


def main() -> int:
    kernel_s()  # first-call set-up of numpy is not host speed
    for _ in sys.stdin:
        print(repr(kernel_s()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
