"""Count the Python calls one training step makes, for four training configs.

Each config is trained for a few epochs under ``cProfile``; the calls the
profiler sees during the ``train`` call (function calls, and C functions
or methods called from Python; numpy's ufuncs are neither), divided by the
optimizer steps, are the calls per step. Unlike a time, the count does not
move with the host's speed. Seeds train in lockstep, so one step serves
all seeds of a config. The valid pass of each epoch is counted too.
``calls/score`` counts one more valid-split ``score`` call on the trained
models, the scorer alone. ``calls/scored`` counts only the scoring part of
that call, ``_score_groups`` on groups built beforehand, so that a change
to the scorer is not diluted by the cost of building its groups.

A second table counts the calls of one theory sweep (``scaling_experiment``
at the sizes of the perfbench theory-sweep workload, c0 calibrated, seed 0)
per (domain count, seed) cell; the calibration's held-out cells are not
counted as cells. It also prints the peak memory ``tracemalloc`` traces
during a second run of the sweep and during ``averaging_oracle`` at the
``--mc`` of ``relgen theory`` (10**6 samples), in MiB.

    python3 tools/step_calls.py [--epochs 3] [--small]

``--small`` trains on tiny datasets and runs a tiny sweep, for a quick
check that the tool runs.
The relgen under ``src`` next to this file is imported. Stdlib, numpy and
relgen only.
"""

from __future__ import annotations

import argparse
import cProfile
import math
import pathlib
import sys
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from relgen.data import gen_dg15, gen_spatial_regression  # noqa: E402
from relgen.model import (  # noqa: E402
    TrainConfig,
    _score_groups,
    _split_groups,
    build_erm,
    build_model,
    score,
    train,
)
from relgen.theory import averaging_oracle, scaling_experiment  # noqa: E402

# name -> (dataset kind, model builder, seeds, TrainConfig overrides); dg15-uniform reads the
# constant-relations path, which skips the learned matrix
CONFIGS = {
    "dg15-relational": ("dg15", build_model, (0, 1, 2), {}),
    "dg15-pooled": ("dg15", build_erm, (0, 1, 2), {}),
    "grid-relational": ("grid", build_model, (0,), {}),
    "dg15-uniform": ("dg15", build_model, (0, 1, 2), {"relation_mode": "uniform"}),
}

# scaling_experiment's arguments in the theory-sweep workload: `relgen theory` at --n-seeds 500
SWEEP = dict(domain_grid=(8, 16, 32, 64), n_seeds=500, r=2, n_per_domain=50, noise=0.1,
             lipschitz=1.0, n_eval=10_000)
SMALL_SWEEP = dict(SWEEP, domain_grid=(4, 8), n_seeds=3, n_per_domain=10, n_eval=500)
ORACLE_MC, SMALL_ORACLE_MC = 1_000_000, 10_000  # averaging_oracle's samples


def dataset(kind: str, small: bool):
    if kind == "dg15":
        return gen_dg15(0, n_per_class=6 if small else 50)
    if small:
        return gen_spatial_regression(0, n_rows=3, n_cols=3, n_per_domain=12)
    return gen_spatial_regression(0, n_rows=6, n_cols=6)


def _calls(fn, *args) -> int:
    """Calls the profiler sees while fn(*args) runs.

    The raw entries are summed: pstats keys them by (file, line, name), and
    every dataclass-generated method is ('<string>', 2, '__init__'), so it
    would keep only one such method's count.
    """
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return sum(entry.callcount for entry in profile.getstats())


def calls_per_step(name: str, epochs: int = 3, small: bool = False) -> tuple[int, int, int, int]:
    """(Python calls during train, optimizer steps, calls of one valid score call, calls
    of its scoring on prebuilt groups) of one config."""
    kind, build, seeds, overrides = CONFIGS[name]
    ds = dataset(kind, small)
    configs = [TrainConfig(lr=1e-3, epochs=epochs, seed=s, **overrides) for s in seeds]
    models = [build(ds, c) for c in configs]
    calls = _calls(train, models, ds, configs)
    n_train = len(ds.arrays_for(ds.ids_for_split("train"))[1])
    steps = epochs * math.ceil(n_train / configs[0].batch_size)
    modes = [(c.relation_mode, c.beta) for c in configs]
    per_score = _calls(score, models, ds, modes, "valid")
    groups = _split_groups(models, [ds] * len(models), modes, "valid")
    per_scored = _calls(_score_groups, groups, np.stack([m.flat for m in models]), "valid")
    return calls, steps, per_score, per_scored


def calls_per_sweep(small: bool = False) -> tuple[int, int]:
    """(Python calls during one theory sweep, its (domain count, seed) cells)."""
    sweep = SMALL_SWEEP if small else SWEEP
    cells = len(sweep["domain_grid"]) * sweep["n_seeds"]
    return _calls(lambda: scaling_experiment(**sweep)), cells


def _traced_peak(fn) -> int:
    """The peak bytes tracemalloc traces while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def theory_peaks(small: bool = False) -> tuple[int, int]:
    """(traced peak bytes of one theory sweep, of averaging_oracle). Run after a sweep: a
    process's first draw imports numpy.random, which would be traced too."""
    sweep = SMALL_SWEEP if small else SWEEP
    n_mc = SMALL_ORACLE_MC if small else ORACLE_MC
    return (_traced_peak(lambda: scaling_experiment(**sweep)),
            _traced_peak(lambda: averaging_oracle(n_mc)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=3, help="epochs per config (default 3)")
    parser.add_argument("--small", action="store_true", help="train on tiny datasets")
    args = parser.parse_args(argv)
    if args.epochs < 1:
        parser.error("--epochs must be at least 1")
    print(f"{'config':<16} {'steps':>6} {'calls':>8} {'calls/step':>10} {'calls/score':>11} "
          f"{'calls/scored':>12}")
    for name in CONFIGS:
        calls, steps, per_score, per_scored = calls_per_step(name, args.epochs, args.small)
        print(f"{name:<16} {steps:>6} {calls:>8} {calls / steps:>10.1f} {per_score:>11} "
              f"{per_scored:>12}")
    calls, cells = calls_per_sweep(args.small)
    sweep_peak, oracle_peak = theory_peaks(args.small)
    print(f"\n{'sweep':<16} {'cells':>6} {'calls':>8} {'calls/cell':>10} {'sweep_MiB':>9} "
          f"{'oracle_MiB':>10}")
    print(f"{'theory-sweep':<16} {cells:>6} {calls:>8} {calls / cells:>10.1f} "
          f"{sweep_peak / 2**20:>9.2f} {oracle_peak / 2**20:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
