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
``--mc`` of ``relgen theory`` (10**6 samples), and during one
``save_dataset`` and one ``load_dataset_dir`` of a 150,000-row dg15
dataset (``gen_dg15(0, n_per_class=5000)``), in MiB.

    python3 tools/step_calls.py [--epochs 3] [--small]

A third table prints ``gc_per_command``: the objects the cyclic collector
finds per in-process ``relgen.cli.main`` call over one fixed loop of
``gen dg15`` (1,500 rows), ``train --epochs 1`` and ``eval``, run once to
warm up and once under ``gc.DEBUG_SAVEALL``, and how many of them are
``argparse`` objects.

``--small`` trains on tiny datasets, runs a tiny sweep, saves and loads
a 1,500-row dataset and runs the command loop on a 180-row dg15 dataset,
for a quick check that the tool runs.
The relgen under ``src`` next to this file is imported. Stdlib, numpy and
relgen only.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import io
import math
import pathlib
import sys
import tempfile
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from relgen.cli import main as cli_main  # noqa: E402
from relgen.data import (  # noqa: E402
    gen_dg15,
    gen_spatial_regression,
    load_dataset_dir,
    save_dataset,
)
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
IO_PER_CLASS, SMALL_IO_PER_CLASS = 5000, 50  # gen_dg15's n_per_class for io_peaks


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


def io_peaks(small: bool = False) -> tuple[int, int, int]:
    """(traced peak bytes of save_dataset, of load_dataset_dir, bytes of the loaded x, y
    and domain arrays) of one dg15 dataset."""
    ds = gen_dg15(0, n_per_class=SMALL_IO_PER_CLASS if small else IO_PER_CLASS)
    with tempfile.TemporaryDirectory() as out:
        save = _traced_peak(lambda: save_dataset(ds, out))
        loaded = []
        load = _traced_peak(lambda: loaded.append(load_dataset_dir(out)))
    back = loaded[0]
    return save, load, back.x.nbytes + back.y.nbytes + back.domain.nbytes


def gc_per_command(small: bool = False) -> tuple[int, int, int]:
    """(commands in the loop, objects the cyclic collector finds over one loop, how many of
    them are argparse objects). The loop runs once before it is counted, so lazy imports
    and first-call caches are not counted."""
    with tempfile.TemporaryDirectory() as tmp:
        data, out = f"{tmp}/data", f"{tmp}/out"
        commands = [
            ["gen", "dg15", "--n-per-class", "6" if small else "50", "--out", data],
            ["train", "--data", data, "--out", out, "--epochs", "1"],
            ["eval", "--checkpoint", f"{out}/checkpoint-relational-seed0.npz", "--data", data,
             "--out", f"{tmp}/eval"],
        ]

        def run_loop():
            for argv in commands:
                if cli_main(argv) != 0:
                    raise RuntimeError(f"relgen {' '.join(argv)} failed")

        flags = gc.get_debug()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run_loop()
                gc.collect()
                gc.set_debug(gc.DEBUG_SAVEALL)
                run_loop()
                gc.collect()
            found = len(gc.garbage)
            n_argparse = sum(type(o).__module__ == "argparse" for o in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
    return len(commands), found, n_argparse


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
    save_peak, load_peak, _ = io_peaks(args.small)
    print(f"\n{'sweep':<16} {'cells':>6} {'calls':>8} {'calls/cell':>10} {'sweep_MiB':>9} "
          f"{'oracle_MiB':>10} {'load_MiB':>8} {'save_MiB':>8}")
    print(f"{'theory-sweep':<16} {cells:>6} {calls:>8} {calls / cells:>10.1f} "
          f"{sweep_peak / 2**20:>9.2f} {oracle_peak / 2**20:>10.2f} "
          f"{load_peak / 2**20:>8.2f} {save_peak / 2**20:>8.2f}")
    n_commands, found, n_argparse = gc_per_command(args.small)
    print(f"\n{'loop':<16} {'calls':>6} {'found':>8} {'gc_per_command':>14} {'argparse':>8}")
    print(f"{'gen-train-eval':<16} {n_commands:>6} {found:>8} "
          f"{found / n_commands:>14.1f} {n_argparse:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
