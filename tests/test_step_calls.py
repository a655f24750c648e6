"""tools/step_calls.py: calls per training step, per score call and per scoring of
prebuilt groups of its four configs, and calls per theory sweep cell with the traced
peaks of the sweep and the oracle, on tiny data."""

import importlib.util
import math
import pathlib
from dataclasses import dataclass

from relgen import theory

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("step_calls", ROOT / "tools" / "step_calls.py")
step_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_calls)


def test_each_config_reports_its_calls_per_step(capsys):
    assert step_calls.main(["--small", "--epochs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["config", "steps", "calls", "calls/step", "calls/score",
                                "calls/scored"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:1 + len(step_calls.CONFIGS)]}
    assert list(rows) == list(step_calls.CONFIGS)
    for name, (steps, calls, per_step, per_score, per_scored) in rows.items():
        ds = step_calls.dataset(step_calls.CONFIGS[name][0], small=True)
        n_train = len(ds.arrays_for(ds.ids_for_split("train"))[1])
        assert int(steps) == math.ceil(n_train / 10)  # one epoch of 10-example batches
        assert float(per_step) == round(int(calls) / int(steps), 1) > 0
        assert 0 < int(per_score) < int(calls)
        assert 0 < int(per_scored) < int(per_score)  # the groups are built beforehand
    assert lines[-3:-1] == ["", f"{'sweep':<16} {'cells':>6} {'calls':>8} {'calls/cell':>10} "
                                f"{'sweep_MiB':>9} {'oracle_MiB':>10}"]
    name, cells, calls, per_cell, sweep_mib, oracle_mib = lines[-1].split()
    assert name == "theory-sweep" and int(cells) == 2 * 3  # the small sweep's (N, seed) cells
    assert float(per_cell) == round(int(calls) / int(cells), 1) > 0
    assert float(sweep_mib) > 0 and float(oracle_mib) > 0


def test_theory_peaks_hold_the_sweep_and_oracle_buffers():
    step_calls.calls_per_sweep(small=True)  # numpy.random's import, as main runs it first
    sweep, oracle = step_calls.theory_peaks(small=True)
    # the sweep's five n_eval buffers; the oracle's d and e leaves, at most one block
    assert 5 * 8 * step_calls.SMALL_SWEEP["n_eval"] < sweep < 2**20
    leaf = min(step_calls.SMALL_ORACLE_MC, theory.ORACLE_BLOCK)
    assert 2 * 8 * leaf < oracle < theory.BLOCK_BYTES + 64 * 2**10



@dataclass
class _First:
    a: int = 0


@dataclass
class _Second:
    b: int = 0


def test_calls_keep_each_dataclass_constructor():
    # both generated __init__ methods share the key ('<string>', 2, '__init__')
    def build_two():
        return _First(), _Second()

    def build_one_twice():
        return _First(), _First()

    assert step_calls._calls(build_two) == step_calls._calls(build_one_twice) >= 3
