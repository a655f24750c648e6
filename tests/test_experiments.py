"""Experiment helpers: ablation rows from one lockstep training call equal
those of one run per seed and variant."""

from dataclasses import astuple, replace

import pytest

import relgen.experiments as experiments
from relgen.data import gen_dg15
from relgen.experiments import RELATION_VARIANTS, ablation, run_relational
from relgen.model import TrainConfig

SEEDS = [3, 1, 4]


def _per_seed_rows(datasets, cfg):
    """The ablation rows as one run_relational call per seed would give them, and
    the set of the distinct configs those runs train."""
    variants = [("relations", label, overrides) for label, overrides in RELATION_VARIANTS.items()]
    variants += [("consistency", f"lam={lam:g}", {"lam": lam})
                 for lam in dict.fromkeys((0.0, cfg.lam))]
    rows, configs = [], set()
    for group, label, overrides in variants:
        cfgs = [replace(cfg, seed=s, **overrides) for s in SEEDS]
        configs.update(astuple(c) for c in cfgs)
        vals = [run_relational(datasets[s], c)[2].mean for s, c in zip(SEEDS, cfgs)]
        rows.append({"group": group, "variant": label, **experiments._aggregate(vals)})
    return rows, configs


def _assert_rows_equal_per_seed_runs(cfg, shared, runs_per_seed, monkeypatch):
    """ablation() gives the per-seed rows from one lockstep call over each distinct run once."""
    one = gen_dg15(0, n_per_class=10)
    datasets = {s: one if shared else gen_dg15(s, n_per_class=10) for s in SEEDS}
    expected, distinct = _per_seed_rows(datasets, cfg)
    calls = []
    real_train = experiments.train

    def counting_train(models, dataset, configs):
        calls.append([astuple(c) for c in configs])
        return real_train(models, dataset, configs)

    monkeypatch.setattr(experiments, "train", counting_train)
    assert ablation(SEEDS, cfg, dataset_factory=datasets.__getitem__) == expected
    assert len(calls) == 1 and len(calls[0]) == runs_per_seed * len(SEEDS)
    assert sorted(calls[0]) == sorted(distinct)


@pytest.mark.parametrize("shared", [True, False], ids=["one-dataset", "dataset-per-seed"])
def test_ablation_rows_equal_per_seed_runs(shared, monkeypatch):
    # 4 relation sources and 2 lam values, less lam=config.lam, which is the fused run
    _assert_rows_equal_per_seed_runs(TrainConfig(lr=1e-3, epochs=2), shared, 5, monkeypatch)


# base overrides -> distinct runs per seed: lam=config.lam is the base run itself
# (none at a uniform base), beta 1 also makes fixed the fused run, and lam 0 makes
# fused and both lam rows one run
COINCIDING = {
    "uniform": ({"relation_mode": "uniform"}, 5),
    "beta-1": ({"beta": 1.0}, 4),
    "lam-0": ({"lam": 0.0}, 4),
}


@pytest.mark.parametrize("base", list(COINCIDING))
def test_coinciding_ablation_rows_train_once(base, monkeypatch):
    overrides, runs_per_seed = COINCIDING[base]
    cfg = TrainConfig(lr=1e-3, epochs=2, **overrides)
    _assert_rows_equal_per_seed_runs(cfg, True, runs_per_seed, monkeypatch)


def test_relation_rows_do_not_depend_on_the_base_relation_mode():
    """Each variant sets its own relation mode, so a uniform base gives the fused base's rows."""
    ds = gen_dg15(0, n_per_class=10)
    cfg = TrainConfig(lr=1e-3, epochs=2)
    fused, uniform = (
        [r for r in ablation([0, 1], replace(cfg, relation_mode=mode), dataset_factory=lambda s: ds)
         if r["group"] == "relations"]
        for mode in ("fused", "uniform")
    )
    assert uniform == fused
