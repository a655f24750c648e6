"""Experiment helpers: ablation rows from one lockstep training call equal
those of one run per seed and variant."""

from dataclasses import replace

import pytest

import relgen.experiments as experiments
from relgen.data import gen_dg15
from relgen.experiments import (
    RELATION_VARIANTS,
    consistency_ablation,
    relation_ablation,
    run_relational,
)
from relgen.model import TrainConfig

SEEDS = [3, 1, 4]


def _per_seed_rows(datasets, cfg):
    """The ablation rows as one run_relational call per seed would give them."""
    rel = []
    for label, overrides in RELATION_VARIANTS.items():
        vals = [
            run_relational(datasets[s], replace(cfg, seed=s, **overrides))[2].mean
            for s in SEEDS
        ]
        rel.append({"variant": label, **experiments._aggregate(vals)})
    con = []
    for lam in (0.0, cfg.lam):
        vals = [run_relational(datasets[s], replace(cfg, seed=s, lam=lam))[2].mean for s in SEEDS]
        con.append({"variant": f"lam={lam:g}", **experiments._aggregate(vals)})
    return rel, con


@pytest.mark.parametrize("shared", [True, False], ids=["one-dataset", "dataset-per-seed"])
def test_ablation_rows_equal_per_seed_runs(shared, monkeypatch):
    cfg = TrainConfig(lr=1e-3, epochs=2)
    one = gen_dg15(0, n_per_class=10)
    datasets = {s: one if shared else gen_dg15(s, n_per_class=10) for s in SEEDS}
    expected = _per_seed_rows(datasets, cfg)
    calls = []
    real_train = experiments.train

    def counting_train(models, dataset, configs):
        calls.append(len(models))
        return real_train(models, dataset, configs)

    monkeypatch.setattr(experiments, "train", counting_train)
    rel = relation_ablation(SEEDS, cfg, dataset_factory=datasets.__getitem__)
    con = consistency_ablation(SEEDS, cfg, dataset_factory=datasets.__getitem__)
    assert (rel, con) == expected
    # one lockstep call per ablation, over every (variant, seed) row
    assert calls == [len(RELATION_VARIANTS) * len(SEEDS), 2 * len(SEEDS)]


def test_relation_rows_do_not_depend_on_the_base_relation_mode():
    """Each variant sets its own relation mode, so a uniform base gives the fused base's rows."""
    ds = gen_dg15(0, n_per_class=10)
    cfg = TrainConfig(lr=1e-3, epochs=2)
    fused, uniform = (
        relation_ablation([0, 1], replace(cfg, relation_mode=mode), dataset_factory=lambda s: ds)
        for mode in ("fused", "uniform")
    )
    assert uniform == fused
