"""Experiment orchestration: multi-seed comparisons and ablations.

These helpers are shared by the command-line entry points and the
acceptance tests so both report numbers produced by the same code path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import DomainDataset, gen_dg15
from .model import (
    TrainConfig,
    build_erm,
    build_model,
    evaluate,
    score,
    split_ids,
    train,
)

# the reference benchmark's learning rate underfits a fresh width-64 network
# in 30 epochs; experiments default to this faster rate while keeping every
# other reference value (see TrainConfig defaults)
TUNED_LR = 1e-3


def tuned_config(**overrides) -> TrainConfig:
    return replace(TrainConfig(lr=TUNED_LR), **overrides)


def _run(build, dataset, config):
    """Build one model per config, train them in one lockstep call and score each on test."""
    single = isinstance(config, TrainConfig)
    configs = [config] if single else list(config)
    datasets = [dataset] * len(configs) if isinstance(dataset, DomainDataset) else list(dataset)
    for d in datasets:  # before training, so an empty split costs no epochs
        split_ids(d, "test")
    models = [build(d, c) for d, c in zip(datasets, configs)]
    histories = train(models, datasets, configs)
    reports = score(models, datasets, [(c.relation_mode, c.beta) for c in configs], "test")
    if single:
        return models[0], histories[0], reports[0]
    return models, histories, reports


def run_relational(dataset, config):
    """Train the relation-weighted model and evaluate the test split under its relation mode.

    Given a list of configs (and a dataset or one per config), trains one
    model per config in one lockstep train call and returns lists of models,
    histories and reports, each as a run of its own would give it.
    """
    return _run(build_model, dataset, config)


def run_erm(dataset, config):
    """The pooled baseline's run_relational."""
    return _run(build_erm, dataset, config)


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "per_seed": [float(v) for v in arr],
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    }


def method_comparison(seeds, config: TrainConfig, include_rwft: bool = False) -> dict:
    """Mean test metric per method over seeds; one fresh dg15 world each, one call per method."""
    seeds = [int(s) for s in seeds]
    datasets = [gen_dg15(s) for s in seeds]
    cfgs = [replace(config, seed=s) for s in seeds]
    reports = {"relational": run_relational(datasets, cfgs)[2]}
    erm_models, _, reports["erm"] = run_erm(datasets, cfgs)
    if include_rwft:
        reports["rw_finetune"] = [evaluate(m, d, c, "test")
                                  for m, d, c in zip(erm_models, datasets, cfgs)]
    out = {
        name: {**_aggregate([r.mean for r in reps]), "reports": [r.to_dict() for r in reps]}
        for name, reps in reports.items()
    }
    out["seeds"] = seeds
    return out


# ablation row label -> config overrides; each sets the mode its models train and infer under
RELATION_VARIANTS = {
    "none": {"relation_mode": "uniform"},
    "fixed": {"relation_mode": "fused", "beta": 1.0},
    "learned": {"relation_mode": "fused", "beta": 0.0},
    "fused": {"relation_mode": "fused"},
}


def ablation(seeds, config: TrainConfig, dataset_factory=gen_dg15) -> list[dict]:
    """Test metric over seeds per ablation row, all runs in one run_relational call.

    The "relations" group has a row per relation source (none/fixed/learned/fused),
    "consistency" lam 0 and config.lam. Runs are keyed by their config, seed included,
    so a run that two rows share (lam=config.lam is the base's own) trains once.
    """
    seeds = [int(s) for s in seeds]
    datasets = [dataset_factory(s) for s in seeds]
    variants = [("relations", label, overrides) for label, overrides in RELATION_VARIANTS.items()]
    variants += [("consistency", f"lam={lam:g}", {"lam": lam}) for lam in (0.0, config.lam)]
    rows = [[replace(config, seed=s, **overrides) for s in seeds] for *_, overrides in variants]
    runs = {c: d for cfgs in rows for d, c in zip(datasets, cfgs)}
    _, _, reports = run_relational(list(runs.values()), list(runs))
    means = dict(zip(runs, (r.mean for r in reports)))
    return [{"group": group, "variant": label, **_aggregate([means[c] for c in cfgs])}
            for (group, label, _), cfgs in zip(variants, rows)]
