"""Command-line entry points.

Subcommands: gen, train, eval, ablate, theory, export-relations.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure during optimization.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from ._version import __version__
from .data import (
    SPLITS,
    gen_dg15,
    gen_spatial_regression,
    load_adjacency,
    load_dataset_dir,
    load_meta_csv,
    save_dataset,
)
from .errors import ConfigError, DataError, NumericalError
from .experiments import consistency_ablation, relation_ablation
from .fileio import atomic_write_text
from .model import (
    ErmModel,
    MultiHeadModel,
    TrainConfig,
    build_model,
    erm_predictor,
    evaluate,
    load_checkpoint,
    relational_predictor,
    rwft_predictor,
    save_checkpoint,
    train,
    train_erm,
)
from .relations import (
    RelationMatrix,
    adjacency_matrix,
    angle_matrix,
    build_matrix,
    save_relation_csv,
)
from .theory import AVERAGING_ORACLE_TARGET, averaging_oracle, save_sweep_csv, scaling_experiment

# train/eval flags that override the config file when given
_OVERRIDE_FIELDS = (
    "seed",
    "lam",
    "beta",
    "epochs",
    "lr",
    "batch_size",
    "relation_mode",
    "combine_space",
    "finetune_epochs",
)

INFERENCE_MODES = ("fused", "fixed", "learned", "uniform")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _provenance(t0: float) -> dict:
    return {
        "library_version": __version__,
        "wall_clock_sec": round(time.perf_counter() - t0, 3),
    }


def _write_report(out_dir: str, stem: str, payload: dict, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    body = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    atomic_write_text(os.path.join(out_dir, stem + ".json"), body)
    if not text.endswith("\n"):
        text += "\n"
    atomic_write_text(os.path.join(out_dir, stem + ".txt"), text)


def _load_config(args) -> TrainConfig:
    data: dict = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object")
    cfg = TrainConfig.from_dict(data)
    updates = {}
    for name in _OVERRIDE_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if updates:
        cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def _parse_seeds(args, fallback: int) -> list[int]:
    raw = getattr(args, "seeds", None)
    if raw:
        try:
            seeds = [int(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--seeds expects comma-separated integers: {raw!r}") from exc
        if not seeds:
            raise ConfigError("--seeds given but empty")
        return seeds
    if getattr(args, "seed", None) is not None:
        return [args.seed]
    return [fallback]


def _metrics_text(rep) -> list[str]:
    lines = [f"split={rep.split} metric={rep.metric} n={rep.n_examples}"]
    for did in sorted(rep.per_domain):
        lines.append(f"  {did:<12} {rep.per_domain[did]:.4f}")
    lines.append(f"  mean={rep.mean:.4f} worst={rep.worst:.4f}")
    return lines


def cmd_gen(args) -> int:
    if args.kind == "dg15":
        ds = gen_dg15(args.seed, n_per_class=args.n_per_class)
    else:
        ds = gen_spatial_regression(
            args.seed,
            n_rows=args.rows,
            n_cols=args.cols,
            n_per_domain=args.n_per_domain,
            noise=args.noise,
        )
    paths = save_dataset(ds, args.out)
    tally = {s: len(ds.ids_for_split(s)) for s in SPLITS}
    print(
        f"wrote {len(ds.ids)} domains ({tally['train']} train / "
        f"{tally['valid']} valid / {tally['test']} test), "
        f"{ds.x.shape[0]} rows -> {args.out}"
    )
    for name in sorted(paths):
        print(f"  {name}: {paths[name]}")
    return 0


def _train_seeds(dataset, cfgs, method, resume):
    """Train one model per config; yields (model, history, predictor) per seed.

    Relational models train in lockstep, so all of them are trained before
    the first is yielded; pooled models train one after another.
    """
    if method == "relational":
        if resume:
            model, _ = load_checkpoint(resume)
            if not isinstance(model, MultiHeadModel):
                raise ConfigError(f"{resume}: not a relational checkpoint")
            models = [model]
        else:
            models = [build_model(dataset, cfg) for cfg in cfgs]
        histories = train(models, dataset, cfgs)
        mode = "uniform" if cfgs[0].relation_mode == "uniform" else "fused"
        for model, history in zip(models, histories):
            yield model, history, relational_predictor(model, dataset, cfgs[0].beta, mode)
        return
    for cfg in cfgs:
        if resume:
            model, _ = load_checkpoint(resume)
            if not isinstance(model, ErmModel):
                raise ConfigError(f"{resume}: not an erm checkpoint")
            model, history = train_erm(dataset, cfg, model=model)
        else:
            model, history = train_erm(dataset, cfg)
        yield model, history, erm_predictor(model, dataset)


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    dataset = load_dataset_dir(args.data, task=args.task)
    cfg0 = _load_config(args)
    seeds = _parse_seeds(args, fallback=cfg0.seed)
    if args.resume and len(seeds) > 1:
        raise ConfigError("--resume works with a single seed")
    cfgs = [replace(cfg0, seed=s) for s in seeds]
    per_seed = []
    valid_means, test_means = [], []
    for cfg, (model, history, predictor) in zip(
        cfgs, _train_seeds(dataset, cfgs, args.method, args.resume)
    ):
        s = cfg.seed
        rep_valid = evaluate(predictor, dataset, "valid")
        rep_test = evaluate(predictor, dataset, "test")
        ckpt = os.path.join(args.out, f"checkpoint-{args.method}-seed{s}.npz")
        os.makedirs(args.out, exist_ok=True)
        save_checkpoint(ckpt, model, cfg, extra={"method": args.method})
        per_seed.append(
            {
                "seed": s,
                "checkpoint": os.path.basename(ckpt),
                "valid": rep_valid.to_dict(),
                "test": rep_test.to_dict(),
                "history": history,
            }
        )
        valid_means.append(rep_valid.mean)
        test_means.append(rep_test.mean)
        print(f"seed {s}: valid {rep_valid.mean:.4f}  test {rep_test.mean:.4f}  -> {ckpt}")
    n = len(seeds)
    payload = {
        "command": "train",
        "method": args.method,
        "data": os.path.abspath(args.data),
        "task": dataset.task,
        "config": cfg0.to_dict(),
        "seeds": seeds,
        "per_seed": per_seed,
        "valid_mean": float(np.mean(valid_means)),
        "test_mean": float(np.mean(test_means)),
        "test_std": float(np.std(test_means, ddof=1)) if n > 1 else 0.0,
        "provenance": _provenance(t0),
    }
    lines = [
        f"train method={args.method} data={args.data} seeds={seeds}",
        f"valid mean: {payload['valid_mean']:.4f}",
        f"test mean:  {payload['test_mean']:.4f} (std {payload['test_std']:.4f})",
    ]
    for entry in per_seed:
        lines.append(f"  seed {entry['seed']}: test {entry['test']['mean']:.4f}")
    _write_report(args.out, "train-report", payload, "\n".join(lines))
    print(f"test mean over {n} seed(s): {payload['test_mean']:.4f}")
    return 0


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    dataset = load_dataset_dir(args.data, task=args.task)
    model, header = load_checkpoint(args.checkpoint)
    cfg_dict = header.get("config") or {}
    if isinstance(model, MultiHeadModel):
        if args.rw_finetune:
            raise ConfigError("--rw-finetune applies to erm checkpoints only")
        beta = args.beta if args.beta is not None else float(cfg_dict.get("beta", 0.8))
        predictor = relational_predictor(model, dataset, beta, args.relations)
        method = f"relational/{args.relations}"
    else:
        cfg = TrainConfig.from_dict(cfg_dict)
        for name in ("lam", "lr", "finetune_epochs"):
            value = getattr(args, name, None)
            if value is not None:
                cfg = replace(cfg, **{name: value})
        cfg.validate()
        if args.rw_finetune:
            predictor = rwft_predictor(model, dataset, cfg)
            method = "erm+rw_finetune"
        else:
            predictor = erm_predictor(model, dataset)
            method = "erm"
    rep = evaluate(predictor, dataset, args.split)
    lines = [f"eval method={method} checkpoint={args.checkpoint}"] + _metrics_text(rep)
    print("\n".join(lines))
    if args.out:
        payload = {
            "command": "eval",
            "method": method,
            "checkpoint": os.path.abspath(args.checkpoint),
            "data": os.path.abspath(args.data),
            "split": args.split,
            "metrics": rep.to_dict(),
            "provenance": _provenance(t0),
        }
        _write_report(args.out, "eval-report", payload, "\n".join(lines))
    return 0


def cmd_ablate(args) -> int:
    t0 = time.perf_counter()
    dataset = load_dataset_dir(args.data, task=args.task)
    cfg = _load_config(args)
    seeds = _parse_seeds(args, fallback=cfg.seed)

    def factory(_seed):
        return dataset

    rel_rows = relation_ablation(seeds, cfg, dataset_factory=factory)
    con_rows = consistency_ablation(seeds, cfg, dataset_factory=factory)
    rows = [{"group": "relations", **r} for r in rel_rows]
    rows += [{"group": "consistency", **r} for r in con_rows]
    lines = [f"ablation data={args.data} seeds={seeds}"]
    lines.append(f"{'group':<12} {'variant':<10} {'mean':>8} {'std':>8}")
    for r in rows:
        lines.append(f"{r['group']:<12} {r['variant']:<10} {r['mean']:>8.4f} {r['std']:>8.4f}")
    payload = {
        "command": "ablate",
        "data": os.path.abspath(args.data),
        "config": cfg.to_dict(),
        "seeds": seeds,
        "rows": rows,
        "provenance": _provenance(t0),
    }
    _write_report(args.out, "ablation-report", payload, "\n".join(lines))
    print("\n".join(lines))
    return 0


def cmd_theory(args) -> int:
    t0 = time.perf_counter()
    try:
        grid = [int(tok) for tok in args.domain_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--domain-grid expects comma-separated integers: {args.domain_grid!r}") from exc
    if not grid:
        raise ConfigError("--domain-grid is empty")
    rows = scaling_experiment(
        grid,
        n_seeds=args.n_seeds,
        r=args.r,
        n_per_domain=args.n,
        noise=args.noise,
        lipschitz=args.lipschitz,
        n_eval=args.n_eval,
        seed=args.seed,
        c0=args.c0,
    )
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "scaling.csv")
    save_sweep_csv(csv_path, rows)
    mc_mean, mc_err = averaging_oracle(args.mc, args.seed)
    gap = abs(mc_mean - AVERAGING_ORACLE_TARGET)
    ok = gap <= 3.0 * mc_err
    lines = [f"scaling sweep -> {csv_path}"]
    lines.append(f"{'N_tr':>6} {'B':>10} {'excess':>12} {'stderr':>10}")
    for r in rows:
        lines.append(
            f"{r['N_tr']:>6} {r['B']:>10.4f} {r['mean_excess_risk']:>12.6f} {r['stderr']:>10.6f}"
        )
    lines.append(
        f"uniform-averaging floor: {mc_mean:.6f} +/- {mc_err:.6f} "
        f"(target {AVERAGING_ORACLE_TARGET:.6f}, |gap| <= 3 stderr: {ok})"
    )
    payload = {
        "command": "theory",
        "scaling": rows,
        "averaging": {
            "n_samples": args.mc,
            "mean": mc_mean,
            "stderr": mc_err,
            "target": AVERAGING_ORACLE_TARGET,
            "within_3_stderr": ok,
        },
        "provenance": _provenance(t0),
    }
    _write_report(args.out, "theory-report", payload, "\n".join(lines))
    print("\n".join(lines))
    return 0


def cmd_export_relations(args) -> int:
    ids, metas = load_meta_csv(args.meta)
    if args.adjacency:
        edges = load_adjacency(args.adjacency, known_ids=ids)
        fixed = adjacency_matrix(ids, edges)
    elif metas.shape[1] == 1:
        fixed = angle_matrix(metas[:, 0])
    else:
        raise ConfigError(
            "fixed relations need either --adjacency or single-column angle meta-data"
        )
    if args.checkpoint:
        model, header = load_checkpoint(args.checkpoint)
        if not isinstance(model, MultiHeadModel):
            raise ConfigError(f"{args.checkpoint}: not a relational checkpoint")
        net = model.relation_net
        if net.g.in_dim != metas.shape[1]:
            raise ConfigError(
                f"relation net expects meta dim {net.g.in_dim}, file has {metas.shape[1]}"
            )
        cfg_dict = header.get("config") or {}
        beta = args.beta if args.beta is not None else float(cfg_dict.get("beta", 0.8))
        matrix = build_matrix(ids, metas, net, beta, fixed)
    else:
        if args.beta is not None and args.beta != 1.0:
            raise ConfigError("beta < 1 requires --checkpoint for the learned relations")
        fused = fixed.copy()
        np.fill_diagonal(fused, 1.0)
        matrix = RelationMatrix(
            ids=ids,
            fixed=fixed,
            learned=np.zeros_like(fixed),
            fused=fused,
            beta=1.0,
        )
    save_relation_csv(args.out, matrix.ids, matrix.fused)
    print(f"wrote {len(ids)}x{len(ids)} relation matrix (beta={matrix.beta:g}) -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relgen",
        description="Relation-weighted multi-head predictors for domain shift.",
    )
    p.add_argument("--version", action="version", version=f"relgen {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    g = sub.add_parser("gen", help="generate a synthetic benchmark dataset")
    g.add_argument("kind", choices=("dg15", "spatial"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--n-per-class", type=int, default=50, help="dg15 points per class")
    g.add_argument("--rows", type=int, default=4, help="spatial grid rows")
    g.add_argument("--cols", type=int, default=4, help="spatial grid columns")
    g.add_argument("--n-per-domain", type=int, default=40, help="spatial rows per cell")
    g.add_argument("--noise", type=float, default=0.1, help="spatial label noise")
    g.set_defaults(func=cmd_gen)

    def add_config_flags(sp, with_seeds=True):
        sp.add_argument("--config", help="JSON file of training-config fields")
        sp.add_argument("--seed", type=int, default=None)
        if with_seeds:
            sp.add_argument("--seeds", default=None, help="comma-separated seed list")
        sp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="consistency-loss weight")
        sp.add_argument("--beta", type=float, default=None,
                        help="fixed/learned relation mix in [0, 1]")
        sp.add_argument("--epochs", type=int, default=None)
        sp.add_argument("--lr", type=float, default=None)
        sp.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        sp.add_argument("--relation-mode", dest="relation_mode",
                        choices=("fused", "uniform"), default=None)
        sp.add_argument("--combine-space", dest="combine_space",
                        choices=("logit", "prob"), default=None)
        sp.add_argument("--finetune-epochs", dest="finetune_epochs", type=int, default=None)

    t = sub.add_parser("train", help="train a model and write checkpoint + report")
    t.add_argument("--data", required=True, help="dataset directory (see gen)")
    t.add_argument("--method", choices=("relational", "erm"), default="relational")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--task", choices=("auto", "classification", "regression"), default="auto")
    t.add_argument("--resume", default=None, help="checkpoint to continue training from")
    add_config_flags(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=SPLITS, default="test")
    e.add_argument("--task", choices=("auto", "classification", "regression"), default="auto")
    e.add_argument("--relations", choices=INFERENCE_MODES, default="fused",
                   help="relation source for head weighting")
    e.add_argument("--beta", type=float, default=None)
    e.add_argument("--lam", type=float, default=None, help=argparse.SUPPRESS)
    e.add_argument("--lr", type=float, default=None, help="fine-tuning learning rate")
    e.add_argument("--finetune-epochs", dest="finetune_epochs", type=int, default=None)
    e.add_argument("--rw-finetune", action="store_true",
                   help="relation-weighted fine-tuning per test domain (erm checkpoints)")
    e.add_argument("--out", default=None, help="also write eval-report files here")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="relation-source and consistency-weight ablations")
    a.add_argument("--data", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--task", choices=("auto", "classification", "regression"), default="auto")
    add_config_flags(a)
    a.set_defaults(func=cmd_ablate)

    th = sub.add_parser("theory", help="risk-scaling sweep and averaging-floor check")
    th.add_argument("--out", required=True)
    th.add_argument("--domain-grid", default="8,16,32,64")
    th.add_argument("--n-seeds", dest="n_seeds", type=int, default=20)
    th.add_argument("--r", type=int, default=2, help="latent dimension")
    th.add_argument("--n", type=int, default=50, help="examples per training domain")
    th.add_argument("--noise", type=float, default=0.1)
    th.add_argument("--lipschitz", type=float, default=1.0)
    th.add_argument("--n-eval", dest="n_eval", type=int, default=10_000)
    th.add_argument("--seed", type=int, default=0)
    th.add_argument("--c0", type=float, default=None,
                    help="bandwidth constant (default: calibrate on a validation world)")
    th.add_argument("--mc", type=int, default=1_000_000,
                    help="samples for the averaging-floor check")
    th.set_defaults(func=cmd_theory)

    x = sub.add_parser("export-relations", help="write a domain-relation matrix as CSV")
    x.add_argument("--meta", required=True, help="meta-data CSV (domain_id,m_1,...)")
    x.add_argument("--adjacency", default=None, help="edge list for grid-style domains")
    x.add_argument("--checkpoint", default=None, help="relational checkpoint for learned part")
    x.add_argument("--beta", type=float, default=None)
    x.add_argument("--out", required=True, help="output CSV path")
    x.set_defaults(func=cmd_export_relations)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
