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
from dataclasses import fields, replace

import numpy as np

from ._version import __version__
from .data import (
    SPLITS,
    TASK_REGRESSION,
    gen_dg15,
    gen_spatial_regression,
    load_adjacency,
    load_dataset_dir,
    load_meta_csv,
    save_dataset,
)
from .errors import ConfigError, DataError, NumericalError
from .experiments import ablation
from .fileio import atomic_write_text
from .model import (
    TRAIN_RELATION_MODES,
    TrainConfig,
    build_erm,
    build_model,
    check_fits,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    score,
    split_ids,
    train,
)
from .relations import (
    RELATION_MODES,
    adjacency_matrix,
    angle_between,
    build_matrix,
    check_beta,
    mode_fusion,
    save_relation_csv,
)
from .theory import (
    AVERAGING_ORACLE_TARGET,
    averaging_oracle,
    check_n_mc,
    save_sweep_csv,
    scaling_experiment,
)

# config fields that shape a model: a resumed checkpoint's values for them stand
_MODEL_FIELDS = ("combine_space", "hidden_width", "relation_width", "relation_heads")


def _provenance(t0: float) -> dict:
    return {
        "library_version": __version__,
        "wall_clock_sec": round(time.perf_counter() - t0, 3),
    }


def _write_report(out_dir: str, stem: str, payload: dict, lines: list[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_text(os.path.join(out_dir, stem + ".json"), body)
    atomic_write_text(os.path.join(out_dir, stem + ".txt"), "\n".join(lines) + "\n")


def _load_config(args, base: TrainConfig | None = None) -> tuple[TrainConfig, dict]:
    """base (or the defaults), then the keys of the --config file, then the flags given;
    with the file's keys and values ({} without a file)."""
    data = base.to_dict() if base else {}
    given = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                given = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        data.update(given)
    # the flags that override it are the TrainConfig fields the parsed args hold
    return _override(TrainConfig.from_dict(data), args,
                     [f.name for f in fields(TrainConfig) if hasattr(args, f.name)]), given


def _override(cfg: TrainConfig, args, names) -> TrainConfig:
    """cfg with the value of each of the named flags that was given."""
    return replace(cfg, **{n: getattr(args, n) for n in names if getattr(args, n) is not None})


def _checkpoint_task(model) -> str:
    """The task to read a checkpoint's dataset as. A regression model's targets are numeric
    whatever their values; a classifier's labels are still inferred, so targets that are no
    class ids do not fit it (a config error) rather than being bad data."""
    return TASK_REGRESSION if model.task == TASK_REGRESSION else "auto"


def _int_list(flag: str, raw: str) -> list[int]:
    """The comma-separated integers of a flag's value; ConfigError if malformed or empty."""
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers: {raw!r}") from exc
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def _check_out(path: str, is_file: bool) -> None:
    """ConfigError unless the --out file or directory can be made; run before any work."""
    target = os.path.abspath(path)
    if is_file and os.path.isdir(target):
        raise ConfigError(f"--out {path} is a directory")
    probe = os.path.dirname(target) if is_file else target
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {path}: {probe} is not a writable directory")


def _parse_seeds(args, cfg: TrainConfig, given: dict) -> list[int]:
    """The --seeds list, else the seed of cfg, which --seed overrides. --seeds comes
    without --seed and without a seed in given, the --config file's keys."""
    if args.seeds is None:
        return [cfg.seed]
    if args.seed is not None:
        raise ConfigError("give --seed or --seeds, not both")
    if "seed" in given:
        raise ConfigError(f"{args.config} sets seed; give it or --seeds, not both")
    seeds = _int_list("--seeds", args.seeds)
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ConfigError(f"--seeds repeats seed {repeated}")
    return seeds


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


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    relational = args.method == "relational"
    task, base = args.task, None
    if args.resume:
        model, base, _ = load_checkpoint(args.resume)
        if (model.relation_net is not None) != relational:
            raise ConfigError(f"{args.resume}: not {'a relational' if relational else 'an erm'} checkpoint")
        if task == "auto":
            task = _checkpoint_task(model)
    dataset = load_dataset_dir(args.data, task=task)
    cfg0, given = _load_config(args, base)
    for name in _MODEL_FIELDS if base else ():
        if getattr(cfg0, name) != getattr(base, name):
            raise ConfigError(f"{args.resume} holds a model with {name} "
                              f"{getattr(base, name)!r}, not {getattr(cfg0, name)!r}")
    seeds = _parse_seeds(args, cfg0, given)
    if args.resume and len(seeds) > 1:
        raise ConfigError("--resume works with a single seed")
    for split in ("valid", "test"):  # the splits the report scores, checked before training
        split_ids(dataset, split)
    cfgs = [replace(cfg0, seed=s) for s in seeds]
    if args.resume:
        models = [model]
    else:
        models = [(build_model if relational else build_erm)(dataset, cfg) for cfg in cfgs]
    histories = train(models, dataset, cfgs)
    modes = [(cfg.relation_mode, cfg.beta) for cfg in cfgs]
    reports = zip(*(score(models, dataset, modes, split) for split in ("valid", "test")))
    per_seed = []
    for cfg, model, history, (rep_valid, rep_test) in zip(cfgs, models, histories, reports):
        s = cfg.seed
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
        print(f"seed {s}: valid {rep_valid.mean:.4f}  test {rep_test.mean:.4f}  -> {ckpt}")
    n = len(seeds)
    test_means = [e["test"]["mean"] for e in per_seed]
    payload = {
        "command": "train",
        "method": args.method,
        "data": os.path.abspath(args.data),
        "task": dataset.task,
        "config": cfg0.to_dict(),
        "seeds": seeds,
        "per_seed": per_seed,
        "valid_mean": float(np.mean([e["valid"]["mean"] for e in per_seed])),
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
    _write_report(args.out, "train-report", payload, lines)
    print(f"test mean over {n} seed(s): {payload['test_mean']:.4f}")
    return 0


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    model, cfg, _ = load_checkpoint(args.checkpoint)
    dataset = load_dataset_dir(args.data, task=_checkpoint_task(model))
    check_fits(model, dataset)
    relational = model.relation_net is not None
    mode = (args.relations or cfg.relation_mode, cfg.beta if args.beta is None else args.beta)
    for flag, given, scope, applies in (
        ("--rw-finetune", args.rw_finetune, "erm checkpoints", not relational),
        ("--relations", args.relations is not None, "relational checkpoints", relational),
        ("--beta", args.beta is not None, "relational checkpoints", relational),
        ("--beta", args.beta is not None, "the fused relation mode", mode[0] == "fused"),
        ("--lr", args.lr is not None, "--rw-finetune", args.rw_finetune),
        ("--finetune-epochs", args.finetune_epochs is not None, "--rw-finetune", args.rw_finetune),
    ):
        if given and not applies:
            raise ConfigError(f"{flag} applies to {scope} only")
    if args.rw_finetune:
        cfg = _override(cfg, args, ("lr", "finetune_epochs"))
        rep = evaluate(model, dataset, cfg, args.split)
        method = "erm+rw_finetune"
    else:
        rep = score([model], dataset, [mode], args.split)[0]
        method = f"relational/{mode[0]}" if relational else "erm"
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
        _write_report(args.out, "eval-report", payload, lines)
    return 0


def cmd_ablate(args) -> int:
    t0 = time.perf_counter()
    dataset = load_dataset_dir(args.data, task=args.task)
    cfg, given = _load_config(args)
    seeds = _parse_seeds(args, cfg, given)
    rows = ablation(seeds, cfg, lambda _: dataset)
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
    _write_report(args.out, "ablation-report", payload, lines)
    print("\n".join(lines))
    return 0


def cmd_theory(args) -> int:
    t0 = time.perf_counter()
    # every input is checked before any work: --mc here, the sweep's sizes before its
    # first draw; the oracle's stream does not depend on the sweep, so it runs last
    check_n_mc(args.mc)
    rows = scaling_experiment(
        _int_list("--domain-grid", args.domain_grid),
        n_seeds=args.n_seeds,
        r=args.r,
        n_per_domain=args.n,
        noise=args.noise,
        lipschitz=args.lipschitz,
        n_eval=args.n_eval,
        seed=args.seed,
        c0=args.c0,
    )
    mc_mean, mc_err = averaging_oracle(args.mc, args.seed)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "scaling.csv")
    save_sweep_csv(csv_path, rows)
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
    _write_report(args.out, "theory-report", payload, lines)
    print("\n".join(lines))
    return 0


def cmd_export_relations(args) -> int:
    ids, metas = load_meta_csv(args.meta)
    edges = load_adjacency(args.adjacency, ids) if args.adjacency else None

    def fixed():
        return angle_between(metas, metas) if edges is None else adjacency_matrix(ids, edges)

    net, mode, beta = None, "fused", 1.0 if args.beta is None else args.beta
    check_beta(beta)
    if args.checkpoint:
        model, cfg, _ = load_checkpoint(args.checkpoint)
        if model.relation_net is None:
            raise ConfigError(f"{args.checkpoint}: not a relational checkpoint")
        net = model.relation_net
        if net.g.in_dim != metas.shape[1]:
            raise ConfigError(
                f"relation net expects meta dim {net.g.in_dim}, file has {metas.shape[1]}"
            )
        if args.beta is None:  # the relations the checkpoint was trained with
            mode, beta = cfg.relation_mode, cfg.beta
    elif beta != 1.0:
        raise ConfigError("beta < 1 requires --checkpoint for the learned relations")
    # fixed() runs only if the mode reads fixed relations, as in training
    fixed, beta = mode_fusion(mode, beta, fixed, (len(ids), len(ids)))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_relation_csv(args.out, ids, build_matrix(metas, net, beta, fixed))
    print(f"wrote {len(ids)}x{len(ids)} relation matrix (beta={beta:g}) -> {args.out}")
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

    def add_config_flags(sp):
        sp.add_argument("--config", help="JSON file of training-config fields")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--seeds", default=None, help="comma-separated seed list")
        sp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="consistency-loss weight")
        sp.add_argument("--beta", type=float, default=None,
                        help="fixed/learned relation mix in [0, 1]")
        sp.add_argument("--epochs", type=int, default=None)
        sp.add_argument("--lr", type=float, default=None)
        sp.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        sp.add_argument("--relation-mode", dest="relation_mode",
                        choices=TRAIN_RELATION_MODES, default=None)
        sp.add_argument("--combine-space", dest="combine_space",
                        choices=("logit", "prob"), default=None)

    t = sub.add_parser("train", help="train a model and write checkpoint + report")
    t.add_argument("--data", required=True, help="dataset directory (see gen)")
    t.add_argument("--method", choices=("relational", "erm"), default="relational")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--task", choices=("auto", "classification", "regression"), default="auto",
                   help="default: a resumed regression checkpoint's, else inferred from labels")
    t.add_argument("--resume", default=None, help="checkpoint to continue training from")
    add_config_flags(t)
    t.add_argument("--finetune-epochs", dest="finetune_epochs", type=int, default=None,
                   help="fine-tuning epochs stored for eval --rw-finetune")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=SPLITS, default="test")
    e.add_argument("--relations", choices=RELATION_MODES, default=None,
                   help="relation source for head weighting (default: the training mode)")
    e.add_argument("--beta", type=float, default=None)
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
        if getattr(args, "out", None) is not None:
            _check_out(args.out, is_file=args.command == "export-relations")
        # every overflow the commands meet ends in a NumericalError of their own
        with np.errstate(over="ignore", invalid="ignore"):
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
