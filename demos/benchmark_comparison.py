#!/usr/bin/env python3
"""Headline comparison on the 15-domain angular benchmark.

Trains the relation-weighted multi-head model and the pooled baseline on
fresh worlds over several seeds, plus the reweighted fine-tuning middle
ground, then breaks one seed down per test domain. The per-domain block is
the interesting part: four test domains sit between two nearby training
angles and one sits far from every training angle, and the relation
weighting pays off exactly on the bracketed four.

Run:  python3 demos/benchmark_comparison.py [--seeds 0,1,2] [--epochs 30]
"""

from __future__ import annotations

import argparse

import numpy as np

from relgen.data import gen_dg15
from relgen.experiments import method_comparison, run_erm, run_relational, tuned_config


def angle_gap(a: float, b: float) -> float:
    return abs(np.angle(np.exp(1j * (a - b))))


def per_domain_block(seed: int, cfg) -> None:
    ds = gen_dg15(seed)
    rel_model, _, rel_rep = run_relational(ds, cfg)
    erm_model, _, erm_rep = run_erm(ds, cfg)
    train_angles = ds.meta_for(ds.ids_for_split("train"))[:, 0]

    print(f"\nper test domain, seed {seed} (accuracy):")
    print(f"  {'domain':<8} {'angle':>7} {'nearest train':>14} "
          f"{'relational':>11} {'baseline':>9}")
    for did in ds.ids_for_split("test"):
        t = ds.meta_for([did])[0][0]
        nearest = np.degrees(min(angle_gap(t, s) for s in train_angles))
        tag = "far " if nearest > 45 else "near"
        print(f"  {did:<8} {np.degrees(t):>6.1f}d {nearest:>7.1f}d {tag} "
              f"{rel_rep.per_domain[did]:>11.3f} {erm_rep.per_domain[did]:>9.3f}")
    print(f"  {'mean':<8} {'':>7} {'':>14} {rel_rep.mean:>11.3f} {erm_rep.mean:>9.3f}")
    print(f"  worst test domain: relational {rel_rep.worst:.3f}, baseline {erm_rep.worst:.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    ap.add_argument("--epochs", type=int, default=None, help="override training epochs")
    args = ap.parse_args()

    seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
    cfg = tuned_config() if args.epochs is None else tuned_config(epochs=args.epochs)

    print(f"training on {len(seeds)} fresh worlds (seeds {seeds}), "
          f"{cfg.epochs} epochs, lr {cfg.lr:g}, lambda {cfg.lam:g}, beta {cfg.beta:g}")
    out = method_comparison(seeds, cfg, include_rwft=True)

    print(f"\n{'method':<14} {'mean acc':>9} {'std':>7}  per-seed")
    for name in ("relational", "rw_finetune", "erm"):
        row = out[name]
        per = "  ".join(f"{v:.3f}" for v in row["per_seed"])
        print(f"{name:<14} {row['mean']:>9.4f} {row['std']:>7.4f}  {per}")
    gap = out["relational"]["mean"] - out["erm"]["mean"]
    print(f"\nrelational - baseline gap: {gap * 100:+.1f} points")

    per_domain_block(seeds[0], cfg)


if __name__ == "__main__":
    main()
