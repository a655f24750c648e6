#!/usr/bin/env python3
"""End-to-end walkthrough on a hand-built dataset.

Builds a small six-domain classification problem from scratch (domains are
points on a ring, labels separate two shifted clusters), writes it to the
on-disk CSV layout, loads it back, trains the relation-weighted model, and
exports the fused relation matrix. This is the template to copy when
bringing your own domains: produce the same three CSV files (plus an
optional adjacency list) and everything downstream works unchanged.

Run:  python3 demos/custom_data_walkthrough.py [--workdir walkthrough-out]
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from relgen.data import DomainDataset, load_dataset_dir, save_dataset
from relgen.model import TrainConfig, build_model, score, train
from relgen.relations import build_matrix, save_relation_csv
from relgen.rng import substream


def build_ring_dataset(seed: int = 0, n_per_class: int = 40) -> DomainDataset:
    # held-out domains sit between training angles, the regime the relation
    # weighting is designed for
    angles = np.array([0.35, 1.3, 1.85, 2.4, 3.0, 4.1])
    ids = [f"ring{k}" for k in range(len(angles))]
    split = {
        "ring0": "train", "ring1": "train", "ring2": "test", "ring3": "train",
        "ring4": "valid", "ring5": "train",
    }
    xs, ys, doms = [], [], []
    for d, t in enumerate(angles):
        key = 2.5 * np.array([np.cos(t), np.sin(t)])
        rng = substream(seed, "ring", d)
        pos = rng.normal(size=(n_per_class, 2)) + key
        neg = rng.normal(size=(n_per_class, 2)) - key
        xs.append(np.vstack([pos, neg]))
        ys.append(np.concatenate([np.ones(n_per_class), np.zeros(n_per_class)]))
        doms.append(np.full(2 * n_per_class, d))
    return DomainDataset(
        x=np.vstack(xs), y=np.concatenate(ys), domain=np.concatenate(doms),
        ids=ids, meta=angles[:, None], split=split, task="classification",
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", default="walkthrough-out")
    args = ap.parse_args()

    data_dir = os.path.join(args.workdir, "ring-data")
    ds = build_ring_dataset()
    paths = save_dataset(ds, data_dir)
    print("wrote the dataset layout:")
    for name in sorted(paths):
        print(f"  {paths[name]}")
    with open(paths["data"], encoding="utf-8") as fh:
        head = [next(fh).rstrip() for _ in range(3)]
    print("first data rows:\n  " + "\n  ".join(head))

    loaded = load_dataset_dir(data_dir)
    assert loaded.ids == ds.ids and loaded.task == "classification"
    print(f"\nloaded back: {len(loaded.ids)} domains, "
          f"{loaded.x.shape[0]} examples, splits "
          f"{ {s: len(loaded.ids_for_split(s)) for s in ('train', 'valid', 'test')} }")

    cfg = TrainConfig(lr=1e-3, epochs=20, seed=0)
    model = build_model(loaded, cfg)
    history = train(model, loaded, cfg)
    print(f"\ntrained {cfg.epochs} epochs; "
          f"final train loss {history[-1]['loss']:.4f}, "
          f"best valid accuracy {max(h['valid'] for h in history):.3f}")

    for split in ("valid", "test"):
        rep = score([model], loaded, [("fused", cfg.beta)], split)[0]
        print(f"{split}: mean {rep.mean:.3f}, worst domain {rep.worst:.3f}, "
              f"per domain { {d: round(v, 3) for d, v in rep.per_domain.items()} }")

    train_ids = loaded.ids_for_split("train")
    fused = build_matrix(
        loaded.meta_for(train_ids),
        model.relation_net,
        cfg.beta,
        loaded.fixed_between(train_ids, train_ids),
    )
    rel_csv = os.path.join(args.workdir, "relations.csv")
    save_relation_csv(rel_csv, train_ids, fused)
    print(f"\nfused train-domain relations (beta={cfg.beta:g}) -> {rel_csv}")
    with np.printoptions(precision=2, suppress=True):
        print(fused)


if __name__ == "__main__":
    main()
