"""The four benchmark workloads.

Each workload is a closed loop: one client issues ``relgen`` commands one
after the other, single-threaded, each through ``relgen.cli.main(argv)``,
and the next command starts only after the previous one returned. A
workload turns the benchmark seed into its inputs, names the command that
generates them (set-up), and lists the commands of one iteration together
with the JSON report each writes. The reports are reduced to flat
``{key: number}`` dicts, which are compared against the outputs recorded
in ``reference.json``.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

# Reference outputs exist for input seeds 0 .. POOL-1; the benchmark seed
# selects one of them modulo POOL, so any seed gives checkable outputs.
POOL = 32

TRAIN_EPOCHS = 30  # TrainConfig defaults, which every training command keeps
TRAIN_BATCH = 10
THEORY_GRID = (8, 16, 32, 64)  # the default --domain-grid of `relgen theory`
THEORY_SEEDS = 500


@dataclass(frozen=True)
class Command:
    label: str  # key of this command's outputs in the reference
    argv: list
    report: str  # JSON report to check, relative to the iteration dir


@dataclass(frozen=True)
class Tolerance:
    """How far an output may sit from its reference and still count as correct."""

    abs: float = 0.0
    rel: float = 0.0

    def ok(self, value: float, ref: float) -> bool:
        return abs(value - ref) <= max(self.abs, self.rel * abs(ref))


class Workload:
    name: str
    why: str
    tolerance: Tolerance

    def setup_argv(self, data_dir: str, s: int) -> list | None:
        """The `relgen gen` command that writes the inputs, or None."""
        return None

    def commands(self, data_dir: str, out_dir: str, s: int) -> list:
        raise NotImplementedError

    def work_units(self, data_dir: str, s: int) -> int:
        """Optimizer steps (or sweep cells) done by the first command, from the inputs."""
        raise NotImplementedError

    def extract(self, label: str, report: dict) -> dict:
        raise NotImplementedError

    def errors(self, outputs: dict) -> tuple:
        """(test error, worst-domain error) of one iteration's outputs; lower is better."""
        raise NotImplementedError


def _train_examples(data_dir: str) -> int:
    with open(os.path.join(data_dir, "splits.csv"), newline="", encoding="utf-8") as fh:
        train = {row[0] for row in csv.reader(fh) if row[1:] == ["train"]}
    with open(os.path.join(data_dir, "data.csv"), newline="", encoding="utf-8") as fh:
        return sum(1 for row in csv.reader(fh) if row[0] in train)


def _train_steps(data_dir: str, n_seeds: int) -> int:
    return TRAIN_EPOCHS * math.ceil(_train_examples(data_dir) / TRAIN_BATCH) * n_seeds


def _train_seeds(s: int) -> list:
    return [3 * s, 3 * s + 1, 3 * s + 2]


def _per_seed_test(report: dict) -> dict:
    return {
        f"seed{e['seed']}/{d}": v
        for e in report["per_seed"]
        for d, v in e["test"]["per_domain"].items()
    }


def _train_or_eval(label: str, report: dict) -> dict:
    if label == "train":
        return _per_seed_test(report)
    return dict(report["metrics"]["per_domain"])


def _eval_errors(outputs: dict, error) -> tuple:
    """Mean over eval commands of the per-domain error's mean and maximum."""
    evals = [[error(v) for v in out.values()] for label, out in outputs.items()
             if label.startswith("eval")]
    return (sum(sum(e) / len(e) for e in evals) / len(evals),
            sum(max(e) for e in evals) / len(evals))


class _Dg15(Workload):
    # one flipped example in a domain of 100: reassociating the matmul sums of
    # nn.forward/backward flipped none over 6 seeds, while changing Adam's
    # beta1 from 0.9 to 0.85 still moved an accuracy past this tolerance
    tolerance = Tolerance(abs=0.011)
    method = ""

    def setup_argv(self, data_dir, s):
        return ["gen", "dg15", "--seed", str(s), "--out", data_dir]

    def work_units(self, data_dir, s):
        return _train_steps(data_dir, len(_train_seeds(s)))

    def commands(self, data_dir, out_dir, s):
        seeds = _train_seeds(s)
        cmds = [
            Command(
                "train",
                ["train", "--method", self.method, "--data", data_dir,
                 "--out", os.path.join(out_dir, "train"),
                 "--seeds", ",".join(map(str, seeds)), "--lr", "1e-3"],
                "train/train-report.json",
            )
        ]
        for t in seeds:
            ckpt = os.path.join(out_dir, "train", f"checkpoint-{self.method}-seed{t}.npz")
            cmds.append(
                Command(
                    f"eval-seed{t}",
                    ["eval", "--checkpoint", ckpt, "--data", data_dir,
                     "--out", os.path.join(out_dir, f"eval{t}")] + self.eval_flags,
                    f"eval{t}/eval-report.json",
                )
            )
        return cmds

    def extract(self, label, report):
        return _train_or_eval(label, report)

    def errors(self, outputs):
        return _eval_errors(outputs, lambda acc: 1.0 - acc)


class Dg15Relational(_Dg15):
    name = "dg15-relational"
    why = ("the paper's headline run: K=5 heads, angle relations, 3 seeds of 1,500 Adam steps "
           "over 17 arrays, so every relational layer is busy")
    method = "relational"
    eval_flags: list = []


class Dg15Pooled(_Dg15):
    name = "dg15-pooled"
    why = ("pooled ERM plus relation-weighted fine-tuning eval: bypasses heads and the relation "
           "net, so only nn/Adam/data changes may move it")
    method = "erm"
    eval_flags = ["--rw-finetune"]


class GridRelational(Workload):
    name = "grid-relational"
    why = ("6x6 spatial regression: K=18 heads, adjacency relations, 2-D meta, 2,160 steps over "
           "43 arrays, so per-head and Adam costs dominate")
    # reassociating the matmul sums of nn.forward/backward moved MSE by <= 5e-14
    tolerance = Tolerance(rel=1e-6)

    def setup_argv(self, data_dir, s):
        return ["gen", "spatial", "--rows", "6", "--cols", "6", "--seed", str(s), "--out", data_dir]

    def work_units(self, data_dir, s):
        return _train_steps(data_dir, 1)

    def commands(self, data_dir, out_dir, s):
        ckpt = os.path.join(out_dir, "train", f"checkpoint-relational-seed{s}.npz")
        return [
            Command(
                "train",
                ["train", "--method", "relational", "--data", data_dir,
                 "--out", os.path.join(out_dir, "train"), "--seed", str(s), "--lr", "1e-3"],
                "train/train-report.json",
            ),
            Command(
                "eval",
                ["eval", "--checkpoint", ckpt, "--data", data_dir,
                 "--out", os.path.join(out_dir, "eval")],
                "eval/eval-report.json",
            ),
        ]

    def extract(self, label, report):
        return _train_or_eval(label, report)

    def errors(self, outputs):
        return _eval_errors(outputs, lambda mse: mse)


class TheorySweep(Workload):
    name = "theory-sweep"
    why = ("risk-scaling sweep of 4x500 (N, seed) cells plus the 1e6-sample averaging oracle: "
           "vectorised numpy only, no nn or model code")
    tolerance = Tolerance(rel=1e-9)

    def commands(self, data_dir, out_dir, s):
        return [
            Command(
                "theory",
                ["theory", "--out", os.path.join(out_dir, "theory"), "--seed", str(1000 * s),
                 "--domain-grid", ",".join(map(str, THEORY_GRID)),
                 "--n-seeds", str(THEORY_SEEDS)],
                "theory/theory-report.json",
            )
        ]

    def work_units(self, data_dir, s):
        return len(THEORY_GRID) * THEORY_SEEDS

    def extract(self, label, report):
        out = {}
        for row in report["scaling"]:
            for key in ("B", "mean_excess_risk", "stderr"):
                out[f"N{row['N_tr']}/{key}"] = row[key]
        out["oracle/mean"] = report["averaging"]["mean"]
        out["oracle/stderr"] = report["averaging"]["stderr"]
        return out

    def errors(self, outputs):
        rows = outputs["theory"]
        risks = [rows[f"N{n}/mean_excess_risk"] for n in THEORY_GRID]
        return rows[f"N{THEORY_GRID[-1]}/mean_excess_risk"], max(risks)


WORKLOADS = {w.name: w for w in (Dg15Relational(), GridRelational(), Dg15Pooled(), TheorySweep())}
