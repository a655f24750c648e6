"""Check one benchmark workload's outputs against its recorded references, seed by seed.

For each input seed (0 .. 31 by default, the whole reference pool), runs one
iteration of the workload's commands in-process through
``relgen.cli.main(argv)``, as ``perfbench/run.py`` does, and compares every
command's flat outputs with ``perfbench/reference.json`` under the
workload's tolerance. Prints one line per seed and a last line with the
largest deviation over all seeds: the absolute and relative difference and
their share of what the tolerance allows (at most 1 is within tolerance).
Exits 1 if any output is out of tolerance, missing or extra, or a command
fails; 0 otherwise.

    python3 tools/ref_check.py --workload grid-relational [--seeds 0-31]
        [--reference perfbench/reference.json]

``perfbench/`` is only read: its ``workloads`` module gives the commands,
the tolerance and how outputs are read from the reports, and ``run.py``'s
``call`` and ``compare`` run each command and decide which outputs are out
of tolerance, so this check and the benchmark's agree. The relgen under
``src`` next to this file is imported. Stdlib, numpy and relgen only.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, as in perfbench/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import relgen.cli as cli  # noqa: E402
from run import call, compare  # noqa: E402
from workloads import POOL, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """Seeds from "a-b" ranges and single numbers, comma-separated, e.g. "0-3,7"."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if dash else [int(lo)]
    return seeds


def run_seed(workload, s: int, work: pathlib.Path) -> dict:
    """{label: flat outputs} of one iteration of the workload's commands on input seed s;
    a RuntimeError if a command exits non-zero or raises."""
    data_dir, outputs = str(work / "data"), {}
    setup = workload.setup_argv(data_dir, s)
    commands = [("setup", setup, None)] if setup else []
    commands += [(c.label, c.argv, c.report) for c in workload.commands(data_dir, str(work), s)]
    for label, argv, report in commands:
        code, _, err = call(cli, argv)
        if code != 0:
            raise RuntimeError(f"{label} exited {code}: {err.strip()[-500:]}")
        if report is not None:
            with open(work / report, encoding="utf-8") as fh:
                outputs[label] = workload.extract(label, json.load(fh))
    return outputs


def check(outputs: dict, ref: dict, tolerance) -> tuple[list, dict]:
    """(keys missing, extra or out of tolerance, worst deviation) of one seed's outputs.

    The keys are run.compare's, command by command. The worst deviation is
    the {"key", "abs", "rel", "share"} of the output whose difference takes
    the largest share of what the tolerance allows; a NaN difference takes
    an infinite share.
    """
    bad = [f"{label}/{k}" for label in sorted(set(outputs) | set(ref))
           for k in compare(outputs.get(label, {}), ref.get(label, {}), tolerance)]
    flat = {f"{label}/{k}": v for label, out in outputs.items() for k, v in out.items()}
    flat_ref = {f"{label}/{k}": v for label, out in ref.items() for k, v in out.items()}
    worst = {"key": None, "abs": 0.0, "rel": 0.0, "share": 0.0}
    for key in sorted(set(flat) & set(flat_ref)):
        value, want = flat[key], flat_ref[key]
        diff = abs(value - want)
        allowed = max(tolerance.abs, tolerance.rel * abs(want))
        share = (0.0 if diff == 0.0 else
                 diff / allowed if allowed > 0.0 and not math.isnan(diff) else math.inf)
        if share > worst["share"] or worst["key"] is None:
            rel = diff / abs(want) if want else (0.0 if diff == 0.0 else math.inf)
            worst = {"key": key, "abs": diff, "rel": rel, "share": share}
    return bad, worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seeds", default=f"0-{POOL - 1}", help="input seeds, e.g. 0-31 or 0,5")
    p.add_argument("--reference", type=pathlib.Path, default=ROOT / "perfbench" / "reference.json")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    refs = json.loads(args.reference.read_text(encoding="utf-8"))["workloads"][args.workload]
    failed, overall = 0, None
    for s in parse_seeds(args.seeds):
        with tempfile.TemporaryDirectory(prefix="ref-check-") as work:
            try:
                outputs = run_seed(workload, s, pathlib.Path(work))
            except RuntimeError as exc:
                print(f"seed {s}: FAILED {exc}")
                failed += 1
                continue
        bad, worst = check(outputs, refs[str(s)], workload.tolerance)
        failed += bool(bad)
        print(f"seed {s}: {'OUT OF TOLERANCE' if bad else 'ok'}  worst {worst['key']}  "
              f"abs {worst['abs']:.3g}  rel {worst['rel']:.3g}  share {worst['share']:.3g}"
              + (f"  missing, extra or out of tolerance: {bad}" if bad else ""))
        if overall is None or worst["share"] > overall[1]["share"]:
            overall = (s, worst)
    tol = workload.tolerance
    print(f"{args.workload}: tolerance abs {tol.abs:g} rel {tol.rel:g}; "
          + (f"largest deviation at seed {overall[0]}, {overall[1]['key']}: abs "
             f"{overall[1]['abs']:.3g}, rel {overall[1]['rel']:.3g}, share of tolerance "
             f"{overall[1]['share']:.3g}; " if overall else "")
          + f"{failed} seed(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
