"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 0-9 --trace-seeds 0,1 --seconds 25 [--out FILE]

Run from the repository root. Each (workload, seed) is one ``run.py``
process with tracing off; the per-layer runs use ``--trace-seeds``. For
every end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)``), their distance as a share of the
median, and the sample count, for the scaled times and for the unscaled
ones with the calibration kernel's time; for every per-layer metric the median and
whether all traced runs of that workload agreed exactly (counts must).
With ``--out`` the summary is appended to the ``runs`` list of that JSON
file, so every set of runs made stays on record; otherwise it is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    raw = next((json.loads(ln[9:]) for ln in lines if ln.startswith("unscaled ")), {})
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect outputs\n{proc.stdout}")
    return {"result": result, "env": env, "raw": raw}


def summarise(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "n": len(values),
        "values": values,
    }


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--trace-seeds", default="0,1")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--out")
    args = p.parse_args()

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    summary: dict = {"seconds": args.seconds, "started": started, "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        runs = [run_once(name, s, args.seconds, 0) for s in _seeds(args.seeds)]
        traced = [run_once(name, s, args.seconds, 1) for s in _seeds(args.trace_seeds)
                  ] if args.trace_seeds else []
        e2e = {m: summarise([r["result"]["metrics"][m]["value"] for r in runs])
               for m in runs[0]["result"]["metrics"]}
        unscaled = {m: summarise([r["raw"][m] for r in runs]) for m in runs[0]["raw"]}
        layers = {}
        for m in traced[0]["result"]["metrics"] if traced else []:
            vals = [r["result"]["metrics"][m]["value"] for r in traced]
            layers[m] = {"median": statistics.median(vals), "identical": len(set(vals)) == 1,
                         "n": len(vals)}
        summary["workloads"][name] = {
            "seeds": _seeds(args.seeds),
            "end_to_end": e2e,
            "unscaled": unscaled,
            "per_layer": layers,
            "attempted": sum(r["result"]["attempted"] for r in runs + traced),
            "failed": sum(r["result"]["failed"] for r in runs + traced),
            "loadavg": [[r["env"]["loadavg_before"][0], r["env"]["loadavg_after"][0]]
                        for r in runs],
        }
        summary["env"] = {k: v for k, v in runs[-1]["env"].items() if not k.startswith("loadavg")}
        for m, s in e2e.items():
            print(f"{name:<16} {m:<20} median {s['median']:.6g}  iqr/median {s['iqr_share']:.4f}",
                  file=sys.stderr)

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        doc.setdefault("runs", []).append(summary)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    else:
        print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
