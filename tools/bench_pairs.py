"""Turn saved perfbench/run.py outputs of parent/change pairs into a BENCH_<label>.json.

Each run's stdout is saved in one directory as ``<workload>_<seed>_<i>_<side>.txt``,
where side is ``parent`` or ``change`` and i is 1 for the run of the pair that
went first and 2 for the other. For every workload found, the file gets one case
in the layout of BENCH_theory_sweep.json: for each end-to-end metric the median
and quartiles of either side, the ratio of the medians and the number of pairs
the change won, then every pair with both sides' results and environments.

    python3 tools/bench_pairs.py --runs DIR --label dg15_relational \\
        --parent-sha SHA --change-sha SHA --note TEXT [--claim WORKLOAD[/METRIC]] \\
        [--seconds 25] [--out BENCH_dg15_relational.json]

--claim names the workload and the end-to-end metric the change claims a
gain in, e.g. ``theory-sweep/peak_rss_mb``; the metric defaults to work_per_s.

Stdlib only, so it runs wherever perfbench/run.py does.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

SIDES = ("parent", "change")
METRICS = {"work_per_s": "higher", "run_s": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}


def parse_claim(claim: str) -> dict:
    """{"workload", "metric"} of a WORKLOAD[/METRIC] claim; the metric is one of METRICS."""
    workload, slash, metric = claim.partition("/")
    metric = metric if slash else "work_per_s"
    if not workload or metric not in METRICS:
        raise ValueError(f"--claim {claim!r}: expected WORKLOAD[/METRIC], METRIC one of "
                         f"{', '.join(METRICS)}")
    return {"workload": workload, "metric": metric}


def read_run(path: pathlib.Path) -> tuple[dict, dict]:
    """(result, env) of one run: the end-to-end metrics, correctness counts and exact_match."""
    lines = path.read_text(encoding="utf-8").splitlines()
    last = json.loads(lines[-1])
    out = {m: last["metrics"][m]["value"] for m in METRICS}
    out.update({k: last[k] for k in ("correct", "attempted", "failed")})
    exact = [l for l in lines if l.lstrip().startswith("test_error ")]
    out["exact_match"] = exact[-1].rsplit("exact_match ", 1)[1].strip() == "True" if exact else None
    env = [l for l in lines if l.startswith("env ")]
    return out, json.loads(env[-1][4:]) if env else {}


def read_pairs(runs: pathlib.Path) -> dict:
    """{workload: [pair, ...]} from the run files, pairs in seed order."""
    files: dict[tuple, dict] = {}
    for path in runs.glob("*.txt"):
        workload, seed, position, side = path.stem.rsplit("_", 3)
        if side not in SIDES or position not in ("1", "2"):
            raise ValueError(f"{path.name}: expected <workload>_<seed>_<1|2>_<parent|change>.txt")
        files.setdefault((workload, int(seed)), {})[side] = (position, path)
    cases: dict[str, list] = {}
    for (workload, seed), sides in sorted(files.items()):
        if set(sides) != set(SIDES) or {p for p, _ in sides.values()} != {"1", "2"}:
            raise ValueError(f"{workload} seed {seed}: need one parent and one change run, "
                             "one first and one second")
        pair = {"seed": seed, "first": next(s for s, (p, _) in sides.items() if p == "1")}
        env = {}
        for side in SIDES:
            pair[side], env[side] = read_run(sides[side][1])
        pair["env"] = env
        cases.setdefault(workload, []).append(pair)
    return cases


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list) -> dict:
    summary = {}
    for metric, better in METRICS.items():
        side = {s: [p[s][metric] for p in pairs] for s in SIDES}
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(side["parent"], side["change"]))
        entry = {"better": better, **{s: quartiles(side[s]) for s in SIDES}}
        entry["ratio_of_medians"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_wins"] = wins
        entry["pairs"] = len(pairs)
        summary[metric] = entry
    return summary


def build(cases: dict, args) -> dict:
    claim = parse_claim(args.claim) if args.claim else None
    out = {
        "label": args.label,
        "parent_sha": args.parent_sha,
        "change_sha": args.change_sha,
        "note": args.note,
        "claim": claim,
        "cases": [],
    }
    for workload, pairs in cases.items():
        if len(pairs) < 2:
            raise ValueError(f"{workload}: quartiles need at least two pairs")
        out["cases"].append({
            "workload": workload,
            "command": f"python3 perfbench/run.py --workload {workload} --seed <seed> "
                       f"--seconds {args.seconds:g}",
            "parent_sha": args.parent_sha,
            "change_sha": args.change_sha,
            "note": args.note,
            "summary": summarise(pairs),
            "pairs": pairs,
        })
    if claim and claim["workload"] not in cases:
        raise ValueError(f"no runs of the claimed workload {claim['workload']!r}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", required=True, type=pathlib.Path, help="directory of run outputs")
    p.add_argument("--label", required=True)
    p.add_argument("--parent-sha", required=True)
    p.add_argument("--change-sha", required=True)
    p.add_argument("--note", default="")
    p.add_argument("--claim", default=None,
                   help="WORKLOAD[/METRIC]: the metric (default work_per_s) the change claims")
    p.add_argument("--seconds", type=float, default=25.0, help="the --seconds the runs used")
    p.add_argument("--out", type=pathlib.Path, default=None)
    args = p.parse_args(argv)
    try:
        result = build(read_pairs(args.runs), args)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    out = args.out or pathlib.Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
