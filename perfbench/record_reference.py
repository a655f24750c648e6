"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Run from the repository root. For each workload and each input seed
0 .. POOL-1, runs one iteration of the workload's commands and stores the
flat outputs of every command's report in ``perfbench/reference.json``.
Re-record only when a change is meant to alter results, and say why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from workloads import POOL, WORKLOADS


def record(name: str, cli) -> dict:
    wl = WORKLOADS[name]
    refs = {}
    for s in range(POOL):
        work = run.WORK / f"record-{name}-{s}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            data_dir = str(work / "data")
            argv = wl.setup_argv(data_dir, s)
            if argv and run.call(cli, argv)[0] != 0:
                raise RuntimeError(f"{name} seed {s}: set-up failed")
            refs[str(s)] = {}
            for cmd in wl.commands(data_dir, str(work), s):
                code, _, err = run.call(cli, cmd.argv)
                if code != 0:
                    raise RuntimeError(f"{name} seed {s}: {cmd.label} failed: {err}")
                with open(work / cmd.report, encoding="utf-8") as fh:
                    refs[str(s)][cmd.label] = wl.extract(cmd.label, json.load(fh))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name} seed {s}: {len(refs[str(s)])} commands recorded", file=sys.stderr)
    return refs


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args()
    sys.path.insert(0, str(run.SRC))
    import relgen.cli as cli

    path = run.HERE / "reference.json"
    doc = {"pool": POOL, "workloads": {}}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
    for name in args.workload or list(WORKLOADS):
        doc["workloads"][name] = record(name, cli)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
