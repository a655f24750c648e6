"""relgen benchmark runner.

    python3 perfbench/run.py --workload dg15-relational --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the repository root. One process runs one workload: it imports
relgen from ``src/``, generates the inputs from ``--seed`` (set-up, repeated
and timed), then runs whole workload iterations in-process through
``relgen.cli.main(argv)`` for ``--seconds`` seconds, checks every command's
report against ``reference.json`` and prints the metrics, one per line, with
the result as a JSON object on the last line.

Times are scaled to a fixed host speed. A child process times a fixed numpy
kernel that uses no relgen code (``calibrate.py``) before the set-up, after
it and after every iteration; each set-up or iteration time is multiplied by
REF_CALIBRATION_S over the mean of the two kernel times around it, and the
metric is the median of the scaled iterations. On a shared host whose speed
drifts by a factor of two within minutes, scaled times stay comparable
between runs made at different moments; the unscaled samples and kernel
times are printed as well.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` patches span
wrappers into relgen's modules and reports the per-layer metrics instead,
unscaled. ``--workload all`` runs every workload both ways, one child
process per run.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, by relgen or by us.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-run"
sys.path.insert(0, str(HERE))

from workloads import POOL, WORKLOADS  # noqa: E402

SETUP_REPS = 7
# calibrate.py's kernel time at the reference host speed; about the fastest
# kernel time seen on an otherwise idle 2-vCPU host
REF_CALIBRATION_S = 0.1
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import relgen.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_error_vs_ref": "ratio",
    "worst_error_vs_ref": "ratio",
}


def _relgen_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_imports(reps: int) -> list:
    """Seconds to import relgen.cli (numpy included) in fresh interpreters."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=_relgen_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import relgen from {SRC}:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class HostSpeed:
    """The calibration child process; measure() records one kernel time."""

    def __init__(self):
        self.samples: list = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self) -> None:
        """Time the kernel once, now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        self.samples.append(float(line))

    def scale(self, i: int) -> float:
        """Factor that turns a time measured between kernel runs i and i+1 into one
        at the reference speed."""
        return REF_CALIBRATION_S / ((self.samples[i] + self.samples[i + 1]) / 2)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the calibration
    kernel and the program share the same processor; returns that CPU or None."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def call(cli, argv: list) -> tuple:
    """Run one relgen command; returns (exit code, seconds, error text)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        return -1, time.perf_counter() - t0, traceback.format_exc()
    return code, time.perf_counter() - t0, sink.getvalue() if code else ""


def compare(outputs: dict, ref: dict, tol) -> list:
    """Keys whose value is missing, extra or outside the tolerance."""
    bad = sorted(set(outputs) ^ set(ref))
    bad += [k for k in sorted(set(outputs) & set(ref)) if not tol.ok(outputs[k], ref[k])]
    return bad


def environment(loadavg_before, pinned_cpu) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "pinned_cpu": pinned_cpu,
        "git_sha": _git_sha(),
        "loadavg_before": loadavg_before,
        "loadavg_after": list(os.getloadavg()),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    s = seed % POOL
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"][name][str(s)]
    if not (SRC / "relgen" / "cli.py").is_file():
        raise RuntimeError(f"no relgen sources under {SRC}")
    loadavg_before = list(os.getloadavg())
    cpu = pin_to_one_cpu()
    work = WORK / f"{name}-{os.getpid()}"
    passes: dict = {}  # pass id -> (phase, wall seconds)
    attempted = failed = 0
    errors: list = []
    host = tracer = None
    try:
        if not trace:
            host = HostSpeed()
            host.measure()
        import_s = time_imports(SETUP_REPS)
        sys.path.insert(0, str(SRC))
        import relgen.cli as cli

        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        data_dir = str(work / "data")
        setup = wl.setup_argv(data_dir, s)
        gen_s = []
        for _ in range(SETUP_REPS if setup else 0):
            if tracer:
                tracer.current_pass = len(passes)
            shutil.rmtree(data_dir, ignore_errors=True)
            code, dt, err = call(cli, setup)
            attempted += 1
            if code != 0:
                raise RuntimeError(f"set-up command failed ({code}): {err}")
            gen_s.append(dt)
            passes[len(passes)] = ("setup", dt)
        setup_s = statistics.median(import_s) + (statistics.median(gen_s) if gen_s else 0.0)
        units = wl.work_units(data_dir, s)
        if host:
            host.measure()

        run_s, work_per_s, quality, exact = [], [], [], True
        t_measure = time.perf_counter()
        while not run_s or time.perf_counter() - t_measure + statistics.median(run_s) <= seconds:
            out_dir = work / "iter"
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir()
            if tracer:
                tracer.current_pass = len(passes)
            results = []
            t0 = time.perf_counter()
            for cmd in wl.commands(data_dir, str(out_dir), s):
                results.append((cmd, call(cli, cmd.argv)))
            wall = time.perf_counter() - t0
            passes[len(passes)] = ("iteration", wall)
            if host:
                host.measure()
            outputs = {}
            for cmd, (code, dt, err) in results:
                attempted += 1
                try:
                    if code != 0:
                        raise RuntimeError(f"exit code {code}: {err.strip()[-2000:]}")
                    with open(out_dir / cmd.report, encoding="utf-8") as fh:
                        outputs[cmd.label] = wl.extract(cmd.label, json.load(fh))
                    bad = compare(outputs[cmd.label], ref[cmd.label], wl.tolerance)
                    if bad:
                        raise RuntimeError(f"outputs differ from the reference at {bad[:5]}")
                    exact = exact and outputs[cmd.label] == ref[cmd.label]
                except (OSError, KeyError, ValueError, RuntimeError) as exc:
                    failed += 1
                    errors.append(f"{cmd.label}: {exc}")
            if len(outputs) == len(results):
                quality.append(wl.errors(outputs))
            run_s.append(wall)
            work_per_s.append(units / results[0][1][1])
    finally:
        if tracer:
            tracer.uninstall()
        if host:
            host.close()
        shutil.rmtree(work, ignore_errors=True)

    # every iteration does the same work, so the first one that passed stands for all
    test_error, worst_error = quality[0] if quality else (0.0, 0.0)
    ref_test, ref_worst = wl.errors(ref)
    result = {
        "workload": name,
        "seed": seed,
        "input_seed": s,
        "iterations": len(run_s),
        "import_s": import_s,
        "gen_s": gen_s,
        "iteration_s": run_s,
        "work_per_s_samples": work_per_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "exact_match": exact and not failed,
        "test_error": test_error,
        "worst_error": worst_error,
        "raw": {},
        "calibration_s": host.samples if host else [],
        "env": environment(loadavg_before, cpu),
    }
    if trace:
        from tracer import LAYER_METRICS, layer_metrics, span_cost_s, unit_of

        values = layer_metrics(tracer, passes, span_cost_s())
        result["metrics"] = {m: (values[m], unit_of(m)) for m in LAYER_METRICS}
        tracer.save(str(WORK / f"trace-{name}.npz"))
    else:
        # kernel run 0 precedes the set-up, run 1 follows it, run i + 2 follows iteration i
        scales = [host.scale(i + 1) for i in range(len(run_s))]
        result["raw"] = {"setup_s": setup_s, "run_s": statistics.median(run_s),
                         "work_per_s": statistics.median(work_per_s),
                         "calibration_s": statistics.median(host.samples)}
        values = {
            "setup_s": setup_s * host.scale(0),
            "run_s": statistics.median(t * k for t, k in zip(run_s, scales)),
            "work_per_s": statistics.median(w / k for w, k in zip(work_per_s, scales)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_error_vs_ref": test_error / ref_test,
            "worst_error_vs_ref": worst_error / ref_worst,
        }
        result["metrics"] = {m: (values[m], unit) for m, unit in END_TO_END.items()}
    return result


def print_result(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"(inputs {result['input_seed']}), {result['iterations']} iterations")
    print("  import_s " + " ".join(f"{t:.4f}" for t in result["import_s"]))
    print("  gen_s " + " ".join(f"{t:.4f}" for t in result["gen_s"]))
    print("  iteration_s " + " ".join(f"{t:.4f}" for t in result["iteration_s"]))
    print("  calibration_s " + " ".join(f"{t:.4f}" for t in result["calibration_s"]))
    print("  work_per_s " + " ".join(f"{w:.2f}" for w in result["work_per_s_samples"]))
    for err in result["errors"]:
        print(f"  error: {err}")
    for m, (value, unit) in result["metrics"].items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {m:<42} {shown} {unit}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<42} {error_rate:>16.6f} ratio")
    print(f"  test_error {result['test_error']!r}  worst_error {result['worst_error']!r}  "
          f"exact_match {result['exact_match']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    if result["raw"]:
        print("unscaled " + json.dumps(result["raw"]))


def run_all(seed: int, seconds: float) -> int:
    ok = True
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            last = json.loads(lines[-1])
            ok = ok and last["correct"]
            summary.setdefault(name, {}).update(last["metrics"])
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # print no result line, so the run counts as failed
        traceback.print_exc()
        return 2
    print_result(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
