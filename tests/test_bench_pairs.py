"""tools/bench_pairs.py: run outputs in, BENCH_*.json out, and the schema every
committed BENCH_*.json follows. No timing bound: the numbers here are made up."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SIDES = ("parent", "change")
ENV_KEYS = {"nproc", "cpu", "python", "numpy", "blas", "git_sha"}


def check_case(case: dict) -> None:
    """One workload's pairs, in the layout of BENCH_theory_sweep.json."""
    assert {"workload", "command", "parent_sha", "change_sha", "note", "summary", "pairs"} <= set(case)
    pairs = case["pairs"]
    assert len(pairs) >= 2
    for metric, entry in case["summary"].items():
        assert entry["better"] in ("higher", "lower")
        for side in SIDES:
            q = entry[side]
            assert set(q) == {"median", "q1", "q3"} and q["q1"] <= q["median"] <= q["q3"]
        assert entry["ratio_of_medians"] == entry["change"]["median"] / entry["parent"]["median"]
        assert entry["pairs"] == len(pairs) and 0 <= entry["change_wins"] <= len(pairs)
    assert "work_per_s" in case["summary"]
    for pair in pairs:
        assert isinstance(pair["seed"], int) and pair["first"] in SIDES
        for side in SIDES:
            result = pair[side]
            assert set(case["summary"]) <= set(result)
            assert {"correct", "attempted", "failed", "exact_match"} <= set(result)
            assert ENV_KEYS <= set(pair["env"][side])


def cases_of(data: dict) -> list:
    """A BENCH file holds one case, or a list of them under "cases"."""
    return data["cases"] if "cases" in data else [data]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_follow_the_schema(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    for case in cases_of(data):
        check_case(case)
    if data.get("claim"):
        assert data["claim"]["workload"] in {c["workload"] for c in data["cases"]}
        assert data["claim"]["metric"] in bench_pairs.METRICS


def _run_output(work_per_s, run_s, exact=True):
    env = {"blas": "b", "blas_threads": "1", "cpu": "c", "git_sha": "unknown", "nproc": 2,
           "numpy": "n", "python": "p", "pinned_cpu": 0}
    metrics = {"setup_s": 0.1, "run_s": run_s, "work_per_s": work_per_s, "peak_rss_mb": 40.0,
               "test_error_vs_ref": 1.0, "worst_error_vs_ref": 1.0}
    return "\n".join([
        "workload w seed 0 (inputs 0), 3 iterations",
        f"  test_error 0.1  worst_error 0.5  exact_match {exact}",
        "env " + json.dumps(env),
        json.dumps({"correct": True, "attempted": 9, "failed": 0,
                    "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}),
    ]) + "\n"


def test_the_writer_summarises_alternating_pairs(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    parent = [100.0, 110.0, 90.0, 105.0]
    change = [120.0, 108.0, 115.0, 125.0]
    for i, (p, c) in enumerate(zip(parent, change)):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for pos, side in ((1, first), (2, second)):
            w = p if side == "parent" else c
            (runs / f"dg15-relational_{40 + i}_{pos}_{side}.txt").write_text(
                _run_output(w, 1000.0 / w), encoding="utf-8")
        (runs / f"theory-sweep_{40 + i}_1_parent.txt").write_text(_run_output(10.0, 1.0))
        (runs / f"theory-sweep_{40 + i}_2_change.txt").write_text(_run_output(10.0 + i, 1.0, False))
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--runs", str(runs), "--label", "x", "--parent-sha", "a",
                             "--change-sha", "b", "--claim", "dg15-relational",
                             "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert [c["workload"] for c in data["cases"]] == ["dg15-relational", "theory-sweep"]
    for case in data["cases"]:
        check_case(case)
    dg15 = data["cases"][0]
    assert [p["first"] for p in dg15["pairs"]] == ["parent", "change"] * 2
    work = dg15["summary"]["work_per_s"]
    assert work["parent"]["median"] == 102.5 and work["change"]["median"] == 117.5
    assert work["change_wins"] == 3 and dg15["summary"]["run_s"]["change_wins"] == 3
    assert data["cases"][1]["pairs"][0]["change"]["exact_match"] is False
    (runs / "theory-sweep_44_1_parent.txt").write_text(_run_output(10.0, 1.0))  # no partner
    assert bench_pairs.main(["--runs", str(runs), "--label", "x", "--parent-sha", "a",
                             "--change-sha", "b", "--out", str(out)]) == 2


def test_a_claim_names_its_metric(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    for seed in (1, 2):
        (runs / f"theory-sweep_{seed}_1_parent.txt").write_text(_run_output(10.0, 1.0))
        (runs / f"theory-sweep_{seed}_2_change.txt").write_text(_run_output(11.0, 1.0))
    out = tmp_path / "BENCH_x.json"
    argv = ["--runs", str(runs), "--label", "x", "--parent-sha", "a", "--change-sha", "b",
            "--out", str(out), "--claim"]
    for claim, metric in (("theory-sweep/peak_rss_mb", "peak_rss_mb"),
                          ("theory-sweep", "work_per_s")):
        assert bench_pairs.main(argv + [claim]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["claim"] == {"workload": "theory-sweep", "metric": metric}
    for claim in ("theory-sweep/speed", "/run_s", "theory-sweep/", "dg15-relational/run_s"):
        assert bench_pairs.main(argv + [claim]) == 2
