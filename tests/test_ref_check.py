"""tools/ref_check.py: one input seed of a workload against its recorded references, and
the comparison that flags an output out of tolerance."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ref_check", ROOT / "tools" / "ref_check.py")
ref_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref_check)


def test_seed_ranges_parse():
    assert ref_check.parse_seeds("0-3,7") == [0, 1, 2, 3, 7]
    assert ref_check.parse_seeds("5") == [5]


def test_one_grid_seed_lies_within_its_tolerance(tmp_path, capsys):
    # the reference pool's seed 0; each output's share of the tolerance is at most 1
    reference = ROOT / "perfbench" / "reference.json"
    assert ref_check.main(["--workload", "grid-relational", "--seeds", "0",
                           "--reference", str(reference)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed 0: ok")
    assert lines[-1].startswith("grid-relational: tolerance abs 0 rel 1e-06;")
    assert lines[-1].endswith("0 seed(s) failed")


def test_an_output_past_its_tolerance_or_a_missing_one_is_flagged():
    tolerance = ref_check.WORKLOADS["grid-relational"].tolerance  # rel 1e-6
    ref = {"eval": {"a": 2.0, "b": 1.0}}
    bad, worst = ref_check.check({"eval": {"a": 2.0 + 1e-6, "b": 1.0}}, ref, tolerance)
    assert bad == [] and worst["key"] == "eval/a" and 0.49 < worst["share"] < 0.51
    bad, worst = ref_check.check({"eval": {"a": 2.0, "b": 1.0 + 2e-6}}, ref, tolerance)
    assert bad == ["eval/b"] and worst["key"] == "eval/b" and worst["share"] > 1.0
    bad, _ = ref_check.check({"eval": {"a": 2.0}}, ref, tolerance)
    assert bad == ["eval/b"]


def test_a_nan_output_is_out_of_tolerance_and_hides_no_later_one():
    tolerance = ref_check.WORKLOADS["grid-relational"].tolerance
    ref = {"eval": {"a": 2.0, "b": 1.0}}
    bad, worst = ref_check.check({"eval": {"a": float("nan"), "b": 1.0 + 2e-6}}, ref, tolerance)
    assert bad == ["eval/a", "eval/b"]
    assert worst["key"] == "eval/a" and worst["share"] == float("inf")


def test_a_command_that_raises_is_a_failed_seed(capsys, monkeypatch):
    def boom(argv):
        raise ValueError("broken command")

    monkeypatch.setattr(ref_check.cli, "main", boom)
    assert ref_check.main(["--workload", "grid-relational", "--seeds", "0,1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("seed 0: FAILED setup exited -1: Traceback")
    assert "ValueError: broken command\nseed 1: FAILED" in out
    assert out.splitlines()[-1].endswith("2 seed(s) failed")


def test_a_doctored_reference_fails_the_run(tmp_path, capsys):
    doc = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    eval_out = doc["workloads"]["grid-relational"]["0"]["eval"]
    key = sorted(eval_out)[0]
    eval_out[key] *= 1.01
    doctored = tmp_path / "reference.json"
    doctored.write_text(json.dumps(doc), encoding="utf-8")
    assert ref_check.main(["--workload", "grid-relational", "--seeds", "0",
                           "--reference", str(doctored)]) == 1
    out = capsys.readouterr().out
    assert f"seed 0: OUT OF TOLERANCE  worst eval/{key}" in out
    assert out.splitlines()[-1].endswith("1 seed(s) failed")
