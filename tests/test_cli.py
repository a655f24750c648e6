"""Command-line surface: generation round-trips, train/eval/ablate/theory
report files, exit codes for the three failure families, and the relation
matrix export."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relgen.cli as cli
import relgen.model as model_module
from relgen.cli import main
from relgen.relations import angle_between
from relgen.data import load_meta_csv

from reference import load_relation_csv

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dg15_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("dg15")
    assert run("gen", "dg15", "--seed", "0", "--n-per-class", "6", "--out", str(d)) == 0
    return d


@pytest.fixture(scope="module")
def spatial_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("spatial")
    assert run("gen", "spatial", "--seed", "0", "--n-per-domain", "6", "--out", str(d)) == 0
    return d


@pytest.fixture(scope="module")
def trained(dg15_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run(
        "train", "--method", "relational", "--data", str(dg15_dir),
        "--out", str(out), "--seed", "0", "--epochs", "2", "--lr", "1e-3",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_erm(dg15_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained-erm")
    code = run(
        "train", "--method", "erm", "--data", str(dg15_dir),
        "--out", str(out), "--seed", "0", "--epochs", "2", "--lr", "1e-3",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_uniform(dg15_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained-uniform")
    code = run(
        "train", "--data", str(dg15_dir), "--out", str(out), "--seed", "0", "--epochs", "2",
        "--lr", "1e-3", "--relation-mode", "uniform",
    )
    assert code == 0
    return out


# -- gen ------------------------------------------------------------------------


def test_gen_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", "dg15", "--seed", "3", "--n-per-class", "5", "--out", str(a)) == 0
    assert run("gen", "dg15", "--seed", "3", "--n-per-class", "5", "--out", str(b)) == 0
    for name in ("data.csv", "meta.csv", "splits.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_spatial_layout(spatial_dir):
    meta_lines = (spatial_dir / "meta.csv").read_text().splitlines()
    assert len(meta_lines) == 17  # header + 16 grid cells
    adjacency = (spatial_dir / "adjacency.txt").read_text().splitlines()
    assert len(adjacency) == 24


def test_gen_rejects_bad_sizes(tmp_path):
    assert run("gen", "dg15", "--n-per-class", "0", "--out", str(tmp_path / "x")) == 2


# Each size's arrays need more than 2**57 bytes, past any address space, so no
# overcommit mode maps them; the check allocates and touches none of that memory.
@pytest.mark.parametrize("kind,flags,name", [
    ("dg15", ["--n-per-class", str(10**17)], f"n_per_class = {10**17}"),
    ("spatial", ["--n-per-domain", str(10**17)], f"n_rows * n_cols * n_per_domain = {16 * 10**17}"),
    ("spatial", ["--rows", str(10**9), "--cols", str(10**9)],
     f"n_rows * n_cols * n_per_domain = {40 * 10**18}"),  # 40 examples per cell by default
])
def test_gen_sizes_that_cannot_be_allocated_exit_2(tmp_path, capsys, kind, flags, name):
    out = tmp_path / "d"
    assert run("gen", kind, *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} cannot be allocated (") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,flags,field", [
    ("train", [], "hidden_width"), ("train", [], "relation_width"), ("train", [], "relation_heads"),
    ("train", ["--method", "erm"], "hidden_width"), ("ablate", [], "hidden_width"),
    ("ablate", [], "relation_width"), ("ablate", [], "relation_heads"),
])
def test_model_sizes_that_cannot_be_allocated_exit_2(dg15_dir, tmp_path, monkeypatch, capsys,
                                                     command, flags, field):
    # as in the gen test above, 10**17 units of width need more than 2**57 bytes
    def no_training(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(model_module, "_train_loop", no_training)
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps({field: 10**17}))
    assert run(command, "--data", str(dg15_dir), "--out", str(out), "--config", str(cfg), *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} = {10**17} cannot be allocated (")
    assert err.count("\n") == 1 and not out.exists()


# -- train ----------------------------------------------------------------------


def test_train_writes_checkpoint_and_reports(trained):
    assert (trained / "checkpoint-relational-seed0.npz").exists()
    report = json.loads((trained / "train-report.json").read_text())
    assert report["method"] == "relational"
    assert report["seeds"] == [0]
    assert report["config"]["epochs"] == 2
    assert report["config"]["lr"] == pytest.approx(1e-3)
    assert 0.0 <= report["test_mean"] <= 1.0
    assert len(report["per_seed"][0]["history"]) == 2
    text = (trained / "train-report.txt").read_text()
    assert "test mean" in text


def test_eval_matches_the_train_report(trained, dg15_dir, tmp_path):
    out = tmp_path / "eval"
    code = run(
        "eval", "--checkpoint", str(trained / "checkpoint-relational-seed0.npz"),
        "--data", str(dg15_dir), "--split", "test", "--out", str(out),
    )
    assert code == 0
    eval_report = json.loads((out / "eval-report.json").read_text())
    train_report = json.loads((trained / "train-report.json").read_text())
    assert eval_report["metrics"]["mean"] == pytest.approx(
        train_report["per_seed"][0]["test"]["mean"], abs=1e-12
    )
    assert eval_report["method"] == "relational/fused"


def test_eval_and_export_default_to_the_training_relation_mode(dg15_dir, tmp_path):
    """A uniform-trained checkpoint is scored and exported with the equal weights it trained with."""
    out = tmp_path / "t"
    assert run("train", "--data", str(dg15_dir), "--out", str(out), "--epochs", "2",
               "--lr", "1e-3", "--relation-mode", "uniform") == 0
    ckpt = str(out / "checkpoint-relational-seed0.npz")
    assert run("eval", "--checkpoint", ckpt, "--data", str(dg15_dir),
               "--out", str(tmp_path / "e")) == 0
    eval_report = json.loads((tmp_path / "e" / "eval-report.json").read_text())
    train_report = json.loads((out / "train-report.json").read_text())
    assert eval_report["metrics"]["mean"] == train_report["per_seed"][0]["test"]["mean"]
    assert eval_report["method"] == "relational/uniform"
    csv = tmp_path / "r.csv"
    assert run("export-relations", "--meta", str(dg15_dir / "meta.csv"),
               "--checkpoint", ckpt, "--out", str(csv)) == 0
    assert np.array_equal(load_relation_csv(str(csv))[1], np.ones((15, 15)))


def test_resume_with_zero_epochs_reproduces_metrics(trained, dg15_dir, tmp_path):
    out = tmp_path / "resumed"
    code = run(
        "train", "--method", "relational", "--data", str(dg15_dir),
        "--out", str(out), "--seed", "0", "--epochs", "0",
        "--resume", str(trained / "checkpoint-relational-seed0.npz"),
    )
    assert code == 0
    a = json.loads((trained / "train-report.json").read_text())
    b = json.loads((out / "train-report.json").read_text())
    assert b["per_seed"][0]["test"] == a["per_seed"][0]["test"]


def test_resume_starts_from_the_checkpoint_config(dg15_dir, tmp_path):
    """The checkpoint's config, then the --config keys, then the flags; a non-default beta is kept."""
    first = tmp_path / "first"
    assert run("train", "--data", str(dg15_dir), "--out", str(first), "--beta", "0.3",
               "--lr", "1e-3", "--epochs", "2", "--seed", "5") == 0
    ckpt = str(first / "checkpoint-relational-seed5.npz")
    resumed = tmp_path / "resumed"
    assert run("train", "--data", str(dg15_dir), "--out", str(resumed), "--epochs", "0",
               "--resume", ckpt) == 0
    a = json.loads((first / "train-report.json").read_text())
    b = json.loads((resumed / "train-report.json").read_text())
    assert b["config"] == {**a["config"], "epochs": 0}
    assert b["per_seed"][0]["test"] == a["per_seed"][0]["test"]
    _, config, header = model_module.load_checkpoint(str(resumed / "checkpoint-relational-seed5.npz"))
    assert header["config"] == config.to_dict() == b["config"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 0.25, "lr": 2e-3}))
    assert run("train", "--data", str(dg15_dir), "--out", str(tmp_path / "r2"), "--epochs", "0",
               "--resume", ckpt, "--config", str(cfg), "--lr", "3e-3") == 0
    c = json.loads((tmp_path / "r2" / "train-report.json").read_text())["config"]
    assert (c["beta"], c["lam"], c["lr"], c["seed"]) == (0.3, 0.25, 3e-3, 5)


@pytest.mark.parametrize(
    "flags,field",
    [(["--combine-space", "prob"], "combine_space"),
     ({"hidden_width": 8}, "hidden_width"),
     ({"relation_width": 8}, "relation_width"),
     ({"relation_heads": 2}, "relation_heads")],
)
def test_resume_rejects_a_config_of_another_model(trained, dg15_dir, tmp_path, capsys, flags, field):
    if isinstance(flags, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        flags = ["--config", str(cfg)]
    out = tmp_path / "o"
    ckpt = str(trained / "checkpoint-relational-seed0.npz")
    assert run("train", "--data", str(dg15_dir), "--out", str(out), "--epochs", "1",
               "--resume", ckpt, *flags) == 2
    assert f"holds a model with {field} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["relational", "erm"])
def test_resume_rejects_a_checkpoint_of_the_other_kind(trained, trained_erm, dg15_dir, tmp_path,
                                                       capsys, method):
    ckpt = (trained_erm / "checkpoint-erm-seed0.npz" if method == "relational"
            else trained / "checkpoint-relational-seed0.npz")
    out = tmp_path / "o"
    assert run("train", "--method", method, "--data", str(dg15_dir), "--out", str(out),
               "--resume", str(ckpt)) == 2
    assert f"not {'a relational' if method == 'relational' else 'an erm'} checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_eval_and_resume_read_the_data_as_the_checkpoint_task(spatial_dir, tmp_path, capsys):
    """A regression model trained on nonnegative integer targets, which --task auto reads as
    class labels: eval reads the data as the checkpoint's task, and so does --resume unless
    --task is given."""
    counts = tmp_path / "counts"
    shutil.copytree(spatial_dir, counts)
    rows = [line.split(",") for line in (counts / "data.csv").read_text().splitlines()]
    for row in rows[1:]:
        row[1] = str(abs(round(float(row[1]))))
    (counts / "data.csv").write_text("\n".join(",".join(row) for row in rows) + "\n")
    trained = tmp_path / "trained"
    assert run("train", "--data", str(counts), "--out", str(trained), "--task", "regression",
               "--epochs", "1") == 0
    ckpt = str(trained / "checkpoint-relational-seed0.npz")
    out = tmp_path / "eval"
    assert run("eval", "--checkpoint", ckpt, "--data", str(counts), "--out", str(out)) == 0
    assert json.loads((out / "eval-report.json").read_text())["metrics"]["metric"] == "mse"
    resumed = tmp_path / "resumed"
    assert run("train", "--data", str(counts), "--out", str(resumed), "--epochs", "0",
               "--resume", ckpt) == 0
    assert json.loads((resumed / "train-report.json").read_text())["task"] == "regression"
    capsys.readouterr()
    assert run("train", "--data", str(counts), "--out", str(tmp_path / "o"), "--epochs", "0",
               "--resume", ckpt, "--task", "classification") == 2
    assert "regression model expects" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # eval has no --task to disagree with its checkpoint
        run("eval", "--checkpoint", ckpt, "--data", str(counts), "--task", "regression")
    assert exc.value.code == 2


def test_train_multi_seed_aggregates(dg15_dir, tmp_path):
    out = tmp_path / "multi"
    code = run(
        "train", "--method", "erm", "--data", str(dg15_dir),
        "--out", str(out), "--seeds", "0,1", "--epochs", "1", "--lr", "1e-3",
    )
    assert code == 0
    report = json.loads((out / "train-report.json").read_text())
    assert report["seeds"] == [0, 1]
    means = [e["test"]["mean"] for e in report["per_seed"]]
    assert report["test_mean"] == pytest.approx(np.mean(means))
    assert report["test_std"] == pytest.approx(np.std(means, ddof=1))
    assert (out / "checkpoint-erm-seed1.npz").exists()


def test_config_file_is_read_and_overridden(dg15_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochs": 1, "lr": 1e-3, "lam": 0.25}))
    out = tmp_path / "cfgrun"
    code = run(
        "train", "--method", "relational", "--data", str(dg15_dir),
        "--out", str(out), "--config", str(cfg_path), "--lambda", "0.75",
    )
    assert code == 0
    report = json.loads((out / "train-report.json").read_text())
    assert report["config"]["lam"] == pytest.approx(0.75)  # flag wins
    assert report["config"]["epochs"] == 1


# -- exit codes -------------------------------------------------------------------


def test_config_errors_exit_2(dg15_dir, trained, tmp_path, capsys):
    out = str(tmp_path / "x")
    base = ["train", "--data", str(dg15_dir), "--out", out, "--epochs", "1"]
    assert run(*base, "--lambda", "-1") == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"learning_rate": 0.1}))
    assert run(*base, "--config", str(bad_cfg)) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert run(*base, "--config", str(not_json)) == 2
    assert run(*base, "--config", str(tmp_path / "missing.json")) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert run(*base, "--config", str(not_object)) == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"epochs": 1, "x": "\xff"}')
    for command in (base, ["ablate", "--data", str(dg15_dir), "--out", out, "--seeds", "0,1"]):
        capsys.readouterr()
        assert run(*command, "--config", str(not_utf8)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot read config {not_utf8}")
    assert run(*base, "--seeds", "0,1", "--resume",
               str(trained / "checkpoint-relational-seed0.npz")) == 2
    assert run(*base, "--seeds", "0,x") == 2
    capsys.readouterr()
    assert run(*base, "--seeds", ",") == 2
    assert capsys.readouterr().err == "config error: --seeds is empty\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["gen", "train", "eval", "ablate", "theory", "export-relations"])
def test_unwritable_out_exits_2_before_any_work(command, dg15_dir, trained, tmp_path,
                                                monkeypatch, capsys):
    """An --out under a regular file is rejected, naming it, before any work, and
    the run leaves nothing behind."""
    (tmp_path / "f").write_text("")
    out = str(tmp_path / "f" / ("x.csv" if command == "export-relations" else "sub"))

    def no_training(*args, **kwargs):
        raise AssertionError("trained despite an unwritable --out")

    monkeypatch.setattr(cli, "train", no_training)
    data = ["--data", str(dg15_dir)]
    argv = {
        "gen": ["dg15", "--n-per-class", "6"],
        "train": [*data, "--epochs", "1"],
        "eval": ["--checkpoint", str(trained / "checkpoint-relational-seed0.npz"), *data],
        "ablate": [*data, "--epochs", "1", "--seeds", "0,1"],
        "theory": ["--domain-grid", "4", "--n-seeds", "2", "--n-eval", "100", "--mc", "100"],
        "export-relations": ["--meta", str(dg15_dir / "meta.csv")],
    }[command]
    assert run(command, *argv, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"config error: --out {out}: {tmp_path / 'f'} is not a writable directory\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_export_makes_the_directory_of_its_file(dg15_dir, tmp_path):
    out = tmp_path / "new" / "dir" / "r.csv"
    assert run("export-relations", "--meta", str(dg15_dir / "meta.csv"), "--out", str(out)) == 0
    assert load_relation_csv(str(out))[1].shape == (15, 15)
    assert run("export-relations", "--meta", str(dg15_dir / "meta.csv"), "--out", str(out.parent)) == 2


@pytest.mark.parametrize(
    "flag,value",
    [("--lr", "nan"), ("--lr", "inf"), ("--lambda", "nan"), ("--lambda", "inf"),
     ("--config", '{"weight_decay": NaN}'), ("--config", '{"weight_decay": Infinity}')],
)
def test_non_finite_hyperparameters_exit_2(dg15_dir, tmp_path, flag, value):
    if flag == "--config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(value)
        value = str(cfg)
    out = tmp_path / "x"
    assert run("train", "--data", str(dg15_dir), "--out", str(out), "--epochs", "1", flag, value) == 2
    assert not out.exists()  # rejected before training, so no checkpoint


def test_rw_finetune_needs_an_erm_checkpoint(trained, dg15_dir):
    code = run(
        "eval", "--checkpoint", str(trained / "checkpoint-relational-seed0.npz"),
        "--data", str(dg15_dir), "--rw-finetune",
    )
    assert code == 2


@pytest.mark.parametrize(
    "kind,flags,scope",
    [("erm", ["--relations", "fixed"], "relational checkpoints"),
     ("erm", ["--beta", "0.5"], "relational checkpoints"),
     ("erm", ["--beta", "5"], "relational checkpoints"),
     ("erm", ["--lr", "1e-3"], "--rw-finetune"),
     ("erm", ["--finetune-epochs", "1"], "--rw-finetune"),
     ("relational", ["--lr", "1e-3"], "--rw-finetune"),
     ("relational", ["--finetune-epochs", "1"], "--rw-finetune"),
     ("relational", ["--beta", "0.3", "--relations", "fixed"], "the fused relation mode"),
     ("relational", ["--beta", "0.3", "--relations", "learned"], "the fused relation mode"),
     ("relational", ["--beta", "0.3", "--relations", "uniform"], "the fused relation mode"),
     ("uniform", ["--beta", "0.3"], "the fused relation mode")],
)
def test_eval_rejects_flags_that_do_not_apply(trained, trained_erm, trained_uniform, dg15_dir,
                                              tmp_path, capsys, kind, flags, scope):
    ckpt = {"relational": trained / "checkpoint-relational-seed0.npz",
            "uniform": trained_uniform / "checkpoint-relational-seed0.npz",
            "erm": trained_erm / "checkpoint-erm-seed0.npz"}[kind]
    out = tmp_path / "e"
    assert run("eval", "--checkpoint", str(ckpt), "--data", str(dg15_dir), "--out", str(out),
               *flags) == 2
    assert f"config error: {flags[0]} applies to {scope} only" in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_3(tmp_path):
    assert run("train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")) == 3


def test_truncated_checkpoint_exits_3(trained, dg15_dir, tmp_path):
    whole = (trained / "checkpoint-relational-seed0.npz").read_bytes()
    cut = tmp_path / "cut.npz"
    cut.write_bytes(whole[:300])
    out = tmp_path / "eval"
    code = run("eval", "--checkpoint", str(cut), "--data", str(dg15_dir), "--out", str(out))
    assert code == 3
    assert not out.exists()


def _rewrite_header(src, dst, **fields):
    """Copy a checkpoint, setting fields of its JSON header."""
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    header = json.loads(arrays["__header__"].tobytes().decode())
    header.update(fields)
    arrays["__header__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), np.uint8)
    np.savez(dst, **arrays)


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize("field,value", [("combine_space", "x"), ("combine_space", "prob"),
                                         ("task", "x")])
def test_a_damaged_header_field_exits_3(trained, dg15_dir, tmp_path, capsys, command, field,
                                        value):
    # the checkpoint was trained with combine_space "logit", so "prob" disagrees with its config
    damaged = tmp_path / "damaged.npz"
    _rewrite_header(trained / "checkpoint-relational-seed0.npz", damaged, **{field: value})
    out = tmp_path / "out"
    capsys.readouterr()
    if command == "eval":
        code = run("eval", "--checkpoint", str(damaged), "--data", str(dg15_dir), "--out", str(out))
    else:
        code = run("train", "--data", str(dg15_dir), "--out", str(out), "--epochs", "0",
                   "--resume", str(damaged))
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith(f"data error: {damaged}: ") and repr(value) in err
    assert not out.exists()


def _damaged_copy(src, dst, name, line, column, value):
    """Copy a dataset dir, overwriting one field of one CSV line."""
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    lines = (dst / name).read_text().splitlines()
    fields = lines[line].split(",")
    fields[column] = value
    lines[line] = ",".join(fields)
    (dst / name).write_text("\n".join(lines) + "\n")


def _eval_valid(trained, data, out):
    return run(
        "eval", "--checkpoint", str(trained / "checkpoint-relational-seed0.npz"),
        "--data", str(data), "--split", "valid", "--out", str(out),
    )


def test_nan_feature_in_a_valid_domain_exits_3(trained, dg15_dir, tmp_path):
    bad = tmp_path / "nan-feature"
    _damaged_copy(dg15_dir, bad, "data.csv", 1, 2, "nan")
    assert (bad / "data.csv").read_text().splitlines()[1].startswith("d00,")
    out = tmp_path / "eval"
    assert _eval_valid(trained, bad, out) == 3
    assert not out.exists()


def test_inf_meta_on_a_valid_domain_exits_3(trained, dg15_dir, tmp_path):
    bad = tmp_path / "inf-meta"
    _damaged_copy(dg15_dir, bad, "meta.csv", 1, 1, "inf")
    assert (bad / "meta.csv").read_text().splitlines()[1].startswith("d00,")
    out = tmp_path / "eval"
    assert _eval_valid(trained, bad, out) == 3
    assert not out.exists()


@pytest.mark.parametrize("name", ["data.csv", "meta.csv", "splits.csv", "adjacency.txt"])
def test_a_file_that_is_not_utf8_exits_3(spatial_dir, tmp_path, name):
    bad = tmp_path / "bad"
    shutil.copytree(spatial_dir, bad)
    (bad / name).write_bytes(b"\xff" + (bad / name).read_bytes())
    assert run("train", "--data", str(bad), "--out", str(tmp_path / "o"), "--epochs", "1") == 3


@pytest.mark.parametrize("label", ["1e308", "65536"])
def test_a_class_label_beyond_the_class_cap_exits_3(dg15_dir, tmp_path, label):
    bad = tmp_path / "huge-label"
    _damaged_copy(dg15_dir, bad, "data.csv", 1, 1, label)
    assert run("train", "--data", str(bad), "--out", str(tmp_path / "o"), "--epochs", "1") == 3


def test_a_splits_row_with_three_fields_exits_3(dg15_dir, tmp_path, capsys):
    bad = tmp_path / "three-fields"
    _damaged_copy(dg15_dir, bad, "splits.csv", 1, 1, "valid,extra")
    assert run("train", "--data", str(bad), "--out", str(tmp_path / "o"), "--epochs", "1") == 3
    assert "line 2: expected 2 fields" in capsys.readouterr().err


def test_sparse_class_labels_train(dg15_dir, tmp_path):
    sparse = tmp_path / "sparse-labels"
    _damaged_copy(dg15_dir, sparse, "data.csv", 1, 1, "1000")
    out = tmp_path / "o"
    assert run("train", "--data", str(sparse), "--out", str(out), "--epochs", "1",
               "--method", "erm") == 0
    report = json.loads((out / "train-report.json").read_text())
    assert 0.0 <= report["test_mean"] <= 1.0


def test_a_data_file_without_rows_exits_3(dg15_dir, tmp_path):
    bad = tmp_path / "header-only"
    shutil.copytree(dg15_dir, bad)
    (bad / "data.csv").write_text("domain_id,y,x_1,x_2\n")
    assert run("train", "--data", str(bad), "--out", str(tmp_path / "o"), "--epochs", "1") == 3


def test_a_checkpoint_that_does_not_fit_the_data_exits_2(trained, trained_erm, dg15_dir,
                                                         spatial_dir, tmp_path):
    relational = str(trained / "checkpoint-relational-seed0.npz")
    erm = str(trained_erm / "checkpoint-erm-seed0.npz")
    assert run("eval", "--checkpoint", erm, "--data", str(spatial_dir), "--rw-finetune") == 2
    assert run("eval", "--checkpoint", relational, "--data", str(spatial_dir)) == 2
    three_classes = tmp_path / "three-classes"
    _damaged_copy(dg15_dir, three_classes, "data.csv", 1, 1, "2")
    assert run("eval", "--checkpoint", erm, "--data", str(three_classes), "--rw-finetune") == 2
    moved = tmp_path / "moved-split"
    _damaged_copy(dg15_dir, moved, "splits.csv", 1, 1, "train")  # d00 valid -> train
    assert run("train", "--data", str(moved), "--out", str(tmp_path / "o"), "--epochs", "1",
               "--resume", relational) == 2


def _second_head_layer(header, arrays):
    header["acts"]["head"] = ["identity", "identity"]
    arrays["head/1/w"] = -np.eye(len(arrays["head/0/b"]))
    arrays["head/1/b"] = np.zeros(len(arrays["head/0/b"]))


def _tanh_head(header, arrays):
    header["acts"]["head"] = ["tanh"]


@pytest.mark.parametrize("edit", [_second_head_layer, _tanh_head])
def test_an_erm_head_that_is_not_one_identity_layer_exits_3(trained_erm, dg15_dir, tmp_path,
                                                            capsys, edit):
    with np.load(trained_erm / "checkpoint-erm-seed0.npz") as z:
        arrays = {k: z[k] for k in z.files}
    header = json.loads(arrays.pop("__header__").tobytes().decode())
    edit(header, arrays)
    path = tmp_path / f"{edit.__name__}.npz"
    np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)
    assert run("eval", "--checkpoint", str(path), "--data", str(dg15_dir)) == 3
    assert f"data error: {path}: " in capsys.readouterr().err


def test_config_values_of_the_wrong_type_are_rejected(trained, dg15_dir, tmp_path):
    out = str(tmp_path / "x")
    cfg = tmp_path / "float-epochs.json"
    cfg.write_text(json.dumps({"epochs": 1.5}))
    assert run("train", "--data", str(dg15_dir), "--out", out, "--config", str(cfg)) == 2
    cfg.write_text(json.dumps({"select_best": 1}))
    assert run("train", "--data", str(dg15_dir), "--out", out, "--config", str(cfg)) == 2
    with np.load(trained / "checkpoint-relational-seed0.npz") as z:
        arrays = {k: z[k] for k in z.files}
    header = json.loads(arrays["__header__"].tobytes().decode())
    header["config"]["lr"] = None
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(tmp_path / "bad-config.npz", **arrays)
    code = run("eval", "--checkpoint", str(tmp_path / "bad-config.npz"), "--data", str(dg15_dir))
    assert code == 3


def test_a_fractional_epochs_config_exits_2_naming_the_type(dg15_dir, tmp_path, capsys):
    cfg = tmp_path / "float-epochs.json"
    cfg.write_text(json.dumps({"epochs": 1.5}))
    out = tmp_path / "x"
    assert run("train", "--data", str(dg15_dir), "--out", str(out), "--config", str(cfg)) == 2
    assert capsys.readouterr().err == "config error: config 'epochs' must be an int, got 1.5\n"
    assert not out.exists()


def test_numerical_blowup_exits_4(spatial_dir, tmp_path):
    # the squared-error loss overflows after a few huge steps
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(
            "train", "--method", "erm", "--data", str(spatial_dir),
            "--out", str(tmp_path / "boom"), "--epochs", "8", "--lr", "1e20",
        )
    assert code == 4


def test_one_diverging_seed_exits_4_and_names_it(dg15_dir, tmp_path, monkeypatch, capsys):
    real_build = cli.build_model

    def build(dataset, cfg):
        model = real_build(dataset, cfg)
        if cfg.seed == 1:
            model.head_w[...] = np.inf
        return model

    monkeypatch.setattr(cli, "build_model", build)
    with np.errstate(all="ignore"):
        code = run(
            "train", "--method", "relational", "--data", str(dg15_dir),
            "--out", str(tmp_path / "boom"), "--seeds", "0,1,2", "--epochs", "1",
        )
    assert code == 4
    assert "seed 1" in capsys.readouterr().err
    assert not list((tmp_path / "boom").glob("*.npz"))  # the seeds train together


def test_one_diverging_erm_seed_exits_4_and_names_it(dg15_dir, tmp_path, capsys):
    # Adam steps of 1e30 grow the weights until the outputs overflow; the
    # valid evaluation after the first epoch sees it before the loss does
    with np.errstate(all="ignore"):
        code = run(
            "train", "--method", "erm", "--data", str(dg15_dir),
            "--out", str(tmp_path / "boom"), "--seeds", "1,2", "--epochs", "3", "--lr", "1e30",
        )
    assert code == 4
    err = capsys.readouterr().err
    assert "seed 1 at epoch 0: non-finite model outputs (NaN or inf) on valid domain 'd00'" in err
    assert not list((tmp_path / "boom").glob("*.npz"))  # the seeds train together


def test_one_diverging_relational_seed_exits_4_and_names_it(dg15_dir, tmp_path, capsys):
    # the relational twin of the test above: the valid pass scores every
    # seed's valid split at once and names the first seed that overflows
    with np.errstate(all="ignore"):
        code = run(
            "train", "--method", "relational", "--data", str(dg15_dir),
            "--out", str(tmp_path / "boom"), "--seeds", "1,2", "--epochs", "3", "--lr", "1e30",
        )
    assert code == 4
    err = capsys.readouterr().err
    assert "seed 1 at epoch 0: non-finite model outputs (NaN or inf) on valid domain 'd00'" in err
    assert not list((tmp_path / "boom").glob("*.npz"))  # the seeds train together


@pytest.mark.parametrize(
    "argv",
    [["train", "--method", "erm", "--lr", "1e300", "--epochs", "2"],
     ["train", "--method", "relational", "--lr", "1e300", "--epochs", "2"],
     ["theory", "--lipschitz", "1e308", "--c0", "1", "--domain-grid", "4", "--n-seeds", "2",
      "--mc", "100", "--n-eval", "100"]],
)
def test_an_overflow_exits_4_with_one_line_and_no_numpy_warning(dg15_dir, tmp_path, argv):
    """The command's own NumericalError is all it prints: numpy's RuntimeWarnings,
    which come with file paths and source lines, stay off stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    data = ["--data", str(dg15_dir)] if argv[0] == "train" else []
    proc = subprocess.run(
        [sys.executable, "-m", "relgen.cli", *argv, *data, "--out", str(tmp_path / "o")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 4, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), proc.stderr


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_repeated_seed_exits_2_and_names_it(dg15_dir, tmp_path, command, capsys):
    out = tmp_path / "o"
    assert run(command, "--data", str(dg15_dir), "--out", str(out), "--seeds", "3,1,3",
               "--epochs", "1") == 2
    assert "--seeds repeats seed 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,from_config", [
    pytest.param("train", False, id="train"), pytest.param("ablate", False, id="ablate"),
    pytest.param("train", True, id="train-config"),
    pytest.param("ablate", True, id="ablate-config")])
def test_seed_and_seeds_together_exit_2_before_training(dg15_dir, tmp_path, monkeypatch, command,
                                                         from_config, capsys):
    # otherwise --seeds trains while the report records the other seed as config.seed
    def no_training(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(model_module, "_train_loop", no_training)
    out = tmp_path / "o"
    if from_config:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 5, "epochs": 1}))
        flags, err = ["--config", str(cfg)], f"{cfg} sets seed; give it or --seeds, not both"
    else:
        flags, err = ["--seed", "5", "--epochs", "1"], "give --seed or --seeds, not both"
    assert run(command, "--data", str(dg15_dir), "--out", str(out), "--seeds", "0,1", *flags) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"
    assert not out.exists()


def test_a_config_without_seed_takes_seeds(dg15_dir, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"epochs": 1}))
    out = tmp_path / "o"
    assert run("train", "--method", "erm", "--data", str(dg15_dir), "--out", str(out),
               "--config", str(cfg), "--seeds", "0,1") == 0
    assert json.loads((out / "train-report.json").read_text())["seeds"] == [0, 1]
    assert sorted(p.name for p in out.glob("*.npz")) == [
        "checkpoint-erm-seed0.npz", "checkpoint-erm-seed1.npz"]


@pytest.mark.parametrize(
    "command,relabel,split",
    [("train", ("valid", "test"), "valid"), ("train", ("test", "valid"), "test"),
     ("ablate", ("test", "valid"), "test")],
)
def test_a_scored_split_without_domains_exits_3_before_training(
    dg15_dir, tmp_path, monkeypatch, capsys, command, relabel, split
):
    data = tmp_path / "data"
    shutil.copytree(dg15_dir, data)
    splits = data / "splits.csv"
    splits.write_text(splits.read_text().replace(f",{relabel[0]}\n", f",{relabel[1]}\n"))

    def no_training(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(model_module, "_train_loop", no_training)
    out = tmp_path / "o"
    assert run(command, "--data", str(data), "--out", str(out), "--epochs", "1") == 3
    assert f"data error: no domains in split {split!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["erm", "relational"])
def test_non_finite_predictions_exit_4_and_name_the_domain(dg15_dir, tmp_path, method, capsys):
    # one epoch of 1e30 steps leaves finite parameters whose outputs overflow
    with np.errstate(all="ignore"):
        code = run(
            "train", "--method", method, "--data", str(dg15_dir),
            "--out", str(tmp_path / "boom"), "--seeds", "1,2", "--epochs", "1", "--lr", "1e30",
        )
    assert code == 4
    assert "non-finite model outputs (NaN or inf) on valid domain 'd" in capsys.readouterr().err
    assert not list((tmp_path / "boom").glob("*.npz"))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "relgen" in capsys.readouterr().out


# -- eval variants ------------------------------------------------------------------


def test_eval_relation_modes_run(trained, dg15_dir, capsys):
    ckpt = str(trained / "checkpoint-relational-seed0.npz")
    for mode in ("fixed", "learned", "uniform"):
        code = run(
            "eval", "--checkpoint", ckpt,
            "--data", str(dg15_dir), "--relations", mode,
        )
        assert code == 0
    for mode in ("fused", "fixed", "learned", "uniform"):  # no mode ignores a given beta
        assert run("eval", "--checkpoint", ckpt, "--data", str(dg15_dir),
                   "--relations", mode, "--beta", "1.5") == 2
        assert ("beta must lie in [0, 1]" if mode == "fused" else
                "--beta applies to the fused relation mode only") in capsys.readouterr().err


def test_uniform_eval_reads_no_fixed_relations(spatial_dir, tmp_path):
    """2-D meta-data without adjacency.txt gives no fixed relations; uniform weights need none."""
    out = tmp_path / "t"
    assert run("train", "--data", str(spatial_dir), "--out", str(out), "--epochs", "1") == 0
    data = tmp_path / "data"
    shutil.copytree(spatial_dir, data)
    (data / "adjacency.txt").unlink()
    ckpt = str(out / "checkpoint-relational-seed0.npz")
    assert run("eval", "--checkpoint", ckpt, "--data", str(data), "--relations", "uniform") == 0
    assert run("eval", "--checkpoint", ckpt, "--data", str(data), "--relations", "fixed") == 2


def test_runs_that_weight_no_fixed_relations_need_none(spatial_dir, tmp_path, capsys):
    """Uniform and beta-0 training, and learned-relation eval, run without adjacency.txt."""
    data = tmp_path / "data"
    shutil.copytree(spatial_dir, data)
    (data / "adjacency.txt").unlink()
    train = ["train", "--data", str(data), "--epochs", "1"]
    assert run(*train, "--out", str(tmp_path / "u"), "--relation-mode", "uniform") == 0
    assert run(*train, "--out", str(tmp_path / "b0"), "--beta", "0") == 0
    capsys.readouterr()
    assert run(*train, "--out", str(tmp_path / "b5"), "--beta", "0.5") == 2
    assert "fixed relations need an adjacency list or one-column angle meta-data" in capsys.readouterr().err
    ckpt = str(tmp_path / "b0" / "checkpoint-relational-seed0.npz")
    assert run("eval", "--checkpoint", ckpt, "--data", str(data), "--relations", "learned") == 0


def test_eval_has_no_lam_flag(trained, dg15_dir):
    with pytest.raises(SystemExit) as exc:
        run("eval", "--checkpoint", str(trained / "checkpoint-relational-seed0.npz"),
            "--data", str(dg15_dir), "--lam", "0.3")
    assert exc.value.code == 2


def test_eval_rw_finetune_on_erm(trained_erm, dg15_dir, tmp_path):
    out = tmp_path / "rwft"
    code = run(
        "eval", "--checkpoint", str(trained_erm / "checkpoint-erm-seed0.npz"),
        "--data", str(dg15_dir), "--rw-finetune", "--finetune-epochs", "1",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "eval-report.json").read_text())
    assert report["method"] == "erm+rw_finetune"


# -- ablate ---------------------------------------------------------------------------


def test_ablate_writes_both_groups(dg15_dir, tmp_path):
    out = tmp_path / "ablate"
    code = run(
        "ablate", "--data", str(dg15_dir), "--out", str(out),
        "--seeds", "0", "--epochs", "1", "--lr", "1e-3",
    )
    assert code == 0
    report = json.loads((out / "ablation-report.json").read_text())
    groups = {(r["group"], r["variant"]) for r in report["rows"]}
    assert ("relations", "none") in groups
    assert ("relations", "fused") in groups
    assert ("consistency", "lam=0") in groups
    assert ("consistency", "lam=0.5") in groups
    assert len(report["rows"]) == 6


def test_ablate_has_no_finetune_epochs_flag(dg15_dir, tmp_path):
    # the ablation never fine-tunes, so the flag could change only the report's config
    with pytest.raises(SystemExit) as exc:
        run("ablate", "--data", str(dg15_dir), "--out", str(tmp_path / "o"),
            "--finetune-epochs", "1")
    assert exc.value.code == 2


# -- theory ---------------------------------------------------------------------------


def test_theory_quick_run(tmp_path):
    out = tmp_path / "theory"
    code = run(
        "theory", "--out", str(out), "--domain-grid", "4,8", "--n-seeds", "3",
        "--n-eval", "2000", "--mc", "10000", "--c0", "1.0",
    )
    assert code == 0
    lines = (out / "scaling.csv").read_text().splitlines()
    assert len(lines) == 3
    report = json.loads((out / "theory-report.json").read_text())
    assert report["averaging"]["within_3_stderr"] is True
    assert [row["N_tr"] for row in report["scaling"]] == [4, 8]


def test_theory_rejects_bad_grid(tmp_path):
    assert run("theory", "--out", str(tmp_path / "t"), "--domain-grid", "a,b") == 2
    assert run("theory", "--out", str(tmp_path / "t"), "--domain-grid", ",") == 2
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("flag", ["--domain-grid=0,8", "--domain-grid=-4,8", "--r=-2"])
def test_theory_rejects_non_positive_sizes(tmp_path, flag):
    out = tmp_path / "t"
    assert run("theory", "--out", str(out), flag, "--n-seeds", "3") == 2
    assert not out.exists()


@pytest.mark.parametrize("flag,name,size", [
    pytest.param("--mc", "n_mc", 10**17, id="--mc-n_mc"),
    pytest.param("--mc", "n_mc", 2**53 + 1, id="--mc-n_mc-2**53+1"),
    pytest.param("--n-eval", "n_eval", 10**17, id="--n-eval-n_eval"),
    pytest.param("--n-seeds", "n_seeds", 10**17, id="--n-seeds-n_seeds"),
    pytest.param("--n", "n_per_domain", 10**17, id="--n-n_per_domain"),
    pytest.param("--r", "r", 10**17, id="--r-r")])
def test_theory_sizes_that_cannot_be_allocated_exit_2(tmp_path, capsys, monkeypatch, flag, name,
                                                     size):
    # 8 * 10**17 bytes exceed a 47-bit address space, so no overcommit mode maps them;
    # the oracle holds no --mc buffer, and refuses a count no float64 holds exactly.
    # Every size is checked before any work: a bad --mc before the sweep, a bad sweep
    # size before the oracle.
    def no_work(*args, **kwargs):
        raise AssertionError("ran despite a size that cannot be allocated")

    monkeypatch.setattr(cli, "scaling_experiment" if flag == "--mc" else "averaging_oracle",
                        no_work)
    out = tmp_path / "t"
    assert run("theory", "--out", str(out), "--domain-grid", "4", "--n-seeds", "2",
               "--n-eval", "100", "--mc", "100", flag, str(size)) == 2
    why = "is above 2**53, the largest count" if flag == "--mc" else "cannot be allocated"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {name} = {size} {why}"), err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--lipschitz", "--noise"])
@pytest.mark.parametrize("c0", [["--c0", "1"], []])  # a sweep cell, a calibration cell
def test_theory_overflow_exits_4_and_names_the_cell(tmp_path, capsys, flag, c0):
    out = tmp_path / "t"
    with np.errstate(all="ignore"):
        code = run("theory", "--out", str(out), flag, "1e308", *c0, "--domain-grid", "4",
                   "--n-seeds", "2", "--mc", "100", "--n-eval", "100")
    assert code == 4
    seed = 40000 if c0 else 999331001  # seed + 10_000 * N_tr; the first held-out seed
    err = capsys.readouterr().err
    assert "numerical failure: excess risk is " in err
    assert f" at N_tr = 4, seed {seed}, " in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["gen", "dg15"],
     ["theory", "--domain-grid", "4,8", "--n-seeds", "3", "--n-eval", "200", "--mc", "100"]],
)
def test_a_negative_seed_exits_2(tmp_path, argv, capsys):
    out = tmp_path / "o"
    assert run(*argv, "--seed", "-1", "--out", str(out)) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_spatial_rejects_non_finite_noise(tmp_path, value):
    out = tmp_path / "s"
    assert run("gen", "spatial", "--noise", value, "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value",
    [("--noise", "nan"), ("--noise", "inf"), ("--lipschitz", "nan"), ("--lipschitz", "inf"),
     ("--c0", "nan"), ("--c0", "inf"), ("--c0", "0"), ("--c0", "-1")],
)
def test_theory_rejects_non_finite_numbers(tmp_path, flag, value):
    out = tmp_path / "t"
    code = run(
        "theory", "--out", str(out), "--domain-grid", "4,8", "--n-seeds", "3",
        "--n-eval", "2000", "--mc", "10000", flag, value,
    )
    assert code == 2
    assert not out.exists()


# -- export-relations -------------------------------------------------------------------


def test_export_fixed_relations_round_trip(dg15_dir, tmp_path):
    out = tmp_path / "relations.csv"
    code = run("export-relations", "--meta", str(dg15_dir / "meta.csv"), "--out", str(out))
    assert code == 0
    ids, matrix = load_relation_csv(str(out))
    meta_ids, metas = load_meta_csv(str(dg15_dir / "meta.csv"))
    assert ids == meta_ids
    expect = angle_between(metas, metas)
    np.fill_diagonal(expect, 1.0)
    assert np.array_equal(matrix, expect)
    assert np.array_equal(matrix, matrix.T)


def test_export_learned_needs_a_checkpoint(dg15_dir, tmp_path):
    out = tmp_path / "r.csv"
    assert run("export-relations", "--meta", str(dg15_dir / "meta.csv"),
               "--beta", "0.5", "--out", str(out)) == 2


@pytest.mark.parametrize(
    "beta,message",
    [("1.5", "beta must lie in [0, 1]"), ("nan", "beta must lie in [0, 1]"),
     ("-0.5", "beta must lie in [0, 1]"), ("0.5", "requires --checkpoint")],
)
def test_export_checks_the_beta_range_first(dg15_dir, tmp_path, capsys, beta, message):
    out = tmp_path / "r.csv"
    assert run("export-relations", "--meta", str(dg15_dir / "meta.csv"),
               "--beta", beta, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_export_with_checkpoint_fuses(trained, dg15_dir, tmp_path):
    out = tmp_path / "fused.csv"
    code = run(
        "export-relations", "--meta", str(dg15_dir / "meta.csv"),
        "--checkpoint", str(trained / "checkpoint-relational-seed0.npz"),
        "--beta", "0.5", "--out", str(out),
    )
    assert code == 0
    ids, matrix = load_relation_csv(str(out))
    assert np.allclose(np.diag(matrix), 1.0)
    assert np.all(matrix >= 0.0)
    meta_ids, metas = load_meta_csv(str(dg15_dir / "meta.csv"))
    fixed_only = angle_between(metas, metas)
    np.fill_diagonal(fixed_only, 1.0)
    assert not np.array_equal(matrix, fixed_only)  # learned part moved it


def test_export_needs_fixed_relations_and_a_relational_checkpoint(spatial_dir, dg15_dir,
                                                                 trained_erm, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run("export-relations", "--meta", str(spatial_dir / "meta.csv"), "--out", str(out)) == 2
    assert "fixed relations need an adjacency list or one-column angle meta-data" in capsys.readouterr().err
    assert run("export-relations", "--meta", str(dg15_dir / "meta.csv"), "--out", str(out),
               "--checkpoint", str(trained_erm / "checkpoint-erm-seed0.npz")) == 2
    assert "not a relational checkpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_export_rejects_non_finite_meta_data(tmp_path, capsys, value):
    meta = tmp_path / "meta.csv"
    meta.write_text(f"domain_id,angle\na,0.1\nb,{value}\nc,0.3\n")
    out = tmp_path / "r.csv"
    assert run("export-relations", "--meta", str(meta), "--out", str(out)) == 3
    assert "non-finite meta-data value (NaN or inf) in domain 'b'" in capsys.readouterr().err
    assert not out.exists()


def test_export_of_a_learned_only_model_reads_no_fixed_relations(spatial_dir, tmp_path, capsys):
    """2-D meta-data without an adjacency file has no fixed relations; at beta 0 none are read."""
    data = tmp_path / "data"
    shutil.copytree(spatial_dir, data)
    (data / "adjacency.txt").unlink()
    assert run("train", "--data", str(data), "--out", str(tmp_path / "t"), "--epochs", "1",
               "--beta", "0") == 0
    export = ["export-relations", "--meta", str(data / "meta.csv"),
              "--checkpoint", str(tmp_path / "t" / "checkpoint-relational-seed0.npz")]
    assert run(*export, "--beta", "0", "--out", str(tmp_path / "given.csv")) == 0
    assert run(*export, "--out", str(tmp_path / "trained.csv")) == 0  # the checkpoint's beta 0
    given = (tmp_path / "given.csv").read_bytes()
    assert given == (tmp_path / "trained.csv").read_bytes()
    matrix = load_relation_csv(str(tmp_path / "given.csv"))[1]
    assert np.all(matrix >= 0.0) and np.array_equal(np.diag(matrix), np.ones(len(matrix)))
    capsys.readouterr()
    assert run(*export, "--beta", "0.5", "--out", str(tmp_path / "fused.csv")) == 2
    assert "fixed relations need an adjacency list or one-column angle meta-data" in capsys.readouterr().err


def test_export_adjacency_relations(spatial_dir, tmp_path):
    out = tmp_path / "adj.csv"
    code = run(
        "export-relations", "--meta", str(spatial_dir / "meta.csv"),
        "--adjacency", str(spatial_dir / "adjacency.txt"), "--out", str(out),
    )
    assert code == 0
    ids, matrix = load_relation_csv(str(out))
    assert matrix[ids.index("r0c0"), ids.index("r0c1")] == 1.0
    assert matrix[ids.index("r0c0"), ids.index("r1c1")] == 0.0


# -- mutated inputs -------------------------------------------------------------------

FIELD_VALUES = ["", "nan", "inf", "-inf", "-1", "0", "2", "0.5", "1e308", "x", "d99", "valid", "test"]
BYTE_VALUES = [b"0", b"7", b"-", b".", b"e", b",", b" ", b"\n", b'"', b"x", b"\xff"]
JSON_VALUES = [None, -1, 0, 0.5, 1e308, "x", "prob", [], {}, True]
# the --config file the train commands read, one key a line so line edits hit one key
CONFIG_TEXT = '{\n"lam": 0.5,\n"beta": 0.8,\n"batch_size": 10,\n"eval_every": 1,\n"select_best": true\n}\n'


def _mutate_bytes(raw: bytes, data) -> bytes:
    """Truncate the file, overwrite one byte, or edit one CSV line or field."""
    kind = data.draw(st.sampled_from(["truncate", "byte", "field", "drop-line", "dup-line"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, max(len(raw) - 1, 0)))]
    if kind == "byte":
        i = data.draw(st.integers(0, len(raw) - 1))
        return raw[:i] + data.draw(st.sampled_from(BYTE_VALUES)) + raw[i + 1 :]
    lines = raw.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "drop-line":
        del lines[i]
    elif kind == "dup-line":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split(b",")
        j = data.draw(st.integers(0, len(fields) - 1))
        fields[j] = data.draw(st.sampled_from(FIELD_VALUES)).encode()
        lines[i] = b",".join(fields)
    return b"\n".join(lines)


def _mutate_header(src, dst, data) -> None:
    """Rewrite a checkpoint with one header or config entry set to another JSON value."""
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    header = json.loads(arrays["__header__"].tobytes().decode())
    node = header["config"] if data.draw(st.booleans()) else header
    node[data.draw(st.sampled_from(sorted(node)))] = data.draw(st.sampled_from(JSON_VALUES))
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(dst, **arrays)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_inputs_end_in_a_documented_exit_code(
    data, dg15_dir, spatial_dir, trained, trained_erm
):
    """Damaged data, split, adjacency, checkpoint or --config files never raise out of
    main, at a sane or a diverging learning rate and at zero to three epochs."""
    target = data.draw(st.sampled_from(
        ["data.csv", "meta.csv", "splits.csv", "adjacency.txt", "relational.npz", "erm.npz",
         "config.json"]
    ))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        src = spatial_dir if target == "adjacency.txt" else dg15_dir
        shutil.copytree(src, tmp / "data")
        ckpts = {
            "relational.npz": trained / "checkpoint-relational-seed0.npz",
            "erm.npz": trained_erm / "checkpoint-erm-seed0.npz",
        }
        for name, path in ckpts.items():
            shutil.copy(path, tmp / name)
        (tmp / "config.json").write_text(CONFIG_TEXT)
        damaged = tmp / (target if target in (*ckpts, "config.json") else f"data/{target}")
        if target in ckpts and data.draw(st.booleans()):
            _mutate_header(damaged, damaged, data)
        else:
            damaged.write_bytes(_mutate_bytes(damaged.read_bytes(), data))
        common = ["--data", str(tmp / "data"), "--out", str(tmp / "out")]
        train_args = ["--epochs", data.draw(st.sampled_from(["0", "1", "3"])),
                      "--lr", data.draw(st.sampled_from(["1e-3", "1e30"])), "--seed", "0"]
        export = ["export-relations", "--meta", str(tmp / "data" / "meta.csv"),
                  "--out", str(tmp / "relations.csv")]
        if target == "adjacency.txt":
            export += ["--adjacency", str(tmp / "data" / "adjacency.txt")]
        commands = {
            "train-relational": ["train", "--method", "relational", *common, *train_args],
            "train-erm": ["train", "--method", "erm", *common, *train_args],
            "resume-relational": ["train", "--method", "relational", *common, *train_args,
                                  "--resume", str(tmp / "relational.npz")],
            "eval-relational": ["eval", "--checkpoint", str(tmp / "relational.npz"), *common],
            "eval-rw-finetune": ["eval", "--checkpoint", str(tmp / "erm.npz"), *common,
                                 "--rw-finetune", "--finetune-epochs", "1"],
            "export-relations": export,
            "export-relations-checkpoint": export + ["--checkpoint", str(tmp / "relational.npz")],
        }
        if target == "adjacency.txt":
            commands = {k: v for k, v in commands.items() if k.startswith(("train-", "export-"))}
        if target == "config.json":
            commands = {k: v + ["--config", str(tmp / "config.json")]
                        for k, v in commands.items() if k.startswith(("train-", "resume-"))}
        argv = commands[data.draw(st.sampled_from(sorted(commands)))]
        with np.errstate(all="ignore"):
            code = main(argv)
    assert code in (0, 2, 3, 4)
