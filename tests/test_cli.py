"""Command-line surface: generation round-trips, train/eval/ablate/theory
report files, exit codes for the three failure families, and the relation
matrix export."""

import json

import numpy as np
import pytest

import relgen.cli as cli
from relgen.cli import main
from relgen.relations import angle_matrix, load_relation_csv
from relgen.data import load_meta_csv


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


def test_config_errors_exit_2(dg15_dir, trained, tmp_path):
    out = str(tmp_path / "x")
    base = ["train", "--data", str(dg15_dir), "--out", out, "--epochs", "1"]
    assert run(*base, "--lambda", "-1") == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"learning_rate": 0.1}))
    assert run(*base, "--config", str(bad_cfg)) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert run(*base, "--config", str(not_json)) == 2
    assert run(*base, "--seeds", "0,1", "--resume",
               str(trained / "checkpoint-relational-seed0.npz")) == 2
    assert run(*base, "--seeds", "0,x") == 2


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "relgen" in capsys.readouterr().out


# -- eval variants ------------------------------------------------------------------


def test_eval_relation_modes_run(trained, dg15_dir):
    for mode in ("fixed", "learned", "uniform"):
        code = run(
            "eval", "--checkpoint", str(trained / "checkpoint-relational-seed0.npz"),
            "--data", str(dg15_dir), "--relations", mode,
        )
        assert code == 0


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
    expect = angle_matrix(metas[:, 0])
    np.fill_diagonal(expect, 1.0)
    assert np.array_equal(matrix, expect)
    assert np.array_equal(matrix, matrix.T)


def test_export_learned_needs_a_checkpoint(dg15_dir, tmp_path):
    out = tmp_path / "r.csv"
    assert run("export-relations", "--meta", str(dg15_dir / "meta.csv"),
               "--beta", "0.5", "--out", str(out)) == 2


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
    fixed_only = angle_matrix(metas[:, 0])
    np.fill_diagonal(fixed_only, 1.0)
    assert not np.array_equal(matrix, fixed_only)  # learned part moved it


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
