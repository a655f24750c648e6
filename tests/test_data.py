"""Synthetic benchmarks and the CSV dataset format: generator statistics,
the angular bracketing guarantee, exact round-trips, and the distinct
failure modes of the loader."""

import re

import numpy as np
import pytest

from relgen.data import (
    DG15_N_DOMAINS,
    DG15_RADIUS,
    DG15_SPLIT_PATTERN,
    DomainDataset,
    gen_dg15,
    gen_spatial_regression,
    load_adjacency,
    load_dataset_dir,
    load_meta_csv,
    save_dataset,
    spatial_coefficients,
)
from relgen.errors import ConfigError, DataError


# -- angular benchmark ---------------------------------------------------------------


def test_dg15_shapes_and_counts():
    ds = gen_dg15(0)
    assert len(ds.ids) == DG15_N_DOMAINS
    assert ds.task == "classification"
    assert ds.n_classes == 2
    assert ds.meta.shape == (15, 1)
    assert ds.x.shape == (15 * 100, 2)
    for d in ds.ids:
        x, y = ds.domain_arrays(d)
        assert len(x) == 100
        assert y.sum() == 50  # balanced classes


def test_dg15_split_sizes():
    ds = gen_dg15(0)
    assert sorted(DG15_SPLIT_PATTERN) == sorted("TTTTT" "SSSSS" "VVVVV")
    assert len(ds.ids_for_split("train")) == 5
    assert len(ds.ids_for_split("valid")) == 5
    assert len(ds.ids_for_split("test")) == 5


def test_dg15_is_deterministic_and_seed_sensitive():
    a = gen_dg15(7)
    b = gen_dg15(7)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.meta, b.meta)
    assert a.split == b.split
    c = gen_dg15(8)
    assert not np.array_equal(a.meta, c.meta)


def test_dg15_angles_cover_the_circle():
    ds = gen_dg15(3)
    angles = ds.meta[:, 0]
    assert np.all(angles >= -np.pi) and np.all(angles < np.pi)
    gaps = np.diff(np.sort(angles))
    sector = 2.0 * np.pi / 15
    # one stratified draw per sector keeps neighbors near the nominal spacing
    assert np.all(gaps > 0.8 * sector)
    assert np.all(gaps < 1.2 * sector)


@pytest.mark.parametrize("seed", range(10))
def test_dg15_test_domains_bracketing(seed):
    """Four test domains sit between nearby training domains; one is far."""
    ds = gen_dg15(seed)
    angles = ds.meta[:, 0]
    train = [angles[ds.ids.index(d)] for d in ds.ids_for_split("train")]

    def nearest_train(t):
        return min(abs(np.angle(np.exp(1j * (t - s)))) for s in train)

    dists = sorted(nearest_train(angles[ds.ids.index(d)]) for d in ds.ids_for_split("test"))
    near, far = dists[:4], dists[4]
    assert all(np.deg2rad(15) <= d <= np.deg2rad(40) for d in near)
    assert far >= np.deg2rad(55)


def test_dg15_cluster_geometry():
    ds = gen_dg15(0)
    for d in ds.ids:
        x, y = ds.domain_arrays(d)
        t = ds.meta_for([d])[0][0]
        key = DG15_RADIUS * np.array([np.cos(t), np.sin(t)])
        pos, neg = x[y == 1], x[y == 0]
        # class means land near +/- the key point (3 sigma of the mean)
        tol = 3.0 / np.sqrt(50)
        assert np.all(np.abs(pos.mean(axis=0) - key) < tol)
        assert np.all(np.abs(neg.mean(axis=0) + key) < tol)
        spread = np.var(np.vstack([pos - key, neg + key]), axis=0)
        assert np.all(spread > 0.6) and np.all(spread < 1.5)


def test_dg15_fixed_relations_come_from_angles():
    ds = gen_dg15(0)
    assert ds.edges is None
    a, b = ds.ids[0], ds.ids[1]
    ta, tb = ds.meta_for([a])[0][0], ds.meta_for([b])[0][0]
    got = ds.fixed_between([a], [b])[0, 0]
    assert got == pytest.approx(max(0.0, np.cos(ta - tb)))
    full = ds.fixed_between(ds.ids, ds.ids)
    assert np.array_equal(full, full.T)
    assert np.allclose(np.diag(full), 1.0)


def test_dg15_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        gen_dg15(0, n_per_class=0)


# -- spatial benchmark ---------------------------------------------------------------


def test_spatial_layout_and_splits():
    ds = gen_spatial_regression(0)
    assert len(ds.ids) == 16
    assert ds.task == "regression"
    assert len(ds.ids_for_split("train")) == 8  # top two rows
    assert len(ds.ids_for_split("valid")) == 4
    assert len(ds.ids_for_split("test")) == 4
    assert all(ds.split[f"r{r}c{c}"] == "train" for r in (0, 1) for c in range(4))
    assert len(ds.edges) == 24  # 4x4 grid: 2 * 4 * 3


def test_spatial_noise_free_targets_match_coefficients():
    ds = gen_spatial_regression(0, noise=0.0)
    for k, d in enumerate(ds.ids):
        x, y = ds.domain_arrays(d)
        w, b = spatial_coefficients(ds.meta[k])
        assert np.allclose(y, x @ w + b, atol=1e-12)


def test_spatial_adjacency_is_the_grid():
    ds = gen_spatial_regression(0)
    assert ds.edges is not None

    def rel(a, b):
        return ds.fixed_between([a], [b])[0, 0]

    assert rel("r0c0", "r0c1") == 1.0
    assert rel("r0c0", "r1c0") == 1.0
    assert rel("r0c0", "r1c1") == 0.0  # diagonal, not adjacent
    assert rel("r0c0", "r0c0") == 1.0


def test_spatial_neighbors_have_closer_targets():
    w00, b00 = spatial_coefficients((0, 0))
    w01, b01 = spatial_coefficients((0, 1))
    w33, b33 = spatial_coefficients((3, 3))
    near = abs(b00 - b01) + np.linalg.norm(w00 - w01)
    far = abs(b00 - b33) + np.linalg.norm(w00 - w33)
    assert near < far


def test_spatial_requires_enough_rows():
    with pytest.raises(ConfigError):
        gen_spatial_regression(0, n_rows=1, n_cols=4)


# -- dataset container ----------------------------------------------------------------


def tiny_dataset():
    return DomainDataset(
        x=np.arange(12, dtype=float).reshape(6, 2),
        y=np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]),
        domain=np.array([0, 0, 1, 1, 2, 2]),
        ids=["a", "b", "c"],
        meta=np.array([[0.1], [0.2], [0.3]]),
        split={"a": "train", "b": "train", "c": "test"},
        task="classification",
    )


def test_views_slice_by_domain_and_split():
    ds = tiny_dataset()
    x, y = ds.domain_arrays("b")
    assert np.array_equal(x, [[4.0, 5.0], [6.0, 7.0]])
    assert np.array_equal(y, [0.0, 1.0])
    xs, ys, dom = ds.arrays_for(["a", "c"])
    assert xs.shape == (4, 2)
    assert list(dom) == [0, 0, 1, 1]  # renumbered in id order
    assert ds.counts(["a", "c"]) == {"a": 2, "c": 2}
    assert np.array_equal(ds.meta_for(["c", "a"]), [[0.3], [0.1]])


def test_container_invariants_are_enforced():
    base = tiny_dataset()
    with pytest.raises(DataError, match="length"):
        DomainDataset(x=base.x[:5], y=base.y, domain=base.domain, ids=base.ids,
                      meta=base.meta, split=base.split, task=base.task)
    with pytest.raises(DataError, match="domain index"):
        DomainDataset(x=base.x, y=base.y, domain=np.array([0, 0, 1, 1, 2, 9]),
                      ids=base.ids, meta=base.meta, split=base.split, task=base.task)
    with pytest.raises(DataError, match="split"):
        DomainDataset(x=base.x, y=base.y, domain=base.domain, ids=base.ids,
                      meta=base.meta, split={"a": "train", "b": "dev", "c": "test"},
                      task=base.task)
    with pytest.raises(DataError, match="task"):
        DomainDataset(x=base.x, y=base.y, domain=base.domain, ids=base.ids,
                      meta=base.meta, split=base.split, task="ranking")
    with pytest.raises(DataError, match="duplicate"):
        DomainDataset(x=base.x, y=base.y, domain=base.domain, ids=["a", "a", "c"],
                      meta=base.meta, split=base.split, task=base.task)
    with pytest.raises(DataError, match="domain 'b' has no examples"):
        DomainDataset(x=base.x, y=base.y, domain=np.array([0, 0, 0, 0, 2, 2]),
                      ids=base.ids, meta=base.meta, split=base.split, task=base.task)


def test_classification_labels_must_be_integral():
    base = tiny_dataset()
    with pytest.raises(DataError, match="integer"):
        DomainDataset(x=base.x, y=np.array([0.0, 0.5, 0.0, 1.0, 0.0, 1.0]),
                      domain=base.domain, ids=base.ids, meta=base.meta,
                      split=base.split, task="classification")


def test_unknown_domain_lookups_raise():
    ds = tiny_dataset()
    with pytest.raises(DataError):
        ds.domain_arrays("zz")
    with pytest.raises(DataError):
        ds.meta_for(["a", "zz"])
    with pytest.raises(DataError):
        ds.fixed_between(["a"], ["zz"])
    with pytest.raises(DataError):
        ds.ids_for_split("holdout")


def test_n_classes_is_regression_guarded():
    ds = gen_spatial_regression(0, n_per_domain=4)
    with pytest.raises(DataError, match="classification"):
        _ = ds.n_classes


# -- saving and loading ----------------------------------------------------------------


def test_angle_dataset_round_trips_exactly(tmp_path):
    ds = gen_dg15(2, n_per_class=7)
    save_dataset(ds, str(tmp_path))
    back = load_dataset_dir(str(tmp_path))
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.domain, ds.domain)
    assert np.array_equal(back.meta, ds.meta)
    assert back.ids == ds.ids
    assert back.split == ds.split
    assert back.task == ds.task
    assert back.edges is None


def test_adjacency_dataset_round_trips_exactly(tmp_path):
    ds = gen_spatial_regression(1, n_per_domain=5)
    save_dataset(ds, str(tmp_path))
    files = {p.name for p in tmp_path.iterdir()}
    assert files == {"data.csv", "meta.csv", "splits.csv", "adjacency.txt"}
    back = load_dataset_dir(str(tmp_path))
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert sorted(back.edges) == sorted(ds.edges)
    assert np.array_equal(back.fixed_between(back.ids, back.ids), ds.fixed_between(ds.ids, ds.ids))


def write_rows(path, rows):
    path.write_text("\n".join(rows) + "\n")


def good_dir(tmp_path):
    write_rows(tmp_path / "data.csv", [
        "domain_id,y,x0,x1",
        "a,0,0.5,1.0",
        "a,1,-0.5,2.0",
        "b,0,1.5,0.0",
        "b,1,2.5,1.0",
    ])
    write_rows(tmp_path / "meta.csv", [
        "domain_id,angle",
        "a,0.1",
        "b,1.2",
    ])
    write_rows(tmp_path / "splits.csv", [
        "domain_id,split",
        "a,train",
        "b,test",
    ])
    return tmp_path


def test_loader_reads_a_hand_written_directory(tmp_path):
    ds = load_dataset_dir(str(good_dir(tmp_path)))
    assert ds.ids == ["a", "b"]
    assert ds.task == "classification"
    assert ds.x.shape == (4, 2)
    assert ds.meta_for(["b"])[0][0] == pytest.approx(1.2)
    assert ds.edges is None


def test_loader_infers_regression_from_float_labels(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "data.csv", [
        "domain_id,y,x0,x1",
        "a,0.25,0.5,1.0",
        "a,1.5,-0.5,2.0",
        "b,0.75,1.5,0.0",
        "b,2.25,2.5,1.0",
    ])
    assert load_dataset_dir(str(d)).task == "regression"


def test_loader_missing_meta_is_specific(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "meta.csv", ["domain_id,angle", "a,0.1"])
    with pytest.raises(DataError, match="^no meta-data row for domain 'b'$"):
        load_dataset_dir(str(d))


def test_loader_overlapping_split_is_specific(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "splits.csv", [
        "domain_id,split",
        "a,train",
        "a,test",
        "b,test",
    ])
    with pytest.raises(DataError, match="^domain 'a' assigned to both 'train' and 'test'$"):
        load_dataset_dir(str(d))


def test_loader_malformed_rows_are_specific(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "data.csv", [
        "domain_id,y,x0,x1",
        "a,0,0.5,1.0",
        "a,1,not-a-number,2.0",
        "b,0,1.5,0.0",
        "b,1,2.5,1.0",
    ])
    message = f"{d / 'data.csv'}: line 3: could not convert string to float: 'not-a-number'"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_dataset_dir(str(d))


def test_loader_ragged_rows_are_malformed(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "data.csv", [
        "domain_id,y,x0,x1",
        "a,0,0.5,1.0",
        "a,1,2.0",
        "b,0,1.5,0.0",
        "b,1,2.5,1.0",
    ])
    message = f"{d / 'data.csv'}: line 3: expected 4 fields, got 3"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_dataset_dir(str(d))


def test_loader_requires_every_domain_in_splits(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "splits.csv", ["domain_id,split", "a,train"])
    with pytest.raises(DataError, match="split"):
        load_dataset_dir(str(d))


def test_loader_rejects_unknown_split_names(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "splits.csv", ["domain_id,split", "a,train", "b,holdout"])
    with pytest.raises(DataError, match="holdout"):
        load_dataset_dir(str(d))


def test_loader_rejects_missing_files(tmp_path):
    d = good_dir(tmp_path)
    (d / "meta.csv").unlink()
    with pytest.raises(DataError, match="meta.csv"):
        load_dataset_dir(str(d))


def test_adjacency_file_switches_fixed_kind(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "adjacency.txt", ["a b"])
    ds = load_dataset_dir(str(d))
    assert ds.edges is not None
    assert ds.fixed_between(["a"], ["b"])[0, 0] == 1.0


def test_adjacency_unknown_id_raises(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "adjacency.txt", ["a zz"])
    with pytest.raises(DataError, match="zz"):
        load_dataset_dir(str(d))


def test_meta_csv_duplicate_domain_raises(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "meta.csv", ["domain_id,angle", "a,0.1", "a,0.2", "b,1.2"])
    with pytest.raises(DataError, match="duplicate"):
        load_meta_csv(str(d / "meta.csv"))


def test_meta_csv_empty_is_an_error(tmp_path):
    d = good_dir(tmp_path)
    write_rows(d / "meta.csv", ["domain_id,angle"])
    with pytest.raises(DataError, match="no meta"):
        load_meta_csv(str(d / "meta.csv"))


def test_load_adjacency_parses_pairs(tmp_path):
    p = tmp_path / "adjacency.txt"
    write_rows(p, ["a b", "", "b c"])
    assert load_adjacency(str(p), ["a", "b", "c"]) == [("a", "b"), ("b", "c")]
    write_rows(p, ["a b c"])
    with pytest.raises(DataError):
        load_adjacency(str(p), ["a", "b", "c"])


def test_load_dataset_accepts_explicit_paths(tmp_path):
    """The directory's three files, read by the one loader, with the task given explicitly."""
    d = good_dir(tmp_path)
    ds = load_dataset_dir(str(d), task="auto")
    assert ds.ids == ["a", "b"]
    assert ds.task == "classification"
    forced = load_dataset_dir(str(d), task="regression")
    assert forced.task == "regression"
    assert forced.ids == ds.ids and np.array_equal(forced.y, ds.y)
