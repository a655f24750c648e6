"""Relation sources and their fusion: closed-form angle cases, brute-force
oracles for the learned similarity, and finite-difference gradients."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgen.errors import ConfigError, DataError
from relgen.nn import Mlp, backward, forward
from relgen.relations import (
    RelationNet,
    adjacency_matrix,
    angle_between,
    build_matrix,
    fuse,
    learned_matrix,
    learned_matrix_backward,
    normalize_rows,
    relation_row,
    save_relation_csv,
)

from reference import grad_check, load_relation_csv


def tiny_net(meta_dim=2, width=3, n_heads=2, seed=5):
    return RelationNet.init(meta_dim, np.random.default_rng(seed), width=width, n_heads=n_heads)


def angle_pair(theta_i, theta_j):
    """angle_between on two single angles."""
    return angle_between(theta_i, theta_j)[0, 0]


def learned_pair(net, m_i, m_j):
    """learned_matrix on the two rows, the only learned-similarity code."""
    return learned_matrix(net, np.stack([m_i, m_j]))[0][0, 1]


def brute_force_relation(net, m_i, m_j):
    """Masked cosines of two meta rows, one head at a time; a dead head adds 0."""
    gi = forward(net.g, np.asarray(m_i, dtype=np.float64)[None])[0][0]
    gj = forward(net.g, np.asarray(m_j, dtype=np.float64)[None])[0][0]
    total = 0.0
    for r in range(len(net.w)):
        u, v = net.w[r] * gi, net.w[r] * gj
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        if nu > 0.0 and nv > 0.0:
            total += float(u @ v) / (nu * nv)
    return total / len(net.w)


def stack_nets(nets):
    """One RelationNet whose parameters carry a leading seed axis over the nets."""
    stacked = copy.deepcopy(nets[0])
    for i, layer in enumerate(stacked.g.layers):
        layer.w = np.stack([net.g.layers[i].w for net in nets])
        layer.b = np.stack([net.g.layers[i].b for net in nets])
    stacked.w = np.stack([net.w for net in nets])
    return stacked


# -- fixed relations -------------------------------------------------------------


def test_angle_similarity_closed_forms():
    assert angle_pair(0.7, 0.7) == 1.0
    assert angle_pair(0.0, np.pi / 3) == pytest.approx(0.5, abs=1e-15)
    assert angle_pair(0.0, np.pi / 2) == pytest.approx(0.0, abs=1e-15)
    # beyond a quarter turn the similarity clamps to zero
    assert angle_pair(0.0, 0.75 * np.pi) == 0.0
    assert angle_pair(0.0, np.pi) == 0.0
    # wrap-around: angles just inside +pi and -pi are near each other
    assert angle_pair(np.pi - 0.1, -np.pi + 0.1) == pytest.approx(
        np.cos(0.2), abs=1e-15
    )


def test_angle_matrix_matches_pairwise_calls():
    angles = np.array([0.0, 0.4, -2.0, 3.1])
    m = angle_between(angles, angles)
    for i in range(4):
        for j in range(4):
            assert m[i, j] == pytest.approx(
                angle_pair(angles[i], angles[j]), abs=1e-15
            )
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), 1.0)


def test_angle_between_takes_one_column_meta_data_only():
    column = np.array([[0.0], [0.4], [-2.0]])
    assert angle_between(column, column).tobytes() == angle_between(column[:, 0], column[:, 0]).tobytes()
    for ta, tb in ((np.zeros((3, 2)), np.zeros((3, 2))), (column, np.zeros((2, 2)))):
        with pytest.raises(ConfigError, match="an adjacency list or one-column angle meta-data"):
            angle_between(ta, tb)


def test_adjacency_matrix_oracle():
    m = adjacency_matrix(["a", "b", "c"], [("a", "b")])
    assert m.tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    with pytest.raises(DataError, match="unknown domain id 'z'"):
        adjacency_matrix(["a", "b"], [("a", "z")])
    with pytest.raises(DataError, match="duplicate"):
        adjacency_matrix(["a", "a"], [])


# -- learned relations ------------------------------------------------------------


def test_learned_relation_matches_brute_force():
    net = tiny_net()
    m_i, m_j = np.array([0.3, -1.0]), np.array([0.8, 0.2])
    gi = forward(net.g, m_i[None])[0][0]
    gj = forward(net.g, m_j[None])[0][0]
    expect = 0.0
    for r in range(len(net.w)):
        u, v = net.w[r] * gi, net.w[r] * gj
        expect += (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    expect /= len(net.w)
    assert learned_pair(net, m_i, m_j) == pytest.approx(expect, abs=1e-12)
    assert brute_force_relation(net, m_i, m_j) == pytest.approx(expect, abs=1e-12)


def test_learned_matrix_agrees_with_single_pairs():
    net = tiny_net(seed=11)
    metas = np.random.default_rng(2).normal(size=(4, 2))
    m, _ = learned_matrix(net, metas)
    for i in range(4):
        for j in range(4):
            assert m[i, j] == pytest.approx(
                brute_force_relation(net, metas[i], metas[j]), abs=1e-12
            )
    assert np.abs(m - m.T).max() <= 1e-12
    assert np.allclose(np.diag(m), 1.0, atol=1e-12)


def test_learned_relation_self_similarity_is_one():
    net = tiny_net(seed=3)
    m = np.array([0.5, 2.0])
    assert learned_pair(net, m, m) == pytest.approx(1.0, abs=1e-12)


def test_zero_embedding_contributes_zero():
    # with zero biases, tanh layers map the zero meta vector to the zero
    # embedding, so every head is dead and the similarity is exactly 0
    net = tiny_net(seed=7)
    zero = np.zeros(2)
    other = np.array([1.0, -0.5])
    assert learned_pair(net, zero, other) == 0.0
    assert brute_force_relation(net, zero, other) == 0.0
    m, _ = learned_matrix(net, np.stack([zero, other]))
    assert m[0, 1] == 0.0 and m[0, 0] == 0.0


def test_learned_matrix_gradient_matches_finite_differences():
    net = tiny_net(seed=13)
    metas = np.random.default_rng(4).normal(size=(3, 2))
    d_a = np.random.default_rng(5).normal(size=(3, 3))
    np.fill_diagonal(d_a, 0.0)  # diagonal is constant, carries no gradient

    def fn(params):
        probe = tiny_net(seed=13)
        for p, a in zip(probe.params(), params):
            np.copyto(p, a)
        m, cache = learned_matrix(probe, metas)
        grads = learned_matrix_backward(probe, cache, d_a)
        return float((d_a * m).sum()), grads

    assert grad_check(fn, net.params()) < 1e-5


def test_dead_rows_carry_no_gradient():
    # a zero embedding makes the normalized similarity non-differentiable;
    # the backward pass picks the zero subgradient, so entries touching the
    # dead domain must contribute nothing
    net = tiny_net(seed=13)
    metas = np.stack([np.zeros(2), np.array([1.0, 2.0]), np.array([-1.0, 0.5])])
    _, cache = learned_matrix(net, metas)
    full = np.ones((3, 3)) - np.eye(3)
    masked = full.copy()
    masked[0, :] = 0.0
    masked[:, 0] = 0.0
    g_full = learned_matrix_backward(net, cache, full)
    g_masked = learned_matrix_backward(net, cache, masked)
    for a, b in zip(g_full, g_masked):
        assert np.array_equal(a, b)


# The einsum formulas learned_matrix(_backward) used before the (K, R*s) GEMM
# form, kept as the reference: head-major (R, K, s) unit vectors.


def _einsum_learned_matrix(net, metas):
    reps, tape = forward(net.g, metas)
    masked = net.w[:, None, :] * reps[None, :, :]
    norm = np.linalg.norm(masked, axis=2)
    alive = norm > 0.0
    unit = np.zeros_like(masked)
    np.divide(masked, norm[:, :, None], out=unit, where=alive[:, :, None])
    a_l = np.einsum("rks,rls->kl", unit, unit) / len(net.w)
    return a_l, (reps, tape, unit, norm, alive)


def _einsum_learned_matrix_backward(net, cache, d_a_l):
    reps, tape, unit, norm, alive = cache
    d_a_l = d_a_l / len(net.w)
    d_unit = np.einsum("kl,rls->rks", d_a_l, unit)
    d_unit += np.einsum("lk,rls->rks", d_a_l, unit)
    inner = (d_unit * unit).sum(axis=2, keepdims=True)
    d_masked = np.zeros_like(d_unit)
    np.divide(d_unit - inner * unit, norm[:, :, None], out=d_masked, where=alive[:, :, None])
    d_w = (d_masked * reps[None, :, :]).sum(axis=1)
    d_reps = (d_masked * net.w[:, None, :]).sum(axis=0)
    g_grads, _ = backward(net.g, tape, d_reps)
    return g_grads + [d_w]


def _gemm_and_einsum(net, metas, d_a):
    a_l, cache = learned_matrix(net, metas)
    a_ref, cache_ref = _einsum_learned_matrix(net, metas)
    grads = learned_matrix_backward(net, cache, d_a)
    refs = _einsum_learned_matrix_backward(net, cache_ref, d_a)
    return a_l, a_ref, grads, refs


@pytest.mark.parametrize("k", [2, 5, 18])
def test_learned_matrix_with_a_seed_axis_matches_each_net(k):
    rng = np.random.default_rng(7 * k)
    nets = [RelationNet.init(2, rng, width=32, n_heads=4) for _ in range(3)]
    for net in nets:
        net.w = 1.0 + 0.3 * rng.normal(size=net.w.shape)
    nets[1].w[2] = 0.0  # a dead head in one seed only
    stacked = stack_nets(nets)
    metas = rng.normal(size=(k, 2))
    d_a = rng.normal(size=(3, k, k))
    a_l, cache = learned_matrix(stacked, metas)
    grads = learned_matrix_backward(stacked, cache, d_a)
    for s, net in enumerate(nets):
        a_ref, cache_ref = learned_matrix(net, metas)
        assert a_l[s].tobytes() == a_ref.tobytes()
        refs = learned_matrix_backward(net, cache_ref, d_a[s])
        for got, want in zip(grads, refs):
            assert got[s].tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 18])
@pytest.mark.parametrize("n_heads", [1, 4])
@pytest.mark.parametrize("dead", [False, True], ids=["live", "dead"])
def test_gemm_relations_match_the_einsum_formulas(k, n_heads, dead):
    # a GEMM sums in another order than einsum: A_l may move by rounding,
    # each gradient array by rounding relative to its largest entry
    rng = np.random.default_rng(100 * k + 10 * n_heads + dead)
    for _ in range(20):
        net = RelationNet.init(2, rng, width=32, n_heads=n_heads)
        net.w = 1.0 + 0.3 * rng.normal(size=net.w.shape)  # trained masks leave ones
        metas = rng.normal(size=(k, 2))
        if dead:
            net.w[rng.integers(n_heads)] = 0.0  # a zero mask vector
            metas[0] = 0.0  # zero biases: a zero embedding, so a dead domain row
        d_a = rng.normal(size=(k, k))
        np.fill_diagonal(d_a, 0.0)
        a_l, a_ref, grads, refs = _gemm_and_einsum(net, metas, d_a)
        assert np.array_equal(a_l, a_l.T)
        assert np.abs(a_l - a_ref).max() <= 1e-14
        for got, ref in zip(grads, refs):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_gemm_relations_match_einsum_on_near_duplicate_metas():
    # two nearly equal one-dimensional metas give nearly parallel embeddings;
    # the gradient then cancels down to ~1e-10 and carries rounding of order
    # 1e-18 in either formula, so the bound is absolute, in units of |d_a|
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.choice([2, 5, 18]))
        net = RelationNet.init(1, rng, width=32, n_heads=int(rng.choice([1, 4])))
        net.w = 1.0 + 0.3 * rng.normal(size=net.w.shape)
        metas = rng.normal(size=(k, 1))
        metas[1] = metas[0] + 10.0 ** rng.uniform(-6, -2)
        d_a = rng.normal(size=(k, k))
        np.fill_diagonal(d_a, 0.0)
        a_l, a_ref, grads, refs = _gemm_and_einsum(net, metas, d_a)
        assert np.array_equal(a_l, a_l.T)
        assert np.abs(a_l - a_ref).max() <= 1e-14
        for got, ref in zip(grads, refs):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(d_a).max()


def test_relation_net_validation():
    g = Mlp.init([2, 3, 3], ["tanh", "tanh"], np.random.default_rng(0))
    with pytest.raises(ValueError, match="embedding dimension"):
        RelationNet(g, np.ones((2, 4)))
    with pytest.raises(ValueError):
        learned_matrix(tiny_net(), np.zeros(3))


# -- fusion ------------------------------------------------------------------------


def test_fuse_arithmetic():
    assert fuse(1.0, 0.5, 0.8) == pytest.approx(0.9, abs=1e-15)
    assert fuse(0.0, 1.0, 1.0) == 0.0
    assert fuse(0.0, 1.0, 0.0) == 1.0
    # negative mixtures clamp at zero
    assert fuse(0.0, -0.8, 0.5) == 0.0
    a = fuse(np.array([1.0, 0.0]), np.array([-1.0, 0.5]), 0.5)
    assert a.tolist() == [0.0, 0.25]
    with pytest.raises(ConfigError):
        fuse(1.0, 1.0, 1.5)
    with pytest.raises(ConfigError):
        fuse(1.0, 1.0, -0.1)


def test_build_matrix_pins_diagonal_and_symmetry():
    angles = np.array([[0.1], [1.2], [-2.0]])
    net = RelationNet.init(1, np.random.default_rng(1), width=3, n_heads=2)
    fixed = angle_between(angles, angles)
    fused = build_matrix(angles, net, 0.8, fixed)
    learned = learned_matrix(net, angles)[0]
    assert np.allclose(np.diag(fused), 1.0)
    assert np.abs(fused - fused.T).max() <= 1e-12
    assert fused.min() >= 0.0
    # off-diagonal entries follow the fusion rule
    assert fused[0, 1] == pytest.approx(
        max(0.0, 0.8 * fixed[0, 1] + 0.2 * learned[0, 1]), abs=1e-12
    )


def test_relation_matrix_rejects_asymmetry_and_negatives():
    """At beta 0, build_matrix is the learned matrix: (K, K), symmetric, negatives clamped."""
    metas = np.random.default_rng(4).normal(size=(4, 2))
    net = tiny_net(seed=9)
    learned = learned_matrix(net, metas)[0]
    assert learned.min() < 0.0  # so the clamp has work to do
    fused = build_matrix(metas, net, 0.0, np.full((4, 4), 5.0))
    assert fused.shape == (4, 4)
    assert np.array_equal(fused, fused.T)
    assert fused.min() >= 0.0
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal(fused[off], np.maximum(learned, 0.0)[off])


def test_relation_row_matches_brute_force():
    """One target's row, and each row of a (T, m) block of targets."""
    net = RelationNet.init(1, np.random.default_rng(23), width=4, n_heads=3)
    metas = np.array([[0.2], [1.5], [-0.9]])
    thetas = [0.6, -2.1, 1.1, 3.0]
    fixed = np.array([[angle_pair(theta_t, m[0]) for m in metas] for theta_t in thetas])
    block = relation_row(net, np.array(thetas)[:, None], metas, fixed, 0.7)
    assert block.shape == (len(thetas), 3)
    for t, theta_t in enumerate(thetas):
        row = relation_row(net, np.array([theta_t]), metas, fixed[t], 0.7)
        for j in range(3):
            learned = brute_force_relation(net, np.array([theta_t]), metas[j])
            want = max(0.0, 0.7 * fixed[t, j] + 0.3 * learned)
            assert row[j] == pytest.approx(want, abs=1e-12)
            assert block[t, j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("beta", [0.8, 1.0, 0.0])
def test_relation_row_on_a_block_with_a_seed_axis_matches_single_calls(beta):
    """(S, T, K) from one call, each row the bits of its own net on its own target."""
    rng = np.random.default_rng(31)
    nets = [RelationNet.init(2, rng, width=8, n_heads=3) for _ in range(3)]
    for net in nets:
        net.w = 1.0 + 0.3 * rng.normal(size=net.w.shape)
    metas, targets = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
    fixed = rng.uniform(size=(4, 5))
    block = relation_row(stack_nets(nets), targets, metas, fixed, beta)
    assert block.shape == (3, 4, 5) and block.flags.c_contiguous
    for s, net in enumerate(nets):
        alone = relation_row(net, targets, metas, fixed, beta)
        for t in range(4):
            want = relation_row(net, targets[t], metas, fixed[t], beta).tobytes()
            assert block[s, t].tobytes() == alone[t].tobytes() == want
    one = relation_row(stack_nets(nets), targets[2], metas, fixed[2], beta)
    assert one.shape == (3, 5) and one.tobytes() == np.ascontiguousarray(block[:, 2]).tobytes()
    if beta == 1.0:  # the net's share of 0 keeps the fixed rows' bits
        assert block.tobytes() == np.broadcast_to(fixed, block.shape).tobytes()


# -- weight normalization -----------------------------------------------------------


def test_normalize_weights_examples(caplog):
    assert normalize_rows([1.0, 3.0]).tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        normalize_rows([-0.1, 1.0])
    with pytest.raises(ValueError, match="non-empty"):
        normalize_rows([])
    with pytest.raises(ValueError, match="non-empty"):
        normalize_rows(np.zeros((2, 0)))
    with caplog.at_level("WARNING", logger="relgen.relations"):
        assert normalize_rows(np.zeros((2, 2))).tolist() == [[0.5, 0.5], [0.5, 0.5]]  # row by row


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_weights_rejects_non_finite(bad):
    # NaN passes both a "< 0" and a "<= 0" test, so it must be caught by name
    with pytest.raises(ValueError, match="finite and nonnegative"):
        normalize_rows([bad, 1.0])


def test_normalize_zero_row_falls_back_to_uniform(caplog):
    with caplog.at_level("WARNING", logger="relgen.relations"):
        w = normalize_rows([0.0, 0.0, 0.0, 0.0])
    assert w.tolist() == [0.25, 0.25, 0.25, 0.25]
    assert any("all-zero relation row" in rec.message for rec in caplog.records)


def test_normalize_rows_matches_each_row_alone(caplog):
    rows = np.random.default_rng(3).uniform(size=(2, 3, 4))
    rows[1, 2] = 0.0
    with caplog.at_level("WARNING", logger="relgen.relations"):
        got = normalize_rows(rows)
    assert sum("all-zero relation row" in rec.message for rec in caplog.records) == 1
    assert got[1, 2].tolist() == [0.25] * 4
    for i in np.ndindex(2, 3):
        assert got[i].tobytes() == normalize_rows(rows[i]).tobytes()


def test_normalize_rows_counts_its_fallback_rows_in_one_warning(caplog):
    rows = np.random.default_rng(4).uniform(size=(2, 3, 4))
    rows[0, 1] = rows[1, 2] = 0.0
    with caplog.at_level("WARNING", logger="relgen.relations"):
        got = normalize_rows(rows)
    assert [rec.getMessage() for rec in caplog.records] == [
        "all-zero relation rows: 2 of 6; falling back to uniform weights"
    ]
    # given names for the rows along axis -2, the warning names each one that fell back
    caplog.clear()
    with caplog.at_level("WARNING", logger="relgen.relations"):
        named = normalize_rows(rows, ["a", "b", "c"])
    assert [rec.getMessage() for rec in caplog.records] == [
        "all-zero relation rows: 2 of 6 (b, c); falling back to uniform weights"
    ]
    assert named.tobytes() == got.tobytes()
    assert got[0, 1].tolist() == got[1, 2].tolist() == [0.25] * 4
    for i in np.ndindex(2, 3):
        assert got[i].tobytes() == normalize_rows(rows[i]).tobytes()
    rows[0, 1, 3] = -0.5
    with pytest.raises(ValueError, match="finite and nonnegative"):
        normalize_rows(rows)


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_normalize_weights_live_on_the_simplex(vals):
    w = normalize_rows(vals)
    assert abs(w.sum() - 1.0) < 1e-12
    assert (w >= 0.0).all()


@given(
    st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=7),
    st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_fused_angle_matrices_stay_in_unit_range(angles, beta):
    fixed = angle_between(angles, angles)
    fused = fuse(fixed, fixed, beta)  # degenerate fusion keeps the range
    assert fused.min() >= 0.0 and fused.max() <= 1.0 + 1e-12
    assert np.abs(fused - fused.T).max() <= 1e-12


# -- csv round trip -------------------------------------------------------------------


def test_relation_csv_round_trip(tmp_path):
    ids = ["a", "b", "c"]
    m = np.array([[1.0, 0.25, 0.0], [0.25, 1.0, 1 / 3], [0.0, 1 / 3, 1.0]])
    path = str(tmp_path / "rel.csv")
    save_relation_csv(path, ids, m)
    ids2, m2 = load_relation_csv(path)
    assert ids2 == ids
    assert np.array_equal(m, m2)  # repr round-trips float64 exactly


def test_relation_csv_header_is_stable(tmp_path):
    path = tmp_path / "rel.csv"
    save_relation_csv(str(path), ["x", "y"], np.eye(2))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "domain_id,x,y"
    assert lines[1].startswith("x,1.0,")


def test_load_relation_csv_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("wrong,a,b\n")
    with pytest.raises(DataError, match="header"):
        load_relation_csv(str(p))
    p.write_text("domain_id,a,b\na,1.0,0.0\n")
    with pytest.raises(DataError, match="matrix rows"):
        load_relation_csv(str(p))
    p.write_text("domain_id,a,b\na,1.0,0.0\nc,0.0,1.0\n")
    with pytest.raises(DataError, match="malformed"):
        load_relation_csv(str(p))
    p.write_text("domain_id,a,b\na,1.0,zero\nb,0.0,1.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_relation_csv(str(p))
    p.write_bytes(b"domain_id,a,b\na,1.0,0.0\nb,0.0,\xff\n")
    with pytest.raises(DataError, match="cannot read"):
        load_relation_csv(str(p))
