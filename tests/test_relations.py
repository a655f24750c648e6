"""Relation sources and their fusion: closed-form angle cases, brute-force
oracles for the learned similarity, and finite-difference gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgen.errors import ConfigError, DataError
from relgen.nn import Mlp, backward, forward, grad_check
from relgen.relations import (
    RelationMatrix,
    RelationNet,
    adjacency_matrix,
    angle_matrix,
    build_matrix,
    fixed_angle_similarity,
    fuse,
    learned_matrix,
    learned_matrix_backward,
    learned_relation,
    load_relation_csv,
    normalize_weights,
    relation_matrix_to_csv,
    relation_row,
    save_relation_csv,
)


def tiny_net(meta_dim=2, width=3, n_heads=2, seed=5):
    return RelationNet.init(meta_dim, np.random.default_rng(seed), width=width, n_heads=n_heads)


# -- fixed relations -------------------------------------------------------------


def test_angle_similarity_closed_forms():
    assert fixed_angle_similarity(0.7, 0.7) == 1.0
    assert fixed_angle_similarity(0.0, np.pi / 3) == pytest.approx(0.5, abs=1e-15)
    assert fixed_angle_similarity(0.0, np.pi / 2) == pytest.approx(0.0, abs=1e-15)
    # beyond a quarter turn the similarity clamps to zero
    assert fixed_angle_similarity(0.0, 0.75 * np.pi) == 0.0
    assert fixed_angle_similarity(0.0, np.pi) == 0.0
    # wrap-around: angles just inside +pi and -pi are near each other
    assert fixed_angle_similarity(np.pi - 0.1, -np.pi + 0.1) == pytest.approx(
        np.cos(0.2), abs=1e-15
    )


def test_angle_matrix_matches_pairwise_calls():
    angles = np.array([0.0, 0.4, -2.0, 3.1])
    m = angle_matrix(angles)
    for i in range(4):
        for j in range(4):
            assert m[i, j] == pytest.approx(
                fixed_angle_similarity(angles[i], angles[j]), abs=1e-15
            )
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), 1.0)


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
    gi, _ = forward(net.g, m_i)
    gj, _ = forward(net.g, m_j)
    expect = 0.0
    for r in range(net.n_heads):
        u, v = net.w[r] * gi, net.w[r] * gj
        expect += (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    expect /= net.n_heads
    assert learned_relation(net, m_i, m_j) == pytest.approx(expect, abs=1e-12)


def test_learned_matrix_agrees_with_single_pairs():
    net = tiny_net(seed=11)
    metas = np.random.default_rng(2).normal(size=(4, 2))
    m, _ = learned_matrix(net, metas)
    for i in range(4):
        for j in range(4):
            assert m[i, j] == pytest.approx(
                learned_relation(net, metas[i], metas[j]), abs=1e-12
            )
    assert np.abs(m - m.T).max() <= 1e-12
    assert np.allclose(np.diag(m), 1.0, atol=1e-12)


def test_learned_relation_self_similarity_is_one():
    net = tiny_net(seed=3)
    m = np.array([0.5, 2.0])
    assert learned_relation(net, m, m) == pytest.approx(1.0, abs=1e-12)


def test_zero_embedding_contributes_zero():
    # with zero biases, tanh layers map the zero meta vector to the zero
    # embedding, so every head is dead and the similarity is exactly 0
    net = tiny_net(seed=7)
    zero = np.zeros(2)
    other = np.array([1.0, -0.5])
    assert learned_relation(net, zero, other) == 0.0
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
    a_l = np.einsum("rks,rls->kl", unit, unit) / net.n_heads
    return a_l, (reps, tape, unit, norm, alive)


def _einsum_learned_matrix_backward(net, cache, d_a_l):
    reps, tape, unit, norm, alive = cache
    d_a_l = d_a_l / net.n_heads
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
    stacked = nets[0].copy()
    for i, layer in enumerate(stacked.g.layers):
        layer.w = np.stack([net.g.layers[i].w for net in nets])
        layer.b = np.stack([net.g.layers[i].b for net in nets])
    stacked.w = np.stack([net.w for net in nets])
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
    net = tiny_net(seed=17)
    angles = np.array([[0.1], [1.2], [-2.0]])
    net2 = RelationNet.init(1, np.random.default_rng(1), width=3, n_heads=2)
    fixed = angle_matrix(angles.ravel())
    rm = build_matrix(["a", "b", "c"], angles, net2, 0.8, fixed)
    assert np.allclose(np.diag(rm.fused), 1.0)
    assert np.abs(rm.fused - rm.fused.T).max() <= 1e-12
    assert rm.fused.min() >= 0.0
    assert rm.row("b") is rm.fused[1] or np.array_equal(rm.row("b"), rm.fused[1])
    # off-diagonal entries follow the fusion rule
    assert rm.fused[0, 1] == pytest.approx(
        max(0.0, 0.8 * fixed[0, 1] + 0.2 * rm.learned[0, 1]), abs=1e-12
    )


def test_relation_matrix_rejects_asymmetry_and_negatives():
    ids = ["a", "b"]
    sym = np.eye(2)
    with pytest.raises(ValueError, match="not symmetric"):
        RelationMatrix(ids, np.array([[1.0, 0.2], [0.1, 1.0]]), sym, sym, 0.5)
    with pytest.raises(ValueError, match="negative"):
        RelationMatrix(ids, sym, sym, np.array([[1.0, -0.1], [-0.1, 1.0]]), 0.5)
    with pytest.raises(ValueError, match="shape"):
        RelationMatrix(ids, np.eye(3), sym, sym, 0.5)


def test_relation_row_matches_brute_force():
    net = RelationNet.init(1, np.random.default_rng(23), width=4, n_heads=3)
    metas = np.array([[0.2], [1.5], [-0.9]])
    theta_t = 0.6
    fixed_row = np.array([fixed_angle_similarity(theta_t, m[0]) for m in metas])
    row = relation_row(net, np.array([theta_t]), metas, fixed_row, 0.7)
    for j in range(3):
        learned = learned_relation(net, np.array([theta_t]), metas[j])
        assert row[j] == pytest.approx(
            max(0.0, 0.7 * fixed_row[j] + 0.3 * learned), abs=1e-12
        )


# -- weight normalization -----------------------------------------------------------


def test_normalize_weights_examples():
    assert normalize_weights([1.0, 3.0]).tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        normalize_weights([-0.1, 1.0])
    with pytest.raises(ValueError):
        normalize_weights([])
    with pytest.raises(ValueError):
        normalize_weights(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_weights_rejects_non_finite(bad):
    # NaN passes both a "< 0" and a "<= 0" test, so it must be caught by name
    with pytest.raises(ValueError, match="finite and nonnegative"):
        normalize_weights([bad, 1.0])


def test_normalize_zero_row_falls_back_to_uniform(caplog):
    with caplog.at_level("WARNING", logger="relgen.relations"):
        w = normalize_weights([0.0, 0.0, 0.0, 0.0])
    assert w.tolist() == [0.25, 0.25, 0.25, 0.25]
    assert any("all-zero relation row" in rec.message for rec in caplog.records)


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_normalize_weights_live_on_the_simplex(vals):
    w = normalize_weights(vals)
    assert abs(w.sum() - 1.0) < 1e-12
    assert (w >= 0.0).all()


@given(
    st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=7),
    st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_fused_angle_matrices_stay_in_unit_range(angles, beta):
    fixed = angle_matrix(np.array(angles))
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


def test_relation_csv_header_is_stable():
    text = relation_matrix_to_csv(["x", "y"], np.eye(2))
    lines = text.splitlines()
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
