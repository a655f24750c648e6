"""Network building blocks: forwards against hand arithmetic, backwards
against central finite differences, and the numeric edge cases."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgen.errors import NumericalError
from relgen.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Layer,
    Mlp,
    adam_step,
    backward,
    flatten,
    forward,
    init_opt_state,
    loss_ce_batch,
    loss_ce_rows,
    loss_mse,
    softmax,
    split,
    stack_backward,
    stack_forward,
)

from reference import grad_check


def small_mlp(rng=None):
    rng = rng or np.random.default_rng(7)
    return Mlp.init([3, 4, 2], ["tanh", "identity"], rng)


# -- forward -------------------------------------------------------------------


def test_forward_matches_hand_arithmetic():
    # one relu layer: y = max(0, w @ x + b)
    layer = Layer(np.array([[1.0, -2.0], [0.5, 0.5]]), np.array([0.0, -1.0]), "relu")
    mlp = Mlp([layer])
    out, _ = forward(mlp, np.array([[3.0, 1.0]]))
    # row 0: 3 - 2 = 1; row 1: 1.5 + 0.5 - 1 = 1
    assert out.tolist() == [[1.0, 1.0]]
    out, _ = forward(mlp, np.array([[1.0, 2.0]]))
    # row 0: 1 - 4 = -3 -> 0; row 1: 0.5 + 1 - 1 = 0.5
    assert out.tolist() == [[0.0, 0.5]]


def test_forward_two_layers_tanh():
    l1 = Layer(np.array([[2.0]]), np.array([0.0]), "tanh")
    l2 = Layer(np.array([[3.0]]), np.array([1.0]), "identity")
    out, _ = forward(Mlp([l1, l2]), np.array([[0.5]]))
    assert out[0, 0] == pytest.approx(3.0 * math.tanh(1.0) + 1.0, abs=1e-15)


def test_forward_batch_matches_single_rows():
    mlp = small_mlp()
    xb = np.random.default_rng(0).normal(size=(5, 3))
    batch, _ = forward(mlp, xb)
    for i in range(5):
        single, _ = forward(mlp, xb[i : i + 1])
        # matrix and vector BLAS paths may differ in the last ulp
        assert np.allclose(batch[i], single[0], rtol=1e-14, atol=1e-15)


def test_forward_rejects_wrong_width():
    with pytest.raises(ValueError, match="input dim"):
        forward(small_mlp(), np.zeros((1, 4)))


@pytest.mark.parametrize("shape", [(3,), ()], ids=["vector", "scalar"])
def test_forward_rejects_an_input_that_is_not_a_batch(shape):
    # a single row is the batch x[None], never promoted silently
    with pytest.raises(ValueError, match="batch of rows"):
        forward(small_mlp(), np.zeros(shape))


def test_init_shapes_and_bounds():
    mlp = Mlp.init([5, 8, 2], ["relu", "identity"], np.random.default_rng(1))
    assert mlp.in_dim == 5 and mlp.out_dim == 2
    assert mlp.layers[0].w.shape == (8, 5)
    assert np.all(mlp.layers[0].b == 0.0) and np.all(mlp.layers[1].b == 0.0)
    assert np.abs(mlp.layers[0].w).max() <= 1.0 / np.sqrt(5)
    assert np.abs(mlp.layers[1].w).max() <= 1.0 / np.sqrt(8)


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 2)), np.zeros(2), "swish")
    with pytest.raises(ValueError):
        Layer(np.array([[np.inf, 0.0]]), np.zeros(1))
    with pytest.raises(ValueError, match="layer 1"):
        Mlp([Layer(np.zeros((3, 2)), np.zeros(3)), Layer(np.zeros((1, 4)), np.zeros(1))])
    with pytest.raises(ValueError):
        Mlp([])


# -- backward ------------------------------------------------------------------


def test_backward_matches_finite_differences():
    mlp = small_mlp()
    x = np.random.default_rng(3).normal(size=(4, 3))
    c = np.random.default_rng(4).normal(size=(4, 2))

    def fn(params):
        probe = small_mlp()
        for p, a in zip(probe.params(), params):
            np.copyto(p, a)
        out, tape = forward(probe, x)
        grads, _ = backward(probe, tape, c)
        return float((out * c).sum()), grads

    assert grad_check(fn, mlp.params()) < 1e-8


def test_backward_input_gradient():
    mlp = small_mlp()
    x0 = np.random.default_rng(5).normal(size=(1, 3))
    c = np.array([[1.0, -2.0]])
    out, tape = forward(mlp, x0)
    _, gx = backward(mlp, tape, c)
    h = 1e-6
    for i in range(3):
        xp, xm = x0.copy(), x0.copy()
        xp[0, i] += h
        xm[0, i] -= h
        num = ((forward(mlp, xp)[0] * c).sum() - (forward(mlp, xm)[0] * c).sum()) / (2 * h)
        assert gx[0, i] == pytest.approx(num, abs=1e-7)


@pytest.mark.parametrize("dims,acts", [
    ([3, 4], ["relu"]),
    ([3, 4, 2], ["tanh", "identity"]),
    ([2, 5, 4, 3], ["relu", "tanh", "identity"]),
])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "seed-axis"])
def test_skipping_the_input_gradient_keeps_every_parameter_gradient(dims, acts, lead):
    rng = np.random.default_rng(len(dims) + len(lead))
    nets = [Mlp.init(dims, acts, rng) for _ in range(lead[0] if lead else 1)]
    net = _stacked_mlp(nets) if lead else nets[0]
    x = rng.normal(size=lead + (6, dims[0]))
    g = rng.normal(size=lead + (6, dims[-1]))
    _, tape = forward(net, x)
    full, gx = backward(net, tape, g)
    buffer = [np.full(p.shape, np.nan) for p in net.params()]
    grads, none = backward(net, tape, g, out=buffer, input_grad=False)
    assert gx is not None and none is None
    assert all(a is b for a, b in zip(grads, buffer))
    for got, want in zip(grads, full):
        assert got.tobytes() == want.tobytes()


def test_backward_rejects_stale_tape():
    mlp = small_mlp()
    other = Mlp.init([3, 5, 2], ["tanh", "identity"], np.random.default_rng(8))
    _, tape = forward(other, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="stale"):
        backward(mlp, tape, np.zeros((1, 2)))


def test_grad_check_flags_a_wrong_gradient():
    def fn(params):
        (p,) = params
        return float((p * p).sum()), [2.0 * p + 1.0]  # off by a constant

    assert grad_check(fn, [np.array([0.3, -0.7])]) > 0.1


# -- losses --------------------------------------------------------------------


def ce_one_row(logits, label):
    """Cross-entropy of one logit vector: loss_ce_rows on a single row."""
    losses, grad = loss_ce_rows(np.asarray(logits, dtype=np.float64)[None], np.array([label]))
    return float(losses[0]), grad[0]


def test_ce_of_equal_logits_is_log_2():
    loss, grad = ce_one_row(np.array([0.0, 0.0]), 0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)
    assert grad == pytest.approx([-0.5, 0.5], abs=1e-15)


def test_ce_extreme_logits_stay_finite():
    loss, grad = ce_one_row(np.array([1000.0, 0.0]), 0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(grad).all()
    loss, _ = ce_one_row(np.array([-1000.0, 0.0]), 0)
    assert loss == pytest.approx(1000.0, rel=1e-12)
    loss, _ = loss_ce_batch(np.array([[800.0, -800.0], [-800.0, 800.0]]), np.array([0, 1]))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_ce_batch_is_mean_of_singles():
    logits = np.random.default_rng(11).normal(size=(6, 3))
    labels = np.array([0, 2, 1, 1, 0, 2])
    singles = [ce_one_row(logits[i], labels[i]) for i in range(6)]
    loss, grad = loss_ce_batch(logits, labels)
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), abs=1e-12)
    assert np.allclose(grad, np.stack([s[1] for s in singles]) / 6, atol=1e-15)
    rows, rows_grad = loss_ce_rows(logits, labels)
    assert np.allclose(rows, [s[0] for s in singles], atol=1e-12)
    assert float(np.mean(rows)) == loss and np.array_equal(rows_grad, grad)


def test_ce_label_validation():
    with pytest.raises(ValueError):
        ce_one_row(np.array([0.0, 0.0]), 2)
    with pytest.raises(ValueError):
        loss_ce_batch(np.zeros((2, 2)), np.array([0, 3]))
    with pytest.raises(ValueError):
        ce_one_row(np.zeros((2, 2)), 0)


def test_ce_gradient_against_finite_differences():
    logits = np.array([0.3, -1.2, 0.8])

    def fn(params):
        (z,) = params
        loss, grad = ce_one_row(z, 1)
        return loss, [grad]

    assert grad_check(fn, [logits]) < 1e-9


def test_mse_oracle():
    loss, grad = loss_mse(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert loss == pytest.approx(2.5, abs=1e-15)
    assert grad == pytest.approx([1.0, 2.0], abs=1e-15)
    with pytest.raises(ValueError):
        loss_mse(np.zeros(2), np.zeros(3))


def test_softmax_rows_normalize():
    z = np.random.default_rng(12).normal(scale=30, size=(8, 4))
    p = softmax(z, axis=1)
    assert np.all(p >= 0.0)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_softmax_shift_invariance(vals):
    z = np.array(vals)
    assert np.allclose(softmax(z), softmax(z + 17.0), atol=1e-12)


# -- optimizer -----------------------------------------------------------------


def test_adam_minimizes_a_quadratic():
    p = [np.array([5.0, -3.0])]
    state = init_opt_state(p)
    for _ in range(400):
        adam_step(p, [2.0 * p[0]], state, lr=0.1)
    assert np.abs(p[0]).max() < 1e-3


def test_adam_zero_gradient_keeps_params():
    p = [np.array([1.5, -2.5])]
    before = p[0].copy()
    adam_step(p, [np.zeros(2)], init_opt_state(p), lr=0.5)
    assert np.array_equal(p[0], before)


def test_adam_weight_decay_is_decoupled():
    # zero gradient, positive decay: the update is exactly -lr * wd * p
    p = [np.array([2.0])]
    adam_step(p, [np.zeros(1)], init_opt_state(p), lr=0.1, weight_decay=0.5)
    assert p[0][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)


def test_adam_rejects_non_finite_gradients():
    p = [np.ones(2)]
    with pytest.raises(NumericalError):
        adam_step(p, [np.array([np.nan, 0.0])], init_opt_state(p), lr=0.1)


def test_flat_adam_step_equals_per_array_steps():
    # Adam is elementwise, so one step over a packed buffer gives the same
    # bits as one step per array
    rng = np.random.default_rng(11)
    shapes = [(4, 3), (4,), (2, 4), (2,), (1,)]
    arrays = [rng.normal(size=s) for s in shapes]
    flat = flatten(arrays)
    views = split(flat, shapes)
    state_flat, state_each = init_opt_state([flat]), init_opt_state(arrays)
    for _ in range(100):
        grads = [rng.normal(size=s) for s in shapes]
        adam_step([flat], [np.concatenate([g.ravel() for g in grads])], state_flat,
                  lr=1e-2, weight_decay=5e-4)
        adam_step(arrays, grads, state_each, lr=1e-2, weight_decay=5e-4)
    for a, v in zip(arrays, views):
        assert np.array_equal(a, v)


def _adam_expression(p, g, m, v, t, lr, weight_decay):
    """adam_step's update written as plain expressions, each making its own temporaries."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    step = (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
    p -= lr * (step + weight_decay * p)


@pytest.mark.parametrize("shape", [(1, 2642), (3, 386), (12, 2090)])
def test_adam_scratch_buffers_keep_the_bits_of_the_plain_update(shape):
    # two states stepped in turn, each reusing its own scratch buffers, and
    # one state over params of two shapes, which gets one pair per shape
    rng = np.random.default_rng(shape[1])
    params = [rng.normal(size=shape), rng.normal(size=shape), rng.normal(size=shape),
              rng.normal(size=shape[:1] + (7,))]
    ref = [p.copy() for p in params]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    states = [init_opt_state(params[:1]), init_opt_state(params[1:2]), init_opt_state(params[2:])]
    groups = [[0], [1], [2, 3]]
    for t in range(1, 51):
        for state, group in zip(states, groups):
            grads = [rng.normal(size=params[i].shape) * 10.0 ** rng.integers(-6, 3) for i in group]
            adam_step([params[i] for i in group], grads, state, lr=1e-3, weight_decay=5e-4)
            for i, g in zip(group, grads):
                _adam_expression(ref[i], g, *moments[i], t, 1e-3, 5e-4)
    assert sorted(states[2].buffers) == sorted([shape, shape[:1] + (7,)])
    for p, r, (m, v), state, slot in zip(params, ref, moments, states + states[2:], (0, 0, 0, 1)):
        assert p.tobytes() == r.tobytes()
        assert state.m[slot].tobytes() == m.tobytes() and state.v[slot].tobytes() == v.tobytes()


# -- stacked heads ---------------------------------------------------------------


def _per_head_reference(w, b, x, g):
    """The K heads as separate identity Mlps, run one at a time."""
    outs, grads_w, grads_b = [], [], []
    grad_x = np.zeros_like(x)
    for k in range(w.shape[0]):
        head = Mlp([Layer(w[k].copy(), b[k].copy(), "identity")])
        out, tape = forward(head, x)
        (gw, gb), gx = backward(head, tape, g[k])
        outs.append(out)
        grads_w.append(gw)
        grads_b.append(gb)
        grad_x += gx
    return np.stack(outs), np.stack(grads_w), np.stack(grads_b), grad_x


# c = 1 takes stack_backward's einsum path, c = 2 its matmul path
HEAD_SHAPES = [(5, 2), (1, 1), (2, 1), (18, 1), (36, 1)]


@pytest.mark.parametrize("k,c", HEAD_SHAPES)
@pytest.mark.parametrize("layout", ["c-order", "heads-fastest"])
def test_stacked_heads_match_a_per_head_loop_bit_for_bit(k, c, layout):
    rng = np.random.default_rng(k * 10 + c)
    h = 16
    for n in (1, 6, 10, 13):
        w = rng.normal(size=(k, c, h))
        b = rng.normal(size=(k, c))
        x = np.maximum(rng.normal(size=(n, h)), 0.0)
        if layout == "c-order":
            g = rng.normal(size=(k, n, c))
        else:
            # built the way the training step builds its head gradients
            g = rng.normal(size=(n, k)).T[:, :, None] * rng.normal(size=(n, c))[None, :, :]
        outs, gw, gb, gx = _per_head_reference(w, b, x, g)
        assert np.array_equal(stack_forward(w, b, x), outs)
        s_gw, s_gb, s_gx = stack_backward(w, x, g)
        assert np.array_equal(s_gw, gw)
        assert np.array_equal(s_gb, gb)
        assert np.array_equal(s_gx, gx)


def _stacked_mlp(nets):
    """One Mlp whose weights are (S, out, in): the nets on a leading seed axis."""
    stacked = copy.deepcopy(nets[0])
    for i, layer in enumerate(stacked.layers):
        layer.w = np.stack([net.layers[i].w for net in nets])
        layer.b = np.stack([net.layers[i].b for net in nets])
    return stacked


@pytest.mark.parametrize("shared_input", [False, True], ids=["per-seed", "shared"])
def test_seed_axis_passes_match_each_network_bit_for_bit(shared_input):
    rng = np.random.default_rng(21)
    nets = [Mlp.init([3, 8, 2], ["tanh", "relu"], rng) for _ in range(3)]
    stacked = _stacked_mlp(nets)
    x = rng.normal(size=(7, 3)) if shared_input else rng.normal(size=(3, 7, 3))
    g = rng.normal(size=(3, 7, 2))
    out, tape = forward(stacked, x)
    buffer = [np.full((3,) + p.shape, np.nan) for p in nets[0].params()]
    grads, gx = backward(stacked, tape, g, out=buffer)
    assert all(a is b for a, b in zip(grads, buffer))
    for s, net in enumerate(nets):
        o, t = forward(net, x if shared_input else x[s])
        (ref_grads, ref_gx) = backward(net, t, g[s])
        assert np.array_equal(out[s], o)
        assert np.array_equal(gx[s], ref_gx)
        for got, ref in zip(grads, ref_grads):
            assert got[s].tobytes() == ref.tobytes()


@pytest.mark.parametrize("k,c", HEAD_SHAPES)
def test_stacked_heads_with_a_seed_axis_match_each_seed(k, c):
    rng = np.random.default_rng(k + c)
    n_seeds, n, h = 3, 10, 16
    w = rng.normal(size=(n_seeds, k, c, h))
    b = rng.normal(size=(n_seeds, k, c))
    x = np.maximum(rng.normal(size=(n_seeds, n, h)), 0.0)
    # heads-fastest, as the training step builds its head gradients
    u = rng.normal(size=(n_seeds, n, k)).swapaxes(-1, -2)
    g = u[..., None] * rng.normal(size=(n_seeds, n, c))[:, None, :, :]
    out_w, out_b = np.full(w.shape, np.nan), np.full(b.shape, np.nan)
    outs = stack_forward(w, b, x)
    gw, gb, gx = stack_backward(w, x, g, out=(out_w, out_b))
    assert gw is out_w and gb is out_b
    for s in range(n_seeds):
        assert np.array_equal(outs[s], stack_forward(w[s], b[s], x[s]))
        ref = stack_backward(w[s], x[s], g[s])
        for got, want in zip((gw[s], gb[s], gx[s]), ref):
            assert got.tobytes() == want.tobytes()


def test_adam_length_mismatch():
    p = [np.ones(2)]
    with pytest.raises(ValueError):
        adam_step(p, [], init_opt_state(p), lr=0.1)
