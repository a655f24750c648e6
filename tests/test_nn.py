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
    Pass,
    adam_step,
    backward,
    cross_entropy,
    flatten,
    forward,
    init_opt_state,
    loss_ce_batch,
    loss_ce_rows,
    loss_mse,
    one_hot,
    softmax,
    split,
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
    grads, none = backward(Pass(net, buffer), tape, g, input_grad=False)
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


@pytest.mark.parametrize("acts", [["relu"], ["tanh"], ["identity"], ["tanh", "relu"],
                                  ["relu", "identity"], ["identity", "tanh"]])
@pytest.mark.parametrize("seeds", [None, 3], ids=["(n,p)", "(S,n,p)"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_a_pass_stays_live_across_in_place_adam_updates(acts, seeds, input_grad):
    """A Pass planned once, on a network whose parameters and gradients are views of two
    flat buffers, gives the bits of fresh forward/backward calls after every Adam step."""
    rng = np.random.default_rng(len(acts) * 7 + (seeds or 0))
    lead = () if seeds is None else (seeds,)
    dims = [4, 5, 3][: len(acts) + 1]
    net = Mlp.init(dims, acts, rng)
    shapes = [p.shape for p in net.params()]
    buf = rng.normal(size=lead + (sum(math.prod(s) for s in shapes),))
    grad = np.full_like(buf, np.nan)
    views = iter(split(buf, shapes))
    for layer in net.layers:
        layer.w, layer.b = next(views), next(views)
    planned = Pass(net, split(grad, shapes))
    opt = init_opt_state([buf])
    for step in range(4):
        x = rng.normal(size=lead + (6, dims[0]))
        g = rng.normal(size=lead + (6, dims[-1]))
        out, tape = forward(planned, x)
        grads, gx = backward(planned, tape, g, input_grad=input_grad)
        fresh_out, fresh_tape = forward(net, x)
        fresh_grads, fresh_gx = backward(net, fresh_tape, g, input_grad=input_grad)
        assert out.tobytes() == fresh_out.tobytes()
        assert all(np.shares_memory(a, grad) for a in grads)
        for got, want in zip(grads, fresh_grads):
            assert got.tobytes() == want.tobytes()
        assert (gx is None) == (fresh_gx is None) == (not input_grad)
        assert gx is None or gx.tobytes() == fresh_gx.tobytes()
        before = buf.copy()
        adam_step([buf], [grad], opt, lr=0.1)
        assert not np.array_equal(before, buf)  # the weights did move under the plan


def test_a_pass_checks_its_gradient_arrays():
    mlp = small_mlp()
    with pytest.raises(ValueError, match="gradient arrays"):
        Pass(mlp, [np.empty(p.shape) for p in mlp.params()[:-1]])
    with pytest.raises(ValueError, match="gradient arrays"):
        Pass(mlp, [np.empty(p.shape + (1,)) for p in mlp.params()])


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


@pytest.mark.parametrize("case", ["(n,c)", "(S,n,c)/(n,)", "(S,n,c)/(S,n)", "(2,S,n,c)"])
def test_a_per_epoch_mask_sliced_per_batch_keeps_the_bits_of_loss_ce_rows(case):
    """The one_hot mask gathered once per epoch and sliced per batch, as training
    does, gives cross_entropy the bits loss_ce_rows gets from the batch's labels."""
    rng = np.random.default_rng(len(case))
    s, n, c, size = 3, 23, 4, 10
    per_row = case in ("(S,n,c)/(S,n)", "(2,S,n,c)")
    labels = rng.integers(0, c, size=(s, n) if per_row else n)
    if per_row:
        idx = np.stack([rng.permutation(n) for _ in range(s)])
        ye, me = (a[np.arange(s)[:, None], idx] for a in (labels, one_hot(labels, c)))
    else:
        idx = rng.permutation(n)
        ye, me = labels[idx], one_hot(labels, c)[idx]
    lead = {"(n,c)": (), "(2,S,n,c)": (2, s)}.get(case, (s,))
    for lo in range(0, n, size):
        hi = lo + size
        logits = rng.normal(size=lead + (min(hi, n) - lo, c)) * 5.0
        losses, grad = cross_entropy(logits, me[..., lo:hi, :])
        want, want_grad = loss_ce_rows(logits, np.broadcast_to(ye[..., lo:hi], logits.shape[:-1]))
        assert losses.tobytes() == want.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


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
    p = softmax(z)
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
    """The K heads as separate identity Mlps, run one at a time, on (K, n, c) g."""
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


def _head_block(w, b):
    """The (..., K, c, h) weights and (..., K, c) biases as one (..., K * c, h) identity
    layer, the way a model holds its heads (MultiHeadModel.head)."""
    block = Mlp([Layer(np.zeros(w.shape[-2:]), np.zeros(b.shape[-1:]))])
    block.layers[0].w = w.reshape(w.shape[:-3] + (-1, w.shape[-1]))
    block.layers[0].b = b.reshape(b.shape[:-2] + (-1,))
    return block


def _heads_fastest(rng, k, n, c, lead=()):
    """A (..., K, n, c) head gradient built the way the training step builds it, the
    (..., n, K) mixture weights swapped to K-first, so the heads lie fastest in memory."""
    u = rng.normal(size=lead + (n, k)).swapaxes(-1, -2)
    return u[..., None] * rng.normal(size=lead + (n, c))[..., None, :, :]


def _as_block_rows(g):
    """A (..., K, n, c) per-head gradient as the head block's (..., n, K * c) one."""
    return g.swapaxes(-3, -2).reshape(g.shape[:-3] + (g.shape[-2], -1))


def _assert_within_order_bound(got, want, magnitude, terms):
    """Two sums of the same terms, added in two orders, agree within the rounding bound
    of any order: each lies within gamma_m * sum|term| of the exact sum, gamma_m =
    m u / (1 - m u) for m terms and unit roundoff u, so they differ by at most twice
    that. magnitude holds each entry's sum of |term|."""
    u = np.finfo(np.float64).eps / 2
    gamma = terms * u / (1.0 - terms * u)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 2.0 * gamma * magnitude).all()


# c = 1 gives one output per head (the grid's heads), c = 2 two (dg15's)
HEAD_SHAPES = [(5, 2), (1, 1), (2, 1), (18, 1), (36, 1)]


@pytest.mark.parametrize("k,c", HEAD_SHAPES)
@pytest.mark.parametrize("layout", ["c-order", "heads-fastest"])
def test_stacked_heads_match_a_per_head_loop_bit_for_bit(k, c, layout):
    """A tolerance check, bits only at K = 1. The block's one GEMM per pass forms
    every output and parameter gradient of the per-head loop from the same products,
    and its input gradient from the same K * c terms, but BLAS may add them in another
    order (the bias gradient adds its n rows in turn, a lone head pairwise). So each
    result lies within the summation-order bound of the loop's; at K = 1 (one head,
    c = 1) the block is that head's own layer and keeps its bits."""
    rng = np.random.default_rng(k * 10 + c)
    h = 16
    for n in (1, 6, 10, 13):
        w = rng.normal(size=(k, c, h))
        b = rng.normal(size=(k, c))
        x = np.maximum(rng.normal(size=(n, h)), 0.0)
        g = rng.normal(size=(k, n, c)) if layout == "c-order" else _heads_fastest(rng, k, n, c)
        outs, gw, gb, gx = _per_head_reference(w, b, x, g)
        block = _head_block(w, b)
        out, tape = forward(block, x)  # one input, shared by the K heads
        (s_gw, s_gb), s_gx = backward(block, tape, _as_block_rows(g))
        # each output adds h products, then its bias: h + 1 terms
        _assert_within_order_bound(out, _as_block_rows(outs), _as_block_rows(
            np.abs(x) @ np.abs(w).swapaxes(-1, -2) + np.abs(b)[:, None, :]), h + 1)
        _assert_within_order_bound(s_gw.reshape(w.shape), gw,
                                   np.abs(g).swapaxes(-1, -2) @ np.abs(x), n)
        _assert_within_order_bound(s_gb.reshape(b.shape), gb, np.abs(g).sum(axis=-2), n)
        _assert_within_order_bound(s_gx, gx, np.einsum("knc,kch->nh", np.abs(g), np.abs(w)),
                                   k * c)
        if k == 1:
            for got, want in ((out, outs[0]), (s_gw, gw[0]), (s_gb, gb[0]), (s_gx, gx)):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 18, 36])
def test_a_head_block_sums_each_bias_gradient_as_that_heads_own_pass(k):
    """A tolerance check. A head's own pass sums its n rows of a one-output gradient
    pairwise, as one contiguous run; the block's C-order (n, K) gradient, laid out as
    the training step builds it, adds them row after row for all K heads at once, so at
    n >= 10 some bias gradients differ in the last bits. Both are sums of the same n
    terms, so they agree within the summation-order bound, and the weight gradients
    likewise."""
    rng = np.random.default_rng(40 + k)
    h, n = 16, 13
    for _ in range(4):
        w, b = rng.normal(size=(k, 1, h)), rng.normal(size=(k, 1))
        x = np.maximum(rng.normal(size=(n, h)), 0.0)
        g = _heads_fastest(rng, k, n, 1)
        rows = _as_block_rows(g)
        assert not g.flags.c_contiguous and rows.flags.c_contiguous
        _, gw, gb, _ = _per_head_reference(w, b, x, g)
        block = _head_block(w, b)
        (s_gw, s_gb), s_gx = backward(block, forward(block, x)[1], rows, input_grad=False)
        assert s_gx is None
        _assert_within_order_bound(s_gb.reshape(b.shape), gb, np.abs(g).sum(axis=-2), n)
        _assert_within_order_bound(s_gw.reshape(w.shape), gw,
                                   np.abs(g).swapaxes(-1, -2) @ np.abs(x), n)


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
    grads, gx = backward(Pass(stacked, buffer), tape, g)
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
    g = _as_block_rows(_heads_fastest(rng, k, n, c, (n_seeds,)))
    out_w, out_b = np.full((n_seeds, k * c, h), np.nan), np.full((n_seeds, k * c), np.nan)
    block = Pass(_head_block(w, b), [out_w, out_b])  # as a training step plans it
    outs, tape = forward(block, x)
    (gw, gb), gx = backward(block, tape, g)
    assert gw is out_w and gb is out_b
    for s in range(n_seeds):
        one = _head_block(w[s], b[s])
        out, one_tape = forward(one, x[s])
        assert np.array_equal(outs[s], out)
        ref_grads, ref_gx = backward(one, one_tape, g[s])
        for got, want in zip((gw[s], gb[s], gx[s]), ref_grads + [ref_gx]):
            assert got.tobytes() == want.tobytes()


def test_adam_length_mismatch():
    p = [np.ones(2)]
    with pytest.raises(ValueError):
        adam_step(p, [], init_opt_state(p), lr=0.1)
