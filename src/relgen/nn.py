"""Dense-network building blocks.

MLP forward/backward passes with hand-derived gradients, planned once
per network for many calls (Pass), a batched pass for a stack of linear
layers that share one input (the per-domain heads), softmax with the
cross-entropy and squared-error losses, Adam with decoupled weight decay,
and a helper that cuts one flat parameter buffer into array views.

The passes broadcast over leading axes: a network whose weights are
(S, out, in) and biases (S, out) is S networks run at once, on S input
batches of shape (S, n, in) or on one shared (n, in) batch. Each slice s
gives the same bits as the network of slice s run on its own.

All arithmetic is float64 so gradient checks can be tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

ACTIVATIONS = ("identity", "relu", "tanh")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Layer:
    """One dense layer: y = act(w @ x + b), with w of shape (out, in)."""

    w: np.ndarray
    b: np.ndarray
    act: str = "identity"

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.ndim != 1:
            raise ValueError("layer expects a weight matrix and a bias vector")
        if self.w.shape[0] != self.b.shape[0]:
            raise ValueError("bias length must equal the weight row count")
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("layer parameters must be finite")


@dataclass
class Mlp:
    """A stack of dense layers with per-layer activations."""

    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for k, (prev, nxt) in enumerate(zip(self.layers, self.layers[1:])):
            if nxt.w.shape[1] != prev.w.shape[0]:
                raise ValueError(
                    f"layer {k + 1} expects input dim {nxt.w.shape[1]}, "
                    f"layer {k} produces {prev.w.shape[0]}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[-2]

    def params(self) -> list[np.ndarray]:
        """Live references to all parameter arrays, in a fixed order."""
        out = []
        for layer in self.layers:
            out.append(layer.w)
            out.append(layer.b)
        return out

    @classmethod
    def init(cls, dims: list[int], acts: list[str], rng: np.random.Generator) -> "Mlp":
        """Scaled uniform fan-in init for weights, zero biases."""
        if len(acts) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        layers = [
            Layer(init_weight(d_in, d_out, rng), np.zeros(d_out), act)
            for d_in, d_out, act in zip(dims, dims[1:], acts)
        ]
        return cls(layers)


def init_weight(d_in: int, d_out: int, rng: np.random.Generator) -> np.ndarray:
    """Scaled uniform fan-in init of one (d_out, d_in) weight matrix."""
    bound = 1.0 / np.sqrt(d_in)
    return rng.uniform(-bound, bound, size=(d_out, d_in))


class Pass:
    """A network's forward and backward pass, planned and checked once for many calls.

    steps holds each layer's (transposed weight, bias as a (..., 1, out)
    row, activation) for forward, back each layer's (index, weight,
    activation) in backward's order, and grads the arrays backward writes
    into, in Mlp.params() order (None for a forward-only pass). All are
    views, so in-place updates (an Adam step on their buffers) show through.
    """

    def __init__(self, mlp: Mlp, grads=None):
        if grads is not None and [g.shape for g in grads] != [p.shape for p in mlp.params()]:
            raise ValueError("gradient arrays must match the network's parameters")
        self.layers, self.in_dim = mlp.layers, mlp.in_dim  # perfbench's tracer reads layers
        self.steps = [(v.w.swapaxes(-1, -2), v.b[..., None, :], v.act) for v in mlp.layers]
        self.back = [(k, v.w, v.act) for k, v in enumerate(mlp.layers)][::-1]
        self.grads = grads


def forward(net, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Evaluate an Mlp or its Pass on a float64 (..., n, in) batch of rows.

    Returns the (..., n, out) output and the tape for backward, each
    layer's (input, activation computed in place). A single row is x[None];
    for an Mlp, fewer than two axes or the wrong width is a ValueError (a
    Pass's callers check their data once, see model.check_fits).
    """
    planned = isinstance(net, Pass)
    p = net if planned else Pass(net)
    if not planned and (x.ndim < 2 or x.shape[-1] != p.in_dim):
        raise ValueError(f"expected a (..., n, {p.in_dim}) batch of rows (input dim {p.in_dim}), "
                         f"got shape {x.shape}")
    h, tape = x, []
    for wt, b, act in p.steps:
        z = np.matmul(h, wt)
        z += b
        a = np.maximum(z, 0.0, out=z) if act == "relu" else np.tanh(z, out=z) if act == "tanh" else z
        tape.append((h, a))
        h = a
    return h, tape


def backward(net, tape: list, grad_output: np.ndarray,
             input_grad: bool = True) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Exact gradients of (output . grad_output) w.r.t. params and input.

    net is the Mlp or Pass that forward made the tape with, and grad_output
    a float64 array shaped like forward's output. Returns (grads, grad_x),
    grads being the Pass's gradient arrays (new ones for an Mlp), written
    in Mlp.params() order. With input_grad=False the input gradient is
    skipped and grad_x is None. An Mlp's tape is checked against it.
    """
    planned = isinstance(net, Pass)
    p = net if planned else Pass(net, [np.empty_like(q) for q in net.params()])
    g, grads = grad_output, p.grads
    for k, w, act in p.back:
        x_in, a = tape[k]  # relu's a > 0 where its input z > 0
        if not planned and (a.shape[-2:] != g.shape[-2:] or x_in.shape[-1] != w.shape[-1]):
            raise ValueError("tape does not match this network (stale tape?)")
        dz = g * (a > 0.0) if act == "relu" else g * (1.0 - a * a) if act == "tanh" else g
        np.matmul(dz.swapaxes(-1, -2), x_in, out=grads[2 * k])
        np.add.reduce(dz, axis=-2, out=grads[2 * k + 1])
        if k == 0 and not input_grad:
            return grads, None
        g = dz @ w
    return grads, g


def stack_forward(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Outputs of K linear layers on one shared input batch.

    w is (..., K, c, h), b is (..., K, c), x is (..., n, h); returns
    (..., K, n, c). Each slice k gives the same bits as an identity
    Layer(w[k], b[k]) under forward().
    """
    return np.matmul(x[..., None, :, :], w.swapaxes(-1, -2)) + b[..., None, :]


def stack_backward(
    w: np.ndarray, x: np.ndarray, g: np.ndarray, out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(outputs * g) for stack_forward, with g of shape (..., K, n, c).

    Returns (grad_w (..., K, c, h), grad_b (..., K, c), grad_x (..., n, h));
    grad_x sums the K layers' input gradients in layer order. Given out, a
    (grad_w, grad_b) pair of arrays, the first two are written into it.
    """
    out_w, out_b = out if out is not None else (None, None)
    # numpy picks its summation order from the memory layout; summing a C
    # order copy adds each layer's rows in the order backward() adds them
    grad_b = np.add.reduce(np.ascontiguousarray(g), axis=-2, out=out_b)
    grad_w = np.matmul(g.swapaxes(-1, -2), x[..., None, :, :], out=out_w)
    if g.shape[-1] == 1:
        # one output per layer: matmul is slow on a contraction of length 1,
        # and einsum forms the same single products and adds them in layer
        # order; with more outputs einsum rounds unlike BLAS, so matmul stays
        return grad_w, grad_b, np.einsum("...knc,...kch->...nh", g, w)
    return grad_w, grad_b, np.add.reduce(np.matmul(g, w), axis=-3)


# -- losses ------------------------------------------------------------------


def loss_mse(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared difference and its gradient w.r.t. pred.

    The mean runs over every entry, so a (n, m) prediction matrix gives the
    batch-mean of per-example component means.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def loss_ce_rows(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of each row, and the gradient of their mean.

    Takes (..., n, k) logits and (..., n) labels. Returns the (..., n)
    per-row losses and the (..., n, k) gradient of each batch mean, i.e.
    already divided by n.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim < 2 or labels.shape != logits.shape[:-1]:
        raise ValueError("cross-entropy expects (n, k) logits and (n,) labels")
    return cross_entropy(logits, one_hot(labels, logits.shape[-1]))


def one_hot(labels, n_outputs: int) -> np.ndarray:
    """The (..., n_outputs) boolean mask of class labels; a ValueError unless each lies in
    [0, n_outputs)."""
    labels = np.asarray(labels).astype(np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_outputs:
        raise ValueError("label out of range")
    return labels[..., None] == np.arange(n_outputs)


def cross_entropy(logits: np.ndarray, hot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """loss_ce_rows for the labels' one_hot mask.

    The mask's shape may be a trailing part of the logits' shape, e.g. (n,
    k) for a (2, n, k) stack of two logit sets. One exp feeds both the
    log-sum-exp and the softmax in the gradient.
    """
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    lse = (m + np.log(total))[..., 0]
    grad = e / total
    grad -= hot
    grad /= logits.shape[-2]
    picked = logits[(slice(None),) * (logits.ndim - hot.ndim) + (hot,)]  # each row's label entry
    return lse - picked.reshape(lse.shape), grad


def loss_ce_batch(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows; gradient already divided by the count."""
    losses, grad = loss_ce_rows(logits, labels)
    return float(np.mean(losses)), grad


# -- optimizer ----------------------------------------------------------------


@dataclass
class OptState:
    """Adam moment estimates plus the step counter.

    buffers holds two work arrays per parameter shape, which adam_step
    writes its intermediate results into, so a step allocates nothing.
    """

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    buffers: dict = field(default_factory=dict, repr=False, compare=False)

    def scratch(self, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
        pair = self.buffers.get(shape)
        if pair is None:
            pair = self.buffers[shape] = (np.empty(shape), np.empty(shape))
        return pair


def init_opt_state(params: list[np.ndarray]) -> OptState:
    return OptState([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: OptState,
    lr: float,
    weight_decay: float = 0.0,
) -> OptState:
    """One Adam update, in place, with decoupled weight decay.

    Weight decay is applied directly to the parameters (not folded into the
    gradient), so it does not interact with the moment estimates. The
    update is p -= lr * (step + weight_decay * p) with step = (m / c1) /
    (sqrt(v / c2) + eps), each operation done in that order into the two
    scratch buffers of the state.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    for g in grads:
        if not np.logical_and.reduce(np.isfinite(g), axis=None):
            raise NumericalError("non-finite gradient passed to adam_step")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        a, b = state.scratch(p.shape)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=a)
        a *= g
        v += a
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, c1, out=b)
        b /= a
        np.multiply(weight_decay, p, out=a)
        np.add(b, a, out=a)
        np.multiply(lr, a, out=a)
        p -= a
    return state


def flatten(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate arrays, each read in C order, into one new float64 vector."""
    return np.concatenate(arrays, axis=None, dtype=np.float64)


def split(buf: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Views of consecutive blocks of buf's last axis, shaped like shapes.

    The views tile the buffer in order with no gaps, so one elementwise
    update of the buffer (an Adam step) updates every array at once. A
    (S, P) buffer gives each view a leading axis of length S.
    """
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(buf[..., start:stop].reshape(buf.shape[:-1] + tuple(shape)))
        start = stop
    return views
