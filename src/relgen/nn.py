"""Dense-network building blocks.

MLP forward/backward passes with hand-derived gradients, a batched pass
for a stack of linear layers that share one input (the per-domain heads),
the two loss functions used in this package, Adam with decoupled weight
decay, a helper that packs parameter arrays into one flat buffer, and a
central finite-difference gradient checker that every analytic gradient in
the test suite is held against.

The passes broadcast over leading axes: a network whose weights are
(S, out, in) and biases (S, out) is S networks run at once, on S input
batches of shape (S, n, in) or on one shared (n, in) batch. Each slice s
gives the same bits as the network of slice s run on its own.

All arithmetic is float64 so gradient checks can be tight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

ACTIVATIONS = ("identity", "relu", "tanh")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _as_batch(x) -> tuple[np.ndarray, bool]:
    """Promote a vector to a 1-row matrix; report whether it was single."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim >= 2:
        return x, False
    raise ValueError(f"expected a vector or a matrix of rows, got shape {x.shape}")


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

    def copy(self) -> "Mlp":
        return Mlp([Layer(l.w.copy(), l.b.copy(), l.act) for l in self.layers])

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


@dataclass
class Tape:
    """Per-layer forward cache: (input, pre-activation, activation)."""

    steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    single: bool


def _act(z: np.ndarray, act: str) -> np.ndarray:
    if act == "identity":
        return z
    if act == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_grad(g: np.ndarray, z: np.ndarray, a: np.ndarray, act: str) -> np.ndarray:
    if act == "identity":
        return g
    if act == "relu":
        return g * (z > 0.0)
    return g * (1.0 - a * a)


def forward(mlp: Mlp, x) -> tuple[np.ndarray, Tape]:
    """Evaluate the network; returns (output, tape for backward)."""
    h, single = _as_batch(x)
    if h.shape[-1] != mlp.in_dim:
        raise ValueError(f"input dim {h.shape[-1]} != network dim {mlp.in_dim}")
    steps = []
    for layer in mlp.layers:
        z = h @ layer.w.swapaxes(-1, -2) + layer.b[..., None, :]
        a = _act(z, layer.act)
        steps.append((h, z, a))
        h = a
    return (h[0] if single else h), Tape(steps, single)


def backward(
    mlp: Mlp, tape: Tape, grad_output, out: list[np.ndarray] | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact gradients of (output . grad_output) w.r.t. params and input.

    Returns (grads, grad_x) with grads ordered like Mlp.params(). Given out,
    arrays shaped like those grads, the gradients are written into them.
    """
    if len(tape.steps) != len(mlp.layers):
        raise ValueError("tape does not match this network (stale tape?)")
    g, _ = _as_batch(grad_output)
    grads = out if out is not None else [None] * (2 * len(mlp.layers))
    for k in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[k]
        x_in, z, a = tape.steps[k]
        if z.shape[-2:] != g.shape[-2:] or x_in.shape[-1] != layer.w.shape[-1]:
            raise ValueError("tape does not match this network (stale tape?)")
        dz = _act_grad(g, z, a, layer.act)
        grads[2 * k] = np.matmul(dz.swapaxes(-1, -2), x_in, out=grads[2 * k])
        grads[2 * k + 1] = dz.sum(axis=-2, out=grads[2 * k + 1])
        g = dz @ layer.w
    return grads, (g[0] if tape.single else g)


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
    grad_b = np.ascontiguousarray(g).sum(axis=-2, out=out_b)
    grad_w = np.matmul(g.swapaxes(-1, -2), x[..., None, :, :], out=out_w)
    return grad_w, grad_b, np.matmul(g, w).sum(axis=-3)


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


def loss_ce(logits, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one logit vector against an integer label.

    Uses the log-sum-exp shift so extreme logits do not overflow; the
    gradient is softmax(logits) minus the one-hot label.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError("loss_ce expects a single logit vector")
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    loss = float(lse - logits[label])
    grad = softmax(logits)
    grad[label] -= 1.0
    return loss, grad


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
    labels = labels.astype(np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[-1]:
        raise ValueError("label out of range")
    m = logits.max(axis=-1)
    lse = m + np.log(np.exp(logits - m[..., None]).sum(axis=-1))
    grad = softmax(logits, axis=-1)
    hot = labels[..., None] == np.arange(logits.shape[-1])
    grad -= hot
    grad /= logits.shape[-2]
    return lse - logits[hot].reshape(labels.shape), grad


def loss_ce_batch(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows; gradient already divided by the count."""
    losses, grad = loss_ce_rows(logits, labels)
    return float(np.mean(losses)), grad


# -- optimizer ----------------------------------------------------------------


@dataclass
class OptState:
    """Adam moment estimates plus the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


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
    gradient), so it does not interact with the moment estimates.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    for g in grads:
        if not np.isfinite(g).all():
            raise NumericalError("non-finite gradient passed to adam_step")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        step = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p -= lr * (step + weight_decay * p)
    return state


def flatten(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate arrays, each read in C order, into one new float64 vector."""
    return np.concatenate(arrays, axis=None, dtype=np.float64)


def pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy arrays into one flat buffer; returns (buffer, views shaped like arrays).

    The views tile the buffer in order with no gaps, so one elementwise
    update of the buffer (an Adam step) updates every array at once.
    """
    flat = flatten(arrays)
    views, start = [], 0
    for a in arrays:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


# -- gradient checking ---------------------------------------------------------


def grad_check(fn, params: list[np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between fn's analytic gradient and central differences.

    fn(params) must return (value, grads) with grads ordered like params.
    The relative error of a coordinate is |a - n| / max(1, |a|, |n|).
    """
    params = [np.array(p, dtype=np.float64) for p in params]
    _, analytic = fn(params)
    worst = 0.0
    for k, p in enumerate(params):
        flat = p.ravel()
        ana = np.asarray(analytic[k], dtype=np.float64).ravel()
        if ana.shape != flat.shape:
            raise ValueError("analytic gradient shape mismatch")
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus, _ = fn(params)
            flat[i] = orig - h
            f_minus, _ = fn(params)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
            worst = max(worst, err)
    return worst
