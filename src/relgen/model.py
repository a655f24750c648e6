"""Multi-head predictor with relation-weighted consistency training.

One shared feature extractor feeds one output head per training domain.
Training combines two terms: each example's loss under its own domain's
head, and a consistency loss where the example must also be predicted by
the relation-weighted average of all OTHER domains' heads. At inference on
an unseen domain, head outputs are averaged with weights given by that
domain's relations to the training domains.

The gradient of the full objective is derived by hand, including the path
through the learned relation net, and is checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._version import __version__
from .data import TASK_CLASSIFICATION, DomainDataset
from .errors import ConfigError, DataError, NumericalError
from .fileio import atomic_writer
from .nn import (
    Layer,
    Mlp,
    adam_step,
    backward,
    flatten,
    forward,
    init_opt_state,
    init_weight,
    loss_ce_batch,
    loss_ce_rows,
    loss_mse,
    pack,
    softmax,
    stack_backward,
    stack_forward,
)
from .relations import (
    RelationMatrix,
    RelationNet,
    learned_matrix,
    learned_matrix_backward,
    normalize_weights,
    relation_row,
)
from .rng import substream

REL_EPS = 1e-12
PROB_FLOOR = 1e-12

COMBINE_SPACES = ("logit", "prob")
RELATION_MODES = ("fused", "uniform")


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the benchmark's reference setting."""

    lam: float = 0.5  # weight of the consistency term
    beta: float = 0.8  # share of the fixed relations in the fusion
    lr: float = 1e-5
    weight_decay: float = 5e-4
    batch_size: int = 10
    epochs: int = 30
    seed: int = 0
    hidden_width: int = 64
    relation_width: int = 32
    relation_heads: int = 4
    combine_space: str = "logit"
    relation_mode: str = "fused"  # "uniform" trains with equal consistency weights
    domain_balanced_sampling: bool = False
    eval_every: int = 1
    select_best: bool = True  # restore the best valid-split epoch after training
    finetune_epochs: int = 5  # used by rw_finetune only

    def validate(self) -> None:
        # chained comparisons are False for NaN, so NaN and inf fail here too
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError("lam must be finite and nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("beta must lie in [0, 1]")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError("lr must be finite and positive")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and nonnegative")
        if self.batch_size < 1 or self.epochs < 0 or self.eval_every < 1:
            raise ConfigError("batch_size/epochs/eval_every out of range")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.hidden_width < 1 or self.relation_width < 1 or self.relation_heads < 1:
            raise ConfigError("network widths must be positive")
        if self.combine_space not in COMBINE_SPACES:
            raise ConfigError(f"combine_space must be one of {COMBINE_SPACES}")
        if self.relation_mode not in RELATION_MODES:
            raise ConfigError(f"relation_mode must be one of {RELATION_MODES}")
        if self.finetune_epochs < 0:
            raise ConfigError("finetune_epochs must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


def _bind_mlp(mlp: Mlp, views) -> None:
    """Point the network's layers at the next views of a packed buffer."""
    for layer in mlp.layers:
        layer.w = next(views)
        layer.b = next(views)


@dataclass
class MultiHeadModel:
    """Shared extractor, one head per training domain, and a relation net.

    Head k is the identity layer phi -> head_w[k] @ phi + head_b[k], with
    head_w of shape (K, c, h) and head_b of shape (K, c). Construction
    copies every parameter into one float64 vector, ``flat``, and makes each
    parameter array a view into it, laid out in params() order.
    """

    extractor: Mlp
    head_w: np.ndarray
    head_b: np.ndarray
    relation_net: RelationNet
    head_domains: list[str]
    task: str
    combine_space: str = "logit"
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.head_w = np.asarray(self.head_w, dtype=np.float64)
        self.head_b = np.asarray(self.head_b, dtype=np.float64)
        k = len(self.head_domains)
        if self.head_w.ndim != 3 or self.head_w.shape[0] != k or self.head_b.shape != self.head_w.shape[:2]:
            raise ValueError("need exactly one head per training domain")
        if self.head_w.shape[2] != self.extractor.out_dim:
            raise ValueError("head input dim must equal the extractor output dim")
        if not (np.isfinite(self.head_w).all() and np.isfinite(self.head_b).all()):
            raise ValueError("layer parameters must be finite")
        # row k of the head block is head k's weight rows, then its bias
        _, c, h = self.head_w.shape
        heads = np.concatenate([self.head_w.reshape(k, c * h), self.head_b], axis=1)
        blocks = self.extractor.params() + [heads] + self.relation_net.params()
        self._shapes = [b.shape for b in blocks]
        self.bind(flatten(blocks))

    def views(self, buf: np.ndarray):
        """Split a buffer laid out like ``flat`` into parameter-shaped views.

        buf is (P,) or (S, P); each view keeps buf's leading axes. Returns
        (extractor views, head_w, head_b, relation-net views), each list in
        params() order.
        """
        lead = buf.shape[:-1]
        out, start = [], 0
        for shape in self._shapes:
            stop = start + math.prod(shape)
            out.append(buf[..., start:stop].reshape(lead + shape))
            start = stop
        n_ext = 2 * len(self.extractor.layers)
        heads = out[n_ext]
        c, h = self.head_w.shape[-2:]
        head_w = heads[..., : c * h].reshape(heads.shape[:-1] + (c, h))
        return out[:n_ext], head_w, heads[..., c * h :], out[n_ext + 1 :]

    def bind(self, flat: np.ndarray) -> None:
        """Make every parameter a view into flat, laid out as in ``flat``.

        A (S, P) buffer gives each parameter a leading seed axis: the model
        then stands for S models at once (see stack_models).
        """
        ext, self.head_w, self.head_b, net = self.views(flat)
        _bind_mlp(self.extractor, iter(ext))
        _bind_mlp(self.relation_net.g, iter(net))
        self.relation_net.w = net[-1]
        self.flat = flat

    def params(self) -> list[np.ndarray]:
        """Live views of every parameter: extractor, each head's (w, b), relation net."""
        out = self.extractor.params()
        for w, b in zip(self.head_w, self.head_b):
            out += [w, b]
        return out + self.relation_net.params()

    def copy(self) -> "MultiHeadModel":
        return MultiHeadModel(
            self.extractor.copy(),
            self.head_w,
            self.head_b,
            self.relation_net.copy(),
            list(self.head_domains),
            self.task,
            self.combine_space,
        )

    def set_params(self, arrays: list[np.ndarray]) -> None:
        own = self.params()
        if len(own) != len(arrays):
            raise ValueError("parameter list length mismatch")
        for p, a in zip(own, arrays):
            np.copyto(p, a)


def stack_models(models: list[MultiHeadModel]) -> MultiHeadModel:
    """One model whose parameters carry a leading seed axis over the models.

    The models' parameters are copied into the rows of one (S, P) buffer,
    and model s is rebound to row s, so updating the stacked model updates
    every one of them. The models must have the same structure. The stack
    is for training passes (total_loss_and_grads); params(), copy(),
    inference and checkpoints work on the single models.
    """
    first = models[0]
    for m in models[1:]:
        if (m._shapes, m.head_domains, m.task, m.combine_space) != (
            first._shapes, first.head_domains, first.task, first.combine_space
        ):
            raise ValueError("stacked models must have the same structure")
    flat = np.stack([m.flat for m in models])
    stacked = first.copy()
    stacked.bind(flat)
    for m, row in zip(models, flat):
        m.bind(row)
    return stacked


def _out_dim(dataset: DomainDataset) -> int:
    return dataset.n_classes if dataset.task == TASK_CLASSIFICATION else 1


def build_model(dataset: DomainDataset, config: TrainConfig) -> MultiHeadModel:
    config.validate()
    train_ids = dataset.ids_for_split("train")
    if len(train_ids) < 2:
        raise ConfigError("need at least two training domains")
    out = _out_dim(dataset)
    k = len(train_ids)
    extractor = Mlp.init(
        [dataset.n_features, config.hidden_width],
        ["relu"],
        substream(config.seed, "init", "extractor"),
    )
    # one substream per head, so a head's init does not depend on K
    head_w = np.stack([
        init_weight(config.hidden_width, out, substream(config.seed, "init", "head", j))
        for j in range(k)
    ])
    net = RelationNet.init(
        dataset.meta_dim,
        substream(config.seed, "init", "relations"),
        width=config.relation_width,
        n_heads=config.relation_heads,
    )
    return MultiHeadModel(
        extractor, head_w, np.zeros((k, out)), net, train_ids, dataset.task, config.combine_space
    )


def predict_head(model: MultiHeadModel, domain_id: str, x) -> np.ndarray:
    """Raw output of one domain's head on extractor features."""
    if domain_id not in model.head_domains:
        raise ValueError(f"unknown training domain {domain_id!r}")
    xb = np.asarray(x, dtype=np.float64)
    outs = _stack_heads(model, xb if xb.ndim == 2 else xb[None, :])[2]
    out = outs[model.head_domains.index(domain_id)]
    return out if xb.ndim == 2 else out[0]


# -- loss terms ---------------------------------------------------------------


def _stack_heads(model: MultiHeadModel, x: np.ndarray):
    phi, e_tape = forward(model.extractor, x)
    return phi, e_tape, stack_forward(model.head_w, model.head_b, phi)  # outs: (K, n, c)


def _relation_rows(relations, head_domains: list[str]) -> np.ndarray | None:
    """Normalize the accepted relation argument to a (K, K) array or None."""
    if relations is None or (isinstance(relations, str) and relations == "uniform"):
        return None
    if isinstance(relations, RelationMatrix):
        if relations.ids != list(head_domains):
            raise ValueError("relation matrix domains do not match the model heads")
        return relations.fused
    a = np.asarray(relations, dtype=np.float64)
    k = len(head_domains)
    if a.shape != (k, k):
        raise ValueError(f"expected a ({k}, {k}) relation matrix, got {a.shape}")
    return a


def _consistency_weights(a: np.ndarray | None, dom: np.ndarray, k: int):
    """Per-example weights over heads, self excluded, rows summing to one.

    dom is (n,) or (S, n), and a is (K, K) or, for S stacked models,
    (S, K, K). Returns (u, s, fallback) where u is dom.shape + (K,), s is
    the pre-normalization row sum and fallback marks rows that degraded to
    uniform weights (no gradient flows into the relations there).
    """
    if k < 2:
        raise ValueError("consistency needs at least two heads")
    ix = np.indices(dom.shape, sparse=True)
    self_entry = ix + (dom,)
    if a is None:
        u = np.full(dom.shape + (k,), 1.0 / (k - 1))
        u[self_entry] = 0.0
        return u, None, None
    rows = a[ix[: a.ndim - 2] + (dom,)]  # fancy indexing, so already a copy
    rows[self_entry] = 0.0
    s = rows.sum(axis=-1)
    fallback = s <= REL_EPS
    u = rows / np.where(fallback, np.inf, s)[..., None]
    if fallback.any():
        u[fallback] = 1.0 / (k - 1)
        u[self_entry] = 0.0
    return u, s, fallback


def _batch_arrays(batch, seed_axis: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch as arrays; with seed_axis, (S, n, p), (S, n), (S, n) is accepted too."""
    x, y, dom = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    dom = np.asarray(dom, dtype=np.int64)
    if x.ndim not in ((2, 3) if seed_axis else (2,)) or y.shape != x.shape[:-1] or dom.shape != y.shape:
        raise ValueError("batch must be (x (n,p), y (n,), domain (n,))")
    return x, y, dom


def loss_pred(model: MultiHeadModel, batch) -> float:
    """Mean loss of each example under its own domain's head."""
    x, y, dom = _batch_arrays(batch)
    _, _, outs = _stack_heads(model, x)
    o_self = outs[dom, np.arange(len(y))]
    if model.task == TASK_CLASSIFICATION:
        return loss_ce_batch(o_self, y)[0]
    return loss_mse(o_self, y[:, None])[0]


def _mixture_forward(model, outs, u, y):
    """Consistency prediction and loss for a batch; returns backward context.

    outs is (..., K, n, c), u (..., n, K) and y (..., n); the loss is the
    mean over n, one per leading index.
    """
    if model.task == TASK_CLASSIFICATION and model.combine_space == "prob":
        p = softmax(outs, axis=-1)  # (..., K, n, c)
        mix = np.einsum("...nk,...knc->...nc", u, p)
        n = y.shape[-1]
        label_entry = np.indices(y.shape, sparse=True) + (np.asarray(y).astype(np.int64),)
        picked = np.maximum(mix[label_entry], PROB_FLOOR)
        loss = -np.log(picked).mean(axis=-1)
        g_mix = np.zeros_like(mix)
        g_mix[label_entry] = -1.0 / (n * picked)
        return loss, g_mix, mix, p
    mix = np.einsum("...nk,...knc->...nc", u, outs)
    losses, g_mix = _example_losses(mix, y, model.task)
    return losses.mean(axis=-1), g_mix, mix, None


def loss_rel(model: MultiHeadModel, batch, relations) -> float:
    """Mean loss of the relation-weighted average of the other heads.

    relations may be a RelationMatrix, a (K, K) array in head order, or
    "uniform" for equal weights. Each example's own head is excluded, and
    an all-zero relation row falls back to uniform weights.
    """
    x, y, dom = _batch_arrays(batch)
    a = _relation_rows(relations, model.head_domains)
    _, _, outs = _stack_heads(model, x)
    u, _, _ = _consistency_weights(a, dom, len(model.head_domains))
    return _mixture_forward(model, outs, u, y)[0]


def total_loss(model: MultiHeadModel, batch, relations, lam: float) -> float:
    """Prediction loss plus lam times the consistency loss."""
    if lam < 0:
        raise ConfigError("lam must be nonnegative")
    base = loss_pred(model, batch)
    if lam == 0.0:
        return base
    return base + lam * loss_rel(model, batch, relations)


def total_loss_and_grads(
    model: MultiHeadModel,
    batch,
    fixed: np.ndarray | None,
    metas: np.ndarray | None,
    lam: float,
    beta: float,
    relation_mode: str = "fused",
    grad: np.ndarray | None = None,
):
    """Training objective with exact gradients for every parameter.

    The relation matrix is rebuilt from the current relation-net parameters
    on every call so the gradients through the learned similarities are
    exact. Returns (loss, (loss_pred, loss_rel), grad) with grad laid out
    like model.flat; it is written into ``grad`` when that is given.

    For S stacked models (see stack_models) the batch carries the same
    leading axis, x (S, n, p), y (S, n), domain (S, n), one batch per model,
    and the three losses are (S,) arrays. One model is the S = 1 case.
    """
    x, y, dom = _batch_arrays(batch, seed_axis=True)
    single = x.ndim == 2
    if single:
        x, y, dom = x[None], y[None], dom[None]
    if grad is None:
        grad = np.empty_like(model.flat)
    g_ext, g_hw, g_hb, g_net = model.views(grad.reshape(len(x), -1))
    k = len(model.head_domains)
    net = model.relation_net

    cache = None
    pre = None
    if relation_mode == "uniform":
        a = None
    elif beta == 1.0:
        pre = np.asarray(fixed, dtype=np.float64)
        a = np.maximum(pre, 0.0)
    else:
        a_l, cache = learned_matrix(net, metas)
        pre = beta * np.asarray(fixed, dtype=np.float64) + (1.0 - beta) * a_l
        a = np.maximum(pre, 0.0)

    phi, e_tape, outs = _stack_heads(model, x)  # outs: (S, K, n, c)

    seeds, cols = np.indices(dom.shape, sparse=True)
    self_out = (seeds, dom, cols)
    losses, g_self = _example_losses(outs[self_out], y, model.task)
    lp = losses.mean(axis=-1)

    u, s, fallback = _consistency_weights(a, dom, k)
    lrel, g_mix, mix, p = _mixture_forward(model, outs, u, y)
    g_mix = lam * g_mix

    # gradients w.r.t. head outputs (in mixture space first)
    g_heads = u.swapaxes(-1, -2)[..., None] * g_mix[..., None, :, :]  # (S, K, n, c)
    if p is not None:
        # mixture was over probabilities: pull back through each softmax
        inner = (g_heads * p).sum(axis=-1, keepdims=True)
        g_heads = p * (g_heads - inner)
    g_heads[self_out] += g_self

    # gradients w.r.t. the relation entries actually used
    if a is None or s is None or cache is None:
        for view in g_net:
            view[...] = 0.0
    else:
        src = p if p is not None else outs
        tk = np.einsum("...nc,...knc->...nk", g_mix, src)
        mm = np.einsum("...nc,...nc->...n", g_mix, mix)
        contrib = (tk - mm[..., None]) / np.where(fallback, np.inf, s)[..., None]
        contrib[seeds, cols, dom] = 0.0
        d_a = np.zeros(dom.shape[:1] + (k, k))
        np.add.at(d_a, (seeds, dom), contrib)
        d_a *= pre > 0.0  # clamp subgradient
        diag = np.arange(k)
        d_a[:, diag, diag] = 0.0
        learned_matrix_backward(net, cache, (1.0 - beta) * d_a, out=g_net)

    _, _, d_phi = stack_backward(model.head_w, phi, g_heads, out=(g_hw, g_hb))
    backward(model.extractor, e_tape, d_phi, out=g_ext)
    loss = lp + lam * lrel
    if single:
        return loss[0], (lp[0], lrel[0]), grad
    return loss, (lp, lrel), grad


# -- training loops -----------------------------------------------------------


def _epoch_order(n: int, dom: np.ndarray, config: TrainConfig, epoch: int) -> np.ndarray:
    if not config.domain_balanced_sampling:
        return substream(config.seed, "train", "shuffle", epoch).permutation(n)
    rng = substream(config.seed, "train", "balance", epoch)
    groups = [np.flatnonzero(dom == d) for d in np.unique(dom)]
    m = max(len(g) for g in groups)
    idx = np.concatenate([rng.choice(g, size=m, replace=True) for g in groups])
    rng.shuffle(idx)
    return idx


def _metric_better(candidate: float, best: float, task: str) -> bool:
    if task == TASK_CLASSIFICATION:
        return candidate > best
    return candidate < best


def train(model, dataset: DomainDataset, config):
    """Optimize the model on the dataset's training domains.

    Per epoch: seeded shuffle, mini-batches, one Adam step per batch; the
    relation matrix is rebuilt inside every batch so relation-net gradients
    stay exact. If validation domains exist, the valid-split metric is
    recorded every eval_every epochs and the best parameters are restored
    at the end (config.select_best). Returns the per-epoch history.

    Given a list of models and a list of configs that differ only in seed,
    trains them in lockstep, each step one pass over all of them (see
    stack_models), and returns one history per model. Each model ends
    bit for bit where training it alone would leave it.
    """
    single = isinstance(model, MultiHeadModel)
    models = [model] if single else list(model)
    configs = [config] if single else list(config)
    if len(models) != len(configs) or not models:
        raise ValueError("need one config per model")
    for cfg in configs:
        cfg.validate()
        if replace(cfg, seed=configs[0].seed) != configs[0]:
            raise ConfigError("lockstep training needs configs that differ only in seed")
    config = configs[0]
    head_domains = models[0].head_domains
    if head_domains != dataset.ids_for_split("train"):
        raise ValueError("model heads do not match the dataset's training domains")
    if len(head_domains) < 2:
        raise ConfigError("need at least two training domains")
    stack = stack_models(models)
    x, y, dom = dataset.arrays_for(head_domains)
    metas = dataset.meta_for(head_domains)
    fixed = dataset.fixed_matrix(head_domains)
    opt = init_opt_state([stack.flat])
    grad = np.empty_like(stack.flat)
    n = len(y)
    has_valid = bool(dataset.ids_for_split("valid"))
    eval_mode = "uniform" if config.relation_mode == "uniform" else "fused"

    histories: list[list[dict]] = [[] for _ in models]
    best_metric: list[float | None] = [None] * len(models)
    best_params: list[np.ndarray | None] = [None] * len(models)
    for epoch in range(config.epochs):
        idx = np.stack([_epoch_order(n, dom, cfg, epoch) for cfg in configs])
        sums = np.zeros((3, len(models)))
        seen = 0
        for start in range(0, idx.shape[1], config.batch_size):
            b = idx[:, start : start + config.batch_size]
            loss, (lp, lrel), _ = total_loss_and_grads(
                stack,
                (x[b], y[b], dom[b]),
                fixed,
                metas,
                config.lam,
                config.beta,
                config.relation_mode,
                grad,
            )
            bad = ~np.isfinite(loss)
            if bad.any():
                j = int(bad.argmax())
                raise NumericalError(
                    f"non-finite training loss for seed {configs[j].seed} at epoch {epoch}, "
                    f"batch {start // config.batch_size} "
                    f"(pred={float(lp[j])!r}, consistency={float(lrel[j])!r})"
                )
            adam_step([stack.flat], [grad], opt, config.lr, config.weight_decay)
            sums += np.array([loss, lp, lrel]) * b.shape[1]
            seen += b.shape[1]
        evaluate_now = has_valid and (
            (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1
        )
        for j, m in enumerate(models):
            entry = {
                "epoch": epoch,
                "loss": sums[0, j] / seen,
                "loss_pred": sums[1, j] / seen,
                "loss_rel": sums[2, j] / seen,
            }
            if evaluate_now:
                report = evaluate(
                    relational_predictor(m, dataset, config.beta, eval_mode), dataset, "valid"
                )
                entry["valid"] = report.mean
                if config.select_best and (
                    best_metric[j] is None or _metric_better(report.mean, best_metric[j], m.task)
                ):
                    best_metric[j] = report.mean
                    best_params[j] = m.flat.copy()
            histories[j].append(entry)
    for m, best in zip(models, best_params):
        if best is not None:
            np.copyto(m.flat, best)
    return histories[0] if single else histories


# -- inference ----------------------------------------------------------------


def combine_heads(model: MultiHeadModel, weights, x) -> np.ndarray:
    """Relation-weighted combination of head outputs on x.

    Weights are normalized to a simplex (all-zero rows fall back to uniform
    with a logged warning). In "prob" combine space the heads' softmax
    outputs are averaged instead of raw logits.
    """
    w = normalize_weights(weights)
    if w.shape[0] != len(model.head_domains):
        raise ValueError("need one weight per head")
    xb = np.asarray(x, dtype=np.float64)
    single = xb.ndim == 1
    outs = _stack_heads(model, xb if not single else xb[None, :])[2]
    if model.task == TASK_CLASSIFICATION and model.combine_space == "prob":
        outs = softmax(outs, axis=2)
    combined = np.einsum("k,knc->nc", w, outs)
    return combined[0] if single else combined


def infer(model: MultiHeadModel, weights, x) -> np.ndarray | float | int:
    """Final prediction under relation weights: argmax label or value."""
    combined = combine_heads(model, weights, x)
    single = combined.ndim == 1
    block = combined[None, :] if single else combined
    if model.task == TASK_CLASSIFICATION:
        pred = block.argmax(axis=1)
        return int(pred[0]) if single else pred
    pred = block[:, 0]
    return float(pred[0]) if single else pred


def infer_uniform(model: MultiHeadModel, x):
    """Prediction with equal weight on every head (no-relations variant)."""
    return infer(model, np.ones(len(model.head_domains)), x)


def relational_predictor(
    model: MultiHeadModel,
    dataset: DomainDataset,
    beta: float,
    mode: str = "fused",
):
    """Build predict(domain_id, x) using the domain's relation row.

    mode selects the weights: "fused" (fixed and learned, fused with beta),
    "fixed", "learned", or "uniform".
    """
    if mode not in ("fused", "fixed", "learned", "uniform"):
        raise ConfigError(f"unknown relation mode {mode!r}")
    train_ids = model.head_domains
    metas = dataset.meta_for(train_ids)
    rows: dict[str, np.ndarray] = {}

    def row_for(domain_id: str) -> np.ndarray:
        if domain_id not in rows:
            if mode == "uniform":
                rows[domain_id] = np.ones(len(train_ids))
            else:
                fixed_row = dataset.fixed_between([domain_id], train_ids)[0]
                eff_beta = {"fused": beta, "fixed": 1.0, "learned": 0.0}[mode]
                rows[domain_id] = relation_row(
                    model.relation_net,
                    dataset.meta_for([domain_id])[0],
                    metas,
                    fixed_row,
                    eff_beta,
                )
        return rows[domain_id]

    def predict(domain_id: str, x):
        return infer(model, row_for(domain_id), x)

    return predict


# -- pooled baseline and reweighted fine-tuning --------------------------------


@dataclass
class ErmModel:
    """Single-head baseline trained on pooled data, meta-data as features.

    Like MultiHeadModel, its parameters are views into one vector, ``flat``.
    """

    extractor: Mlp
    head: Mlp
    task: str
    meta_dim: int
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, views = pack(self.params())
        views = iter(views)
        _bind_mlp(self.extractor, views)
        _bind_mlp(self.head, views)

    def params(self) -> list[np.ndarray]:
        return self.extractor.params() + self.head.params()

    def copy(self) -> "ErmModel":
        return ErmModel(self.extractor.copy(), self.head.copy(), self.task, self.meta_dim)

    def predict_raw(self, x, meta_row) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        feats = np.hstack([x, np.tile(np.asarray(meta_row, dtype=np.float64), (x.shape[0], 1))])
        phi, _ = forward(self.extractor, feats)
        out, _ = forward(self.head, phi)
        return out

    def predict(self, x, meta_row):
        out = self.predict_raw(x, meta_row)
        if self.task == TASK_CLASSIFICATION:
            return out.argmax(axis=1)
        return out[:, 0]


def _pooled_features(dataset: DomainDataset, ids: list[str]):
    x, y, dom = dataset.arrays_for(ids)
    metas = dataset.meta_for(ids)
    return np.hstack([x, metas[dom]]), y, dom


def _plain_loss(net_out, y, task):
    if task == TASK_CLASSIFICATION:
        return loss_ce_batch(net_out, y)
    return loss_mse(net_out, np.asarray(y, dtype=np.float64)[:, None])


def train_erm(
    dataset: DomainDataset,
    config: TrainConfig,
    model: ErmModel | None = None,
) -> tuple[ErmModel, list[dict]]:
    """Pooled training over all training domains with one shared head.

    Domain meta-data is appended to the input features so the baseline sees
    the same information the relation-weighted model gets through its
    relation net. The extractor architecture matches build_model. Pass an
    existing model to continue training it in place.
    """
    config.validate()
    train_ids = dataset.ids_for_split("train")
    if not train_ids:
        raise ConfigError("no training domains")
    feats, y, dom = _pooled_features(dataset, train_ids)
    out = _out_dim(dataset)
    if model is None:
        model = ErmModel(
            extractor=Mlp.init(
                [feats.shape[1], config.hidden_width],
                ["relu"],
                substream(config.seed, "init", "erm-extractor"),
            ),
            head=Mlp.init(
                [config.hidden_width, out], ["identity"], substream(config.seed, "init", "erm-head")
            ),
            task=dataset.task,
            meta_dim=dataset.meta_dim,
        )
    elif model.extractor.in_dim != feats.shape[1] or model.head.out_dim != out:
        raise ConfigError(
            f"model expects {model.extractor.in_dim} input features and "
            f"{model.head.out_dim} outputs; dataset provides {feats.shape[1]} and {out}"
        )
    history = _erm_loop(model, feats, y, dom, config, dataset)
    return model, history


def _erm_loop(
    model: ErmModel,
    feats: np.ndarray,
    y: np.ndarray,
    dom: np.ndarray,
    config: TrainConfig,
    dataset: DomainDataset | None,
    example_weights: np.ndarray | None = None,
    stream: str = "train",
) -> list[dict]:
    opt = init_opt_state([model.flat])
    n = len(y)
    has_valid = dataset is not None and bool(dataset.ids_for_split("valid"))
    history: list[dict] = []
    best_metric: float | None = None
    best_params: np.ndarray | None = None
    for epoch in range(config.epochs if example_weights is None else config.finetune_epochs):
        idx = _epoch_order(n, dom, config, epoch) if stream == "train" else substream(
            config.seed, stream, "shuffle", epoch
        ).permutation(n)
        total = 0.0
        seen = 0
        for start in range(0, len(idx), config.batch_size):
            b = idx[start : start + config.batch_size]
            phi, e_tape = forward(model.extractor, feats[b])
            out, h_tape = forward(model.head, phi)
            if example_weights is None:
                loss, g = _plain_loss(out, y[b], model.task)
            else:
                losses, g = _example_losses(out, y[b], model.task)
                q = example_weights[b]
                loss = float(np.sum(q * losses) / len(b))
                g = g * q[:, None]
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite pooled-training loss at epoch {epoch}")
            h_grads, d_phi = backward(model.head, h_tape, g)
            e_grads, _ = backward(model.extractor, e_tape, d_phi)
            adam_step([model.flat], [flatten(e_grads + h_grads)], opt, config.lr, config.weight_decay)
            total += loss * len(b)
            seen += len(b)
        entry = {"epoch": epoch, "loss": total / seen}
        if has_valid and ((epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1):
            report = evaluate(erm_predictor(model, dataset), dataset, "valid")
            entry["valid"] = report.mean
            if config.select_best and (
                best_metric is None or _metric_better(report.mean, best_metric, model.task)
            ):
                best_metric = report.mean
                best_params = model.flat.copy()
        history.append(entry)
    if best_params is not None:
        np.copyto(model.flat, best_params)
    return history


def _example_losses(out: np.ndarray, y, task: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-example losses and the gradient of their mean w.r.t. out.

    out is (..., n, c) and y (..., n); the mean runs over the n examples.
    """
    if task == TASK_CLASSIFICATION:
        return loss_ce_rows(out, y)
    diff = out - np.asarray(y, dtype=np.float64)[..., None]
    return diff[..., 0] * diff[..., 0], (2.0 / diff.shape[-2]) * diff


def erm_predictor(model: ErmModel, dataset: DomainDataset):
    def predict(domain_id: str, x):
        return model.predict(x, dataset.meta_for([domain_id])[0])

    return predict


def rw_finetune(
    erm: ErmModel,
    dataset: DomainDataset,
    relation_weights,
    config: TrainConfig,
) -> ErmModel:
    """Fine-tune a copy of the pooled model on relation-reweighted data.

    relation_weights holds one nonnegative weight per training domain (in
    ids_for_split("train") order); each example's loss is scaled by its
    domain's weight, normalized to mean one over the training set, so
    zero-weight domains contribute nothing. With finetune_epochs == 0 the
    returned model equals the input.
    """
    config.validate()
    train_ids = dataset.ids_for_split("train")
    w = normalize_weights(relation_weights)
    if w.shape[0] != len(train_ids):
        raise ValueError("need one relation weight per training domain")
    feats, y, dom = _pooled_features(dataset, train_ids)
    q = w[dom]
    q = q * (len(q) / q.sum())
    tuned = erm.copy()
    _erm_loop(tuned, feats, y, dom, config, None, example_weights=q, stream="rwft")
    return tuned


def rwft_predictor(erm: ErmModel, dataset: DomainDataset, config: TrainConfig):
    """Per-domain prediction after fine-tuning on fixed-relation weights.

    The pooled baseline has no trained relation net, so the reweighting
    uses the dataset's fixed relations to the target domain.
    """
    train_ids = dataset.ids_for_split("train")
    tuned: dict[str, ErmModel] = {}

    def predict(domain_id: str, x):
        if domain_id not in tuned:
            row = dataset.fixed_between([domain_id], train_ids)[0]
            tuned[domain_id] = rw_finetune(erm, dataset, row, config)
        return tuned[domain_id].predict(x, dataset.meta_for([domain_id])[0])

    return predict


# -- evaluation ----------------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-domain metric values plus their mean and worst case."""

    metric: str  # "accuracy" or "mse"
    split: str
    per_domain: dict[str, float]
    mean: float
    worst: float
    n_examples: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "split": self.split,
            "per_domain": dict(self.per_domain),
            "mean": self.mean,
            "worst": self.worst,
            "n_examples": dict(self.n_examples),
        }


def evaluate(predict_fn, dataset: DomainDataset, split: str, task: str | None = None) -> MetricsReport:
    """Apply predict(domain_id, x) to every domain of a split.

    The mean is the unweighted mean over domains; "worst" is the minimum
    accuracy for classification and the maximum error for regression.
    """
    if not callable(predict_fn):
        raise ValueError(
            "evaluate takes a predictor, not a model; wrap it with "
            "relational_predictor(...) or erm_predictor(...) first"
        )
    task = task or dataset.task
    ids = dataset.ids_for_split(split)
    if not ids:
        raise DataError(f"no domains in split {split!r}")
    per: dict[str, float] = {}
    counts: dict[str, int] = {}
    for d in ids:
        x, y = dataset.domain_arrays(d)
        if x.shape[0] == 0:
            raise DataError(f"domain {d!r} has no examples")
        pred = np.asarray(predict_fn(d, x))
        if task == TASK_CLASSIFICATION:
            per[d] = float(np.mean(pred.astype(np.int64) == y.astype(np.int64)))
        else:
            per[d] = float(np.mean((pred - y) ** 2))
        counts[d] = int(x.shape[0])
    values = np.array([per[d] for d in ids])
    if task == TASK_CLASSIFICATION:
        return MetricsReport("accuracy", split, per, float(values.mean()), float(values.min()), counts)
    return MetricsReport("mse", split, per, float(values.mean()), float(values.max()), counts)


# -- checkpoints ----------------------------------------------------------------

CHECKPOINT_SCHEMA = "relgen-checkpoint/1"


def _mlp_entries(prefix: str, mlp: Mlp, arrays: dict, acts: list[str]) -> None:
    for i, layer in enumerate(mlp.layers):
        arrays[f"{prefix}/{i}/w"] = layer.w
        arrays[f"{prefix}/{i}/b"] = layer.b
        acts.append(layer.act)


def _mlp_from_entries(prefix: str, arrays, acts: list[str]) -> Mlp:
    layers = []
    i = 0
    while f"{prefix}/{i}/w" in arrays:
        layers.append(Layer(arrays[f"{prefix}/{i}/w"], arrays[f"{prefix}/{i}/b"], acts[i]))
        i += 1
    return Mlp(layers)


def save_checkpoint(path: str, model, config: TrainConfig, extra: dict | None = None) -> None:
    """Write a self-describing checkpoint (npz with a JSON header entry)."""
    if not isinstance(model, (MultiHeadModel, ErmModel)):
        raise ValueError(f"cannot checkpoint object of type {type(model).__name__}")
    arrays: dict[str, np.ndarray] = {}
    header: dict = {
        "schema": CHECKPOINT_SCHEMA,
        "version": __version__,
        "task": model.task,
        "config": config.to_dict(),
        "extra": extra or {},
    }
    if isinstance(model, MultiHeadModel):
        header["kind"] = "multi_head"
        header["head_domains"] = list(model.head_domains)
        header["combine_space"] = model.combine_space
        acts: dict[str, list[str]] = {"extractor": [], "relation_g": []}
        _mlp_entries("extractor", model.extractor, arrays, acts["extractor"])
        for k, (w, b) in enumerate(zip(model.head_w, model.head_b)):
            arrays[f"head/{k}/0/w"] = w
            arrays[f"head/{k}/0/b"] = b
        acts["head"] = ["identity"]
        _mlp_entries("relation/g", model.relation_net.g, arrays, acts["relation_g"])
        arrays["relation/w"] = model.relation_net.w
        header["acts"] = acts
    elif isinstance(model, ErmModel):
        header["kind"] = "erm"
        header["meta_dim"] = model.meta_dim
        acts = {"extractor": [], "head": []}
        _mlp_entries("extractor", model.extractor, arrays, acts["extractor"])
        _mlp_entries("head", model.head, arrays, acts["head"])
        header["acts"] = acts
    else:
        raise ValueError(f"cannot checkpoint object of type {type(model).__name__}")
    tmp, commit = atomic_writer(path)
    with open(tmp, "wb") as fh:
        np.savez(fh, __header__=np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8), **arrays)
    commit()


def load_checkpoint(path: str):
    """Read a checkpoint; returns (model, header dict).

    A missing file is a ConfigError. A file that is not a complete, finite
    relgen checkpoint (truncated archive, missing entry, head arrays that
    disagree with head_domains, NaN or inf parameters) is a DataError that
    names the path.
    """
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        return _read_checkpoint(path)
    except DataError:
        raise
    except (zipfile.BadZipFile, OSError, EOFError, AttributeError, KeyError, IndexError, TypeError,
            ValueError) as exc:
        raise DataError(f"{path}: unreadable checkpoint ({type(exc).__name__}: {exc})") from exc


def _read_checkpoint(path: str):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    if "__header__" not in arrays:
        raise DataError(f"{path}: not a checkpoint (missing header)")
    header = json.loads(arrays.pop("__header__").tobytes().decode())
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise DataError(f"{path}: unsupported checkpoint schema {header.get('schema')!r}")
    bad = sorted(name for name, a in arrays.items() if not np.isfinite(a).all())
    if bad:
        raise DataError(f"{path}: non-finite parameters in {bad}")
    acts = header["acts"]
    if header["kind"] == "multi_head":
        k = len(header["head_domains"])
        stored = sum(1 for name in arrays if name.startswith("head/"))
        if acts["head"] != ["identity"] or stored != 2 * k:
            raise DataError(
                f"{path}: {stored} head arrays with activations {acts['head']}, "
                f"expected one identity layer for each of {k} head_domains"
            )
        model = MultiHeadModel(
            extractor=_mlp_from_entries("extractor", arrays, acts["extractor"]),
            head_w=np.stack([arrays[f"head/{j}/0/w"] for j in range(k)]),
            head_b=np.stack([arrays[f"head/{j}/0/b"] for j in range(k)]),
            relation_net=RelationNet(
                _mlp_from_entries("relation/g", arrays, acts["relation_g"]),
                arrays["relation/w"],
            ),
            head_domains=list(header["head_domains"]),
            task=header["task"],
            combine_space=header["combine_space"],
        )
        return model, header
    if header["kind"] == "erm":
        model = ErmModel(
            extractor=_mlp_from_entries("extractor", arrays, acts["extractor"]),
            head=_mlp_from_entries("head", arrays, acts["head"]),
            task=header["task"],
            meta_dim=int(header["meta_dim"]),
        )
        return model, header
    raise DataError(f"{path}: unknown checkpoint kind {header['kind']!r}")
