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

import copy
import functools
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
    Pass,
    adam_step,
    backward,
    cross_entropy,
    flatten,
    forward,
    init_opt_state,
    init_weight,
    one_hot,
    softmax,
    split,
    stack_backward,
    stack_forward,
)
from .relations import (
    RelationNet,
    check_beta,
    fuse,
    fuse_halves,
    learned_matrix,
    learned_matrix_backward,
    mode_fusion,
    normalize_rows,
    relation_row,
)
from .rng import substream

REL_EPS = 1e-12
PROB_FLOOR = 1e-12

COMBINE_SPACES = ("logit", "prob")
TRAIN_RELATION_MODES = ("fused", "uniform")  # fixed and learned train as fused at beta 1 and 0
ROW_FIELDS = ("seed", "lam", "beta", "relation_mode")  # config fields that lockstep rows may vary


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
        check_beta(self.beta)
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
        if self.relation_mode not in TRAIN_RELATION_MODES:
            raise ConfigError(f"relation_mode must be one of {TRAIN_RELATION_MODES}")
        if self.finetune_epochs < 0:
            raise ConfigError("finetune_epochs must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a mapping, got {type(d).__name__}")
        fields = cls.__dataclass_fields__
        bad = set(d) - set(fields)
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        for name, value in d.items():
            want = type(fields[name].default)
            # JSON numbers: an int may stand for a float, but a bool is no number
            ok = isinstance(value, (int, float) if want is float else want)
            if not ok or (isinstance(value, bool) and want is not bool):
                raise ConfigError(f"config {name!r} must be a {want.__name__}, got {value!r}")
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
    parameter array a view into it, in the order views() returns them.
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
        its network's params() order.
        """
        out = split(buf, self._shapes)
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

    def _structure(self) -> tuple:
        return self._shapes, self.task, self.combine_space


def stack_models(models):
    """One model whose parameters carry a leading seed axis over the models.

    The models (all MultiHeadModel or all ErmModel) have their parameters
    copied into the rows of one (S, P) buffer, and model s is rebound to
    row s, so updating the stacked model updates every one of them. The
    models must have the same shapes and task, not the same head domains.
    The stack is for training and scoring passes; checkpoints work on the
    single models.
    """
    first = models[0]
    for m in models[1:]:
        if m._structure() != first._structure():
            raise ValueError("stacked models must have the same structure")
    flat = np.stack([m.flat for m in models])
    stacked = _bound_copy(first, flat)
    for m, row in zip(models, flat):
        m.bind(row)
    return stacked


def _bound_copy(model, flat: np.ndarray):
    """A deep copy of the model, bound to flat, which may hold non-finite parameters.

    _bound_copy(m, m.flat.copy()) is a copy of m with a buffer of its own.
    """
    twin = copy.deepcopy(model)
    twin.bind(flat)
    return twin


def _planned(model, grad: np.ndarray | None = None):
    """A shallow copy of the model, sharing its parameters, whose networks are Passes;
    given grad, a buffer laid out like model.flat, they write their gradients into it."""
    views = model.views(grad) if grad is not None else None
    twin = copy.copy(model)
    if isinstance(model, MultiHeadModel):
        twin.relation_net = copy.copy(model.relation_net)
        twin.relation_net.g = Pass(model.relation_net.g, views and views[3][:-1])
    else:
        twin.head = Pass(model.head, views and views[1])
    twin.extractor = Pass(model.extractor, views and views[0])
    return twin


def _out_dim(dataset: DomainDataset) -> int:
    return dataset.n_classes if dataset.task == TASK_CLASSIFICATION else 1


def check_fits(model, dataset: DomainDataset) -> None:
    """Raise ConfigError unless the model's task and sizes fit the dataset.

    Input features and meta-data columns must match; the model needs an
    output for every class label in the dataset.
    """
    if isinstance(model, MultiHeadModel):
        in_dim, outputs, meta_dim = (
            model.extractor.in_dim, model.head_w.shape[-2], model.relation_net.g.in_dim
        )
        features = dataset.n_features
    else:
        in_dim, outputs, meta_dim = model.extractor.in_dim, model.head.out_dim, model.meta_dim
        features = dataset.n_features + dataset.meta_dim
    needed = _out_dim(dataset)
    if (model.task, in_dim, meta_dim) != (dataset.task, features, dataset.meta_dim) or outputs < needed:
        raise ConfigError(
            f"{model.task} model expects {in_dim} input features and {meta_dim} meta-data "
            f"columns and has {outputs} outputs; the {dataset.task} dataset gives {features} "
            f"and {dataset.meta_dim} and needs {needed}"
        )


def build_model(dataset: DomainDataset, config: TrainConfig) -> MultiHeadModel:
    config.validate()
    train_ids = dataset.ids_for_split("train")
    if len(train_ids) < 2:
        raise ConfigError("need at least two training domains")
    out = _out_dim(dataset)
    k = len(train_ids)
    extractor = Mlp.init([dataset.n_features, config.hidden_width], ["relu"],
                         substream(config.seed, "init", "extractor"))
    # one substream per head, so a head's init does not depend on K
    head_w = np.stack([
        init_weight(config.hidden_width, out, substream(config.seed, "init", "head", j))
        for j in range(k)
    ])
    net = RelationNet.init(dataset.meta_dim, substream(config.seed, "init", "relations"),
                           width=config.relation_width, n_heads=config.relation_heads)
    return MultiHeadModel(extractor, head_w, np.zeros((k, out)), net, train_ids, dataset.task,
                          config.combine_space)


# -- loss terms ---------------------------------------------------------------


def _consistency_weights(a: np.ndarray, dom: np.ndarray, k: int, ix: tuple):
    """Per-example weights over heads, self excluded, rows summing to one.

    dom is (S, n) and a (S, K, K), one row each of S stacked models; ix is
    np.indices(dom.shape, sparse=True). Returns (u, divisor) where u is
    (S, n, K) and divisor, (S, n, 1), the pre-normalization row sum, or inf
    on rows that degraded to uniform weights (no gradient flows into the
    relations there).
    """
    if k < 2:
        raise ValueError("consistency needs at least two heads")
    self_entry = ix + (dom,)
    rows = a[ix[0], dom]  # fancy indexing, so already a copy
    rows[self_entry] = 0.0
    s = np.add.reduce(rows, axis=-1)[..., None]
    fallback = s <= REL_EPS
    if not np.logical_or.reduce(fallback, axis=None):
        return rows / s, s
    divisor = np.where(fallback, np.inf, s)
    u = rows / divisor
    u[fallback[..., 0]] = 1.0 / (k - 1)
    u[self_entry] = 0.0
    return u, divisor


def _losses(model, outs, self_out, u, y):
    """Both loss terms of a batch and their gradients w.r.t. the mixture space.

    outs is (S, K, n, c), u (S, n, K) and y (S, n, c) targets as _targets
    returns them. In logit space (and for regression) the own-head outputs
    and the mixture share one loss pass over one (2, S, n, c) buffer. In
    prob space the mixture averages each head's softmax, p. Returns (lp,
    lrel, g_self, g_mix, mix, p), the losses being means over n and p None
    in logit space.
    """
    n = y.shape[-2]
    if model.task == TASK_CLASSIFICATION and model.combine_space == "prob":
        losses, g_self = cross_entropy(outs[self_out], y)
        p = softmax(outs, axis=-1)  # (S, K, n, c)
        mix = np.einsum("...nk,...knc->...nc", u, p)
        picked = np.maximum(mix[y], PROB_FLOOR)  # each row's label entry, rows in C order
        g_mix = np.zeros_like(mix)
        g_mix[y] = -1.0 / (n * picked)
        lrel = -np.add.reduce(np.log(picked).reshape(y.shape[:-1]), axis=-1) / n
        return np.add.reduce(losses, axis=-1) / n, lrel, g_self, g_mix, mix, p
    both = np.empty((2,) + u.shape[:-1] + outs.shape[-1:])
    both[0] = outs[self_out]
    mix = np.einsum("...nk,...knc->...nc", u, outs, out=both[1])
    losses, (g_self, g_mix) = _example_losses(both, y, model.task)
    lp, lrel = np.add.reduce(losses, axis=-1) / n
    return lp, lrel, g_self, g_mix, mix, None


@dataclass
class StepPlan:
    """What total_loss_and_grads reuses over the steps of one training run.

    grad is the gradient buffer and views its parameter views, one leading
    row per model; nets is the model _planned with grad; the relations are
    max(fixed_part + share * learned, 0), or the constant ``relations``
    when the net is not read (beta 1 for every row); d_a is the (S, K, K)
    buffer of their gradient and diagonal a view of its diagonals; grids
    holds np.indices(shape, sparse=True) per batch shape.
    """

    grad: np.ndarray
    views: tuple
    nets: MultiHeadModel
    fixed_part: np.ndarray
    share: object
    relations: np.ndarray | None
    d_a: np.ndarray
    diagonal: np.ndarray
    grids: dict = field(default_factory=dict)

    def grid(self, shape: tuple) -> tuple:
        if shape not in self.grids:
            self.grids[shape] = np.indices(shape, sparse=True)
        return self.grids[shape]


def plan_step(model: MultiHeadModel, fixed: np.ndarray, beta: np.ndarray,
              grad: np.ndarray) -> StepPlan:
    """The StepPlan of total_loss_and_grads for these relations and gradient buffer.

    model is S stacked models (see stack_models); fixed holds their (S, K,
    K) fixed relations and beta their (S,) betas, one row per model, and
    grad is the (S, P) buffer laid out like model.flat.
    """
    s, k = len(grad), len(model.head_domains)
    if np.shape(fixed) != (s, k, k):
        raise ValueError(f"expected a ({k}, {k}) relation matrix per model, got {np.shape(fixed)}")
    fixed_part, share = fuse_halves(fixed, beta[:, None, None])
    constant = fuse(fixed, 0.0, 1.0) if (beta == 1.0).all() else None
    d_a = np.empty((s, k, k))
    diagonal = d_a.reshape(s, k * k)[:, :: k + 1]
    return StepPlan(grad, model.views(grad), _planned(model, grad), fixed_part, share, constant,
                    d_a, diagonal)


def _targets(model, y) -> np.ndarray:
    """Training targets as the losses read them, one row per example: a float64
    column of values, or the one_hot mask of class labels checked against the
    model's outputs (a ValueError if out of range)."""
    if model.task != TASK_CLASSIFICATION:
        return np.asarray(y, dtype=np.float64)[..., None]
    outputs = model.head_w.shape[-2] if isinstance(model, MultiHeadModel) else model.head.out_dim
    return one_hot(y, outputs)


def total_loss_and_grads(model: MultiHeadModel, batch, metas: np.ndarray | None,
                         lam: np.ndarray, plan: StepPlan):
    """Training objective of S models with exact gradients for every parameter.

    The model is S stacked models (see stack_models), and every input holds
    one row per model: the batch x (S, n, p) float64, y (S, n, c) as
    _targets returns it and domain (S, n) int64; metas, the (S, K, m)
    meta-data; lam, the (S,) consistency weights. plan is plan_step(model,
    fixed, beta, grad), made once per training run, which holds the fixed
    relations, beta, the planned passes and the gradient buffer. The relations are fuse(fixed, learned,
    beta), the learned matrix rebuilt from metas on every call so its
    gradients are exact; it is not built (and metas not read) when every
    beta is 1, and a row's (1 - beta) zeroes its relation-net gradient at
    beta 1. Returns (loss, (loss_pred, loss_rel), grad): three (S,) arrays
    and plan.grad, laid out like model.flat.
    """
    x, y, dom = batch
    _, g_hw, g_hb, g_net = plan.views
    k = len(model.head_domains)
    net = plan.nets.relation_net
    row_lam = lam[:, None, None]

    a, cache = plan.relations, None
    if a is None:
        a, cache = learned_matrix(net, metas)
        a *= plan.share  # fuse, in place, with its halves planned
        a += plan.fixed_part
        np.maximum(a, 0.0, out=a)

    phi, e_tape = forward(plan.nets.extractor, x)
    outs = stack_forward(model.head_w, model.head_b, phi)  # (S, K, n, c)

    ix = plan.grid(dom.shape)
    seeds, cols = ix
    self_out = (seeds, dom, cols)
    u, divisor = _consistency_weights(a, dom, k, ix)
    lp, lrel, g_self, g_mix, mix, p = _losses(model, outs, self_out, u, y)
    g_mix *= row_lam

    # gradients w.r.t. head outputs (in mixture space first)
    g_heads = u.swapaxes(-1, -2)[..., None] * g_mix[..., None, :, :]  # (S, K, n, c)
    if p is not None:
        # mixture was over probabilities: pull back through each softmax
        inner = (g_heads * p).sum(axis=-1, keepdims=True)
        g_heads = p * (g_heads - inner)
    np.add.at(g_heads, self_out, g_self)

    # gradients w.r.t. the relation entries actually used
    if cache is None:
        for view in g_net:
            view[...] = 0.0
    else:
        src = p if p is not None else outs
        contrib = np.einsum("...nc,...knc->...nk", g_mix, src)
        contrib -= np.einsum("...nc,...nc->...n", g_mix, mix)[..., None]
        contrib /= divisor
        # each example's own entry lands on the diagonal, zeroed below
        d_a = plan.d_a
        d_a.fill(0.0)
        np.add.at(d_a, (seeds, dom), contrib)
        d_a *= a > 0.0  # clamp subgradient
        plan.diagonal.fill(0.0)
        learned_matrix_backward(net, cache, plan.share * d_a, out_w=g_net[-1])

    _, _, d_phi = stack_backward(model.head_w, phi, g_heads, out=(g_hw, g_hb))
    backward(plan.nets.extractor, e_tape, d_phi, input_grad=False)
    return lp + lam * lrel, (lp, lrel), plan.grad


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


def _row_names(configs) -> list[str]:
    """Each row's seed, then its value of each other ROW_FIELDS field in which the rows differ."""
    differ = [f for f in ROW_FIELDS[1:] if len({getattr(c, f) for c in configs}) > 1]
    spec = {"lam": "g", "beta": "g", "relation_mode": ""}
    return [", ".join([f"seed {c.seed}"] + [f"{f} {getattr(c, f):{spec[f]}}" for f in differ])
            for c in configs]


def train(model, dataset, config):
    """Optimize the model on the dataset's training domains.

    A MultiHeadModel trains on the relational objective, rebuilding the
    relation matrix inside every batch so relation-net gradients stay
    exact (total_loss_and_grads); an ErmModel trains on the pooled data
    with its meta-data as features (see build_erm). If validation domains
    exist, the valid-split metric is recorded every eval_every epochs and
    the best parameters are restored at the end (config.select_best).
    Returns the per-epoch history.

    Given a list of models of one kind, one config each and a dataset or
    one dataset each, trains them in lockstep (see _train_loop) and returns
    one history per model. The rows may differ in dataset and in the
    ROW_FIELDS of their configs, but not in training-set shape. Each model
    ends bit for bit where training it alone would leave it.
    """
    single = isinstance(model, (MultiHeadModel, ErmModel))
    models = [model] if single else list(model)
    configs = [config] if single else list(config)
    datasets = [dataset] * len(models) if isinstance(dataset, DomainDataset) else list(dataset)
    if not models or not len(models) == len(configs) == len(datasets):
        raise ValueError("need one config and one dataset per model")
    config = configs[0]
    for cfg in configs:
        cfg.validate()
        if replace(cfg, **{f: getattr(config, f) for f in ROW_FIELDS}) != config:
            raise ConfigError(f"lockstep rows may differ only in dataset, {', '.join(ROW_FIELDS)}")
    relational = isinstance(models[0], MultiHeadModel)
    rows = []  # each row's (x, y, dom, metas, lazy fixed()); shared by the rows of a dataset
    for m, d in zip(models, datasets):
        check_fits(m, d)
        ids = d.ids_for_split("train")
        if relational and m.head_domains != ids:
            raise ConfigError(
                f"model heads {m.head_domains} do not match the dataset's training domains {ids}"
            )
        if len(ids) < 1 + relational:
            raise ConfigError("need at least two training domains" if relational else
                              "no training domains")
        data = next((r for r, e in zip(rows, datasets) if e is d), None)
        if data is None:
            xyd = d.arrays_for(ids) if relational else _pooled_features(d, ids)
            fixed_fn = functools.cache(lambda d=d, ids=ids: d.fixed_between(ids, ids))
            data = (*xyd, d.meta_for(ids), fixed_fn)
        rows.append(data)
    x, y, doms, metas, fixed_fns = zip(*rows)
    # a domain-balanced epoch is K times the largest domain long
    largest = [config.domain_balanced_sampling and np.bincount(dm).max() for dm in doms]
    if len({(a.shape, m.shape, g) for a, m, g in zip(x, metas, largest)}) > 1:
        raise ConfigError("lockstep rows need training sets of one shape (n, K, p, meta_dim and, "
                          "under domain-balanced sampling, the largest domain)")
    n = len(y[0])
    x, y, dom = (np.concatenate(a) for a in (x, y, doms))  # row j's examples start at j * n
    y = _targets(models[0], y)
    if relational:
        k = len(metas[0])
        fixed, beta = zip(*[
            mode_fusion(c.relation_mode, c.beta, fn, (k, k)) for c, fn in zip(configs, fixed_fns)
        ])
        metas, fixed, lam, beta = (np.stack(v) for v in (metas, fixed, [c.lam for c in configs], beta))
        keys = ("loss", "loss_pred", "loss_rel")

        def plan(stack, grad):
            step_plan = plan_step(stack, fixed, beta, grad)

            def epoch(idx):
                xe, ye, de = x[idx], y[idx], dom[idx]

                def step(lo, hi):
                    batch = xe[:, lo:hi], ye[:, lo:hi], de[:, lo:hi]
                    loss, (lp, lrel), _ = total_loss_and_grads(stack, batch, metas, lam, step_plan)
                    return loss, lp, lrel

                return step

            return epoch
    else:
        keys = ("loss",)
        plan = _pooled_step(x, y)

    def order(epoch):
        return n * np.arange(len(rows))[:, None] + np.stack(
            [_epoch_order(n, dm, c, epoch) for dm, c in zip(doms, configs)]
        )

    names = _row_names(configs)
    valid = _valid_pass(models, datasets, configs, names)
    histories = _train_loop(models, config, config.epochs, order, plan, keys, names, valid)
    return histories[0] if single else histories


def _pooled_step(x, y, q=None):
    """The _train_loop plan of pooled models on examples x, y (as _targets returns them): a
    step's loss is the mean example loss, or sum(q * losses) / n given (S, n) weights q."""

    def plan(stack, grad):
        twin = _planned(stack, grad)
        ext, head, task = twin.extractor, twin.head, stack.task

        def epoch(idx):
            xe, ye = x[idx], y[idx]
            qe = None if q is None else np.ascontiguousarray(q[:, idx])  # C order, see rw_finetune

            def step(lo, hi):
                phi, e_tape = forward(ext, xe[..., lo:hi, :])
                out, h_tape = forward(head, phi)
                losses, g = _example_losses(out, ye[..., lo:hi, :], task)
                if qe is not None:
                    losses *= qe[:, lo:hi]
                    g *= qe[:, lo:hi, None]
                _, d_phi = backward(head, h_tape, g)
                backward(ext, e_tape, d_phi, input_grad=False)
                return (np.add.reduce(losses, axis=-1) / losses.shape[-1],)

            return step

        return epoch

    return plan


def _train_loop(models, config: TrainConfig, epochs: int, order, plan, keys, names, valid=None):
    """The training loop of every model kind, with the models in lockstep.

    The models share one (S, P) parameter buffer (stack_models), one (S, P)
    gradient buffer and one Adam state, so each batch is one step() call
    and one adam_step call for all of them. order(epoch) gives the example
    order, (S, m) with one row per model or (m,) shared by all.
    plan(stack, grad), called once, returns epoch(idx), which gathers the
    examples of that order once and returns step(lo, hi); step writes every
    model's gradient for the batch idx[..., lo:hi] into grad and returns
    its loss terms, one (S,) array per name in keys, the first being the
    loss. A non-finite loss or gradient raises NumericalError naming the
    model (names[s]), the epoch and the batch. valid(stack, epoch), if
    given, returns each model's valid-split metric, or None for a model
    without one, which selects its best epoch. Returns one history per model.
    """
    stack = stack_models(models)
    params, grads = [stack.flat], [np.empty_like(stack.flat)]
    opt = init_opt_state(params)
    epoch_steps = plan(stack, grads[0])
    histories: list[list[dict]] = [[] for _ in models]
    best_metric: list[float | None] = [None] * len(models)
    best_params: list[np.ndarray | None] = [None] * len(models)
    size = config.batch_size
    for epoch in range(epochs):
        idx = order(epoch)
        step = epoch_steps(idx)
        seen = idx.shape[-1]
        counts = np.minimum(seen - np.arange(0, seen, size), size)  # each batch's size
        terms = np.empty((len(counts), len(keys), len(models)))  # each batch's loss terms
        for b in range(len(counts)):
            terms[b] = step(b * size, (b + 1) * size)
            finite = np.isfinite(terms[b, 0])
            if not np.logical_and.reduce(finite):
                j = int(finite.argmin())
                detail = ", ".join(f"{k}={float(v)!r}" for k, v in zip(keys, terms[b, :, j]))
                raise NumericalError(
                    f"non-finite training loss for {names[j]} at epoch {epoch}, "
                    f"batch {b} ({detail})"
                )
            try:
                adam_step(params, grads, opt, config.lr, config.weight_decay)
            except NumericalError as exc:
                j = int((~np.isfinite(grads[0]).all(axis=-1)).argmax())
                raise NumericalError(
                    f"non-finite gradient for {names[j]} at epoch {epoch}, batch {b}"
                ) from exc
        # each batch's terms times its size, added in batch order (a running sum)
        sums = np.add.accumulate(terms * counts[:, None, None])[-1]
        evaluate_now = valid is not None and (
            (epoch + 1) % config.eval_every == 0 or epoch == epochs - 1
        )
        metrics = valid(stack, epoch) if evaluate_now else [None] * len(models)
        for j, (m, metric) in enumerate(zip(models, metrics)):
            entry = {"epoch": epoch, **{k: sums[i, j] / seen for i, k in enumerate(keys)}}
            if metric is not None:
                entry["valid"] = metric
                if config.select_best and (
                    best_metric[j] is None or _metric_better(metric, best_metric[j], m.task)
                ):
                    best_metric[j] = metric
                    best_params[j] = m.flat.copy()
            histories[j].append(entry)
    for m, best in zip(models, best_params):
        if best is not None:
            np.copyto(m.flat, best)
    return histories


def _valid_pass(models, datasets, configs, names):
    """valid(stack, epoch) of _train_loop: every row's valid-split metric, None without one.

    A metric is the mean of the per-domain values score reports under the
    row's config. Non-finite outputs raise NumericalError naming the first
    such row, the epoch and that row's first such valid domain.
    """
    groups = _split_groups(models, datasets, [(c.relation_mode, c.beta) for c in configs], "valid")

    def valid(stack, epoch):
        values = _score_groups(groups, stack.flat, "valid",
                               lambda j: f"{names[j]} at epoch {epoch}: ")
        return [float(values[j].mean()) if j in values else None for j in range(len(models))]

    return valid


# -- inference ----------------------------------------------------------------


def combine_heads(model: MultiHeadModel, weights, x) -> np.ndarray:
    """Weighted combination of head outputs on a float64 (n, p) batch x.

    The weights are mixed as given: one per head, normalized by the caller
    (see normalize_rows). In "prob" combine space the heads' softmax
    outputs are averaged instead of raw logits. Returns the (n, c) outputs;
    a model stacked over S rows (see stack_models) takes (S, K) weights,
    one row each, and gives (S, n, c), one output block per row.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != model.head_w.shape[:-2]:
        raise ValueError("need one weight per head")
    phi = forward(model.extractor, x)[0]
    outs = stack_forward(model.head_w, model.head_b, phi)  # (..., K, n, c)
    if model.task == TASK_CLASSIFICATION and model.combine_space == "prob":
        outs = softmax(outs, axis=-1)
    return np.einsum("...k,...knc->...nc", w, outs)


def _decide(out: np.ndarray, task: str) -> np.ndarray:
    """Argmax labels or the first column of (..., n, c) outputs."""
    return out.argmax(axis=-1) if task == TASK_CLASSIFICATION else out[..., 0]


def _metric(pred: np.ndarray, y: np.ndarray, task: str):
    """Mean hits of predicted labels, or mean squared error of values, over the last axis."""
    hits_or_errors = (pred.astype(np.int64, copy=False) == y.astype(np.int64, copy=False)
                      if task == TASK_CLASSIFICATION else (pred - y) ** 2)
    return np.mean(hits_or_errors, axis=-1)


# -- pooled baseline and reweighted fine-tuning --------------------------------


@dataclass
class ErmModel:
    """Single-head baseline trained on pooled data, meta-data as features.

    Like MultiHeadModel, its parameters are views into one vector, ``flat``,
    and a (S, P) buffer binds S models at once (see stack_models).
    """

    extractor: Mlp
    head: Mlp
    task: str
    meta_dim: int
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._shapes = [p.shape for p in self.params()]
        self.bind(flatten(self.params()))

    def views(self, buf: np.ndarray):
        """Split a buffer laid out like ``flat`` into (extractor views, head views)."""
        out = split(buf, self._shapes)
        n_ext = 2 * len(self.extractor.layers)
        return out[:n_ext], out[n_ext:]

    def bind(self, flat: np.ndarray) -> None:
        """Make every parameter a view into flat, laid out as in ``flat``."""
        ext, head = self.views(flat)
        _bind_mlp(self.extractor, iter(ext))
        _bind_mlp(self.head, iter(head))
        self.flat = flat

    def _structure(self) -> tuple:
        return self._shapes, self.task, self.meta_dim

    def params(self) -> list[np.ndarray]:
        return self.extractor.params() + self.head.params()


def _pooled_outputs(model: ErmModel, feats: np.ndarray) -> np.ndarray:
    """The pooled model's (..., n, c) outputs on features plus meta-data."""
    return forward(model.head, forward(model.extractor, feats)[0])[0]


def _pooled_features(dataset: DomainDataset, ids: list[str]):
    x, y, dom = dataset.arrays_for(ids)
    metas = dataset.meta_for(ids)
    return np.hstack([x, metas[dom]]), y, dom


def build_erm(dataset: DomainDataset, config: TrainConfig) -> ErmModel:
    """A fresh pooled model: the build_model extractor on features plus meta-data."""
    config.validate()
    if not dataset.ids_for_split("train"):
        raise ConfigError("no training domains")
    width, seed = config.hidden_width, config.seed
    extractor = Mlp.init([dataset.n_features + dataset.meta_dim, width], ["relu"],
                         substream(seed, "init", "erm-extractor"))
    head = Mlp.init([width, _out_dim(dataset)], ["identity"], substream(seed, "init", "erm-head"))
    return ErmModel(extractor, head, dataset.task, dataset.meta_dim)


def train_erm(
    dataset: DomainDataset,
    config: TrainConfig,
    model: ErmModel | None = None,
) -> tuple[ErmModel, list[dict]]:
    """Pooled training over all training domains with one shared head.

    Domain meta-data is appended to the input features so the baseline sees
    the same information the relation-weighted model gets through its
    relation net. The extractor architecture matches build_model. Pass an
    existing model to continue training it in place. For several seeds at
    once, pass build_erm models to train.
    """
    if model is None:
        model = build_erm(dataset, config)
    return model, train(model, dataset, config)


def _example_losses(out: np.ndarray, y: np.ndarray, task: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-example losses and the gradient of their mean w.r.t. out.

    out is (..., n, c) and y, as _targets returns it, has a trailing part
    of out's shape, e.g. (n, c); the mean runs over the n examples.
    """
    if task == TASK_CLASSIFICATION:
        return cross_entropy(out, y)
    diff = out - y
    return diff[..., 0] * diff[..., 0], (2.0 / diff.shape[-2]) * diff


def rw_finetune(
    erm: ErmModel,
    dataset: DomainDataset,
    relation_weights,
    config: TrainConfig,
    targets: list[str],
) -> list[ErmModel]:
    """Fine-tune copies of the pooled model on relation-reweighted data, one per target.

    relation_weights is a (T, K) block, one row per domain of targets, each
    holding one nonnegative weight per training domain (in
    ids_for_split("train") order). A copy's example losses are scaled by
    their domain's weight in its row, normalized to mean one over the
    training set, so zero-weight domains contribute nothing. Each distinct
    row (bit for bit) is tuned once, named after its first target in error
    messages; the tunes train in lockstep and draw the same shuffle, so
    they share each input batch. targets names the rows in warnings.
    Returns T independent models; with finetune_epochs == 0 each equals
    the input.
    """
    config.validate()
    check_fits(erm, dataset)
    train_ids = dataset.ids_for_split("train")
    if np.shape(relation_weights) != (len(targets), len(train_ids)):
        raise ValueError("need one row of relation weights per target, "
                         "one weight per training domain")
    w = normalize_rows(relation_weights, targets)
    first: dict[bytes, int] = {}  # each distinct row's first target
    which = [first.setdefault(row.tobytes(), j) for j, row in enumerate(w)]
    keep = list(first.values())
    feats, y, dom = _pooled_features(dataset, train_ids)
    y = _targets(erm, y)
    # w[:, dom], and q[:, idx] in each epoch, index the last axis, which numpy
    # returns column major; each row of a C-order block is summed pairwise, as
    # a lone row is, so every fine-tune keeps the bits of a run of its own
    q = np.ascontiguousarray(w[keep][:, dom])
    q = q * (len(dom) / q.sum(axis=-1, keepdims=True))
    tuned = dict(zip(keep, [_bound_copy(erm, erm.flat.copy()) for _ in keep]))
    _train_loop(
        list(tuned.values()),
        config,
        config.finetune_epochs,
        lambda epoch: substream(config.seed, "rwft", "shuffle", epoch).permutation(len(y)),
        _pooled_step(feats, y, q),
        ("loss",),
        [f"the fine-tune for domain {targets[j]!r}" for j in keep],
    )
    return [tuned[i] if i == j else _bound_copy(tuned[i], tuned[i].flat.copy())
            for j, i in enumerate(which)]


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
        return asdict(self)


def split_ids(dataset: DomainDataset, split: str) -> list[str]:
    """The domain ids of a split that is to be scored; a DataError if it has none."""
    ids = dataset.ids_for_split(split)
    if not ids:
        raise DataError(f"no domains in split {split!r}")
    return ids


def _report(dataset: DomainDataset, split: str, values: np.ndarray) -> MetricsReport:
    """A split's report from its (T,) per-domain values: their unweighted mean and worst."""
    ids = dataset.ids_for_split(split)
    classes = dataset.task == TASK_CLASSIFICATION
    worst = values.min() if classes else values.max()
    return MetricsReport("accuracy" if classes else "mse", split, dict(zip(ids, values.tolist())),
                         float(values.mean()), float(worst), dataset.counts(ids))


def evaluate(erm: ErmModel, dataset: DomainDataset, config: TrainConfig, split: str) -> MetricsReport:
    """The split's report (see _report) after relation-weighted fine-tuning, one copy per domain.

    The pooled baseline has no trained relation net, so each domain of the
    split weights the training domains by its fixed relations to them. One
    lockstep rw_finetune call tunes the copies, and each copy is scored on
    its own domain only, with the bits score gives it there. A non-finite
    output of a copy on its own domain raises score's NumericalError.
    """
    ids = split_ids(dataset, split)
    rows = dataset.fixed_between(ids, dataset.ids_for_split("train"))
    values, bad = [], {}
    for j, (tuned, d) in enumerate(zip(rw_finetune(erm, dataset, rows, config, ids), ids)):
        out = _pooled_outputs(tuned, _pooled_features(dataset, [d])[0])[None]  # (1, n, c)
        values.append(_domain_values([j], d, dataset.domain_arrays(d)[1], out, erm.task, bad)[0])
    _raise_non_finite(bad, split)
    return _report(dataset, split, np.array(values))


def score(models, datasets, modes, split: str) -> list[MetricsReport]:
    """Each model's report on one split of its dataset (one for all, or one each).

    modes[j] is model j's (relation mode, beta), beta checked in every mode,
    or None; an ErmModel reads no mode. A MultiHeadModel predicts each
    domain through relation_row, normalize_rows and combine_heads; an
    ErmModel from its features plus the domain's meta-data row. The decision
    is the argmax label or the first output column. Models of one structure,
    dataset and mode are scored together (see _SplitGroup), each with the
    bits it gets when scored alone. Non-finite outputs raise NumericalError
    naming the split and the first such model's first such domain.
    """
    datasets = [datasets] * len(models) if isinstance(datasets, DomainDataset) else list(datasets)
    groups = _split_groups(models, datasets, modes, split)
    for d in datasets:
        split_ids(d, split)
    values = _score_groups(groups, np.stack([m.flat for m in models]), split)
    return [_report(d, split, values[j]) for j, d in enumerate(datasets)]


def _score_groups(groups, flat: np.ndarray, split: str, prefix=lambda j: "") -> dict:
    """The (T,) per-domain values of every group's rows j, by j, from the (S, P) parameters.

    Non-finite outputs raise NumericalError, led by prefix(j), for the first
    such row j and its first such domain of the split.
    """
    values, bad = {}, {}  # (T,) values and first non-finite domain, by row
    for group in groups:
        group.score(flat, values, bad)
    _raise_non_finite(bad, split, prefix)
    return values


def _raise_non_finite(bad: dict, split: str, prefix=lambda j: "") -> None:
    """Raise NumericalError, led by prefix(j), for the first row j of bad and its domain bad[j]."""
    if bad:
        j = min(bad)
        raise NumericalError(
            f"{prefix(j)}non-finite model outputs (NaN or inf) on {split} domain {bad[j]!r}"
        )


def _domain_values(rows: list[int], d: str, y: np.ndarray, out: np.ndarray, task: str,
                   bad: dict) -> np.ndarray:
    """The (S,) metric of each row's (S, n, c) outputs on domain d against its targets y.

    Sets bad[rows[s]] to d for each row s with a non-finite output, unless
    it already names an earlier domain.
    """
    for s in np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1))):
        bad.setdefault(rows[s], d)
    return _metric(_decide(out, task), y, task)


def _split_groups(models, datasets, modes, split: str) -> list:
    """One _SplitGroup per set of rows that share a dataset and a mode; rows
    without domains in the split are left out."""
    members: dict[tuple, list[int]] = {}
    for j, (d, mode) in enumerate(zip(datasets, modes)):
        if d.ids_for_split(split):
            members.setdefault((id(d), mode), []).append(j)
    return [_SplitGroup(models, rows, datasets[rows[0]], modes[rows[0]], split)
            for rows in members.values()]


class _SplitGroup:
    """One split of one dataset, scored for some rows of a stack under one predictor.

    Built once: each domain's examples (pooled features for an ErmModel)
    and, for a MultiHeadModel under mode (relation mode, beta), the split's
    fixed relation rows and meta-data. score() makes one relation_row call
    for all rows, one normalize_rows call on its (S, T, K) block (so at most
    one fallback warning per split and pass) and one combine_heads call per
    domain, not one over the whole split: BLAS may round an example's
    output differently at another offset in a larger block (1 ulp of valid
    MSE on a 6x6 grid).
    """

    def __init__(self, models, rows: list[int], dataset: DomainDataset, mode, split: str):
        self.rows = rows
        template = models[rows[0]]  # score() loads the rows into the copy's buffer
        self.model = _planned(_bound_copy(template, np.empty((len(rows),) + template.flat.shape)))
        self.ids = dataset.ids_for_split(split)
        self.xs, self.ys = zip(*[dataset.domain_arrays(d) for d in self.ids])
        if not isinstance(self.model, MultiHeadModel):
            self.xs = [_pooled_features(dataset, [d])[0] for d in self.ids]
            return
        train_ids = self.model.head_domains
        self.fixed, self.beta = mode_fusion(
            *mode, lambda: dataset.fixed_between(self.ids, train_ids), (len(self.ids), len(train_ids))
        )
        self.meta_t, self.metas = dataset.meta_for(self.ids), dataset.meta_for(train_ids)

    def score(self, flat: np.ndarray, values: dict, bad: dict) -> None:
        """From every row's (S, P) parameters, set values[j] to the (T,) per-domain metric
        of each of the group's rows j, and bad[j] to j's first non-finite domain."""
        model = self.model
        np.take(flat, self.rows, axis=0, out=model.flat)
        if isinstance(model, MultiHeadModel):  # (S, T, K) weight rows, then (S, n, c) per domain
            w = relation_row(model.relation_net, self.meta_t, self.metas, self.fixed, self.beta)
            w = normalize_rows(w, self.ids)
            outs = (combine_heads(model, w[:, t], x) for t, x in enumerate(self.xs))
        else:
            outs = (_pooled_outputs(model, x) for x in self.xs)
        per = [_domain_values(self.rows, d, y, out, model.task, bad)
               for d, y, out in zip(self.ids, self.ys, outs)]
        values.update(zip(self.rows, np.stack(per, axis=-1)))


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
    else:
        header["kind"] = "erm"
        header["meta_dim"] = model.meta_dim
        acts = {"extractor": [], "head": []}
        _mlp_entries("extractor", model.extractor, arrays, acts["extractor"])
        _mlp_entries("head", model.head, arrays, acts["head"])
        header["acts"] = acts
    with atomic_writer(path) as fh:
        np.savez(fh, __header__=np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8), **arrays)


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
    TrainConfig.from_dict(header["config"])  # a ConfigError here is reported as a DataError
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
