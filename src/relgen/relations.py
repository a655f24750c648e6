"""Domain relations: fixed similarities from meta-data, a learned similarity
net, and their convex fusion.

Two fixed sources are supported: an angle-based similarity max(0, cos(dt))
for scalar angular meta-data, and a 0/1 adjacency matrix read from an edge
list. The learned similarity embeds each domain's meta-data with a small
MLP g, masks the embedding with per-head weight vectors, and averages the
masked cosines over heads. Fusion is beta * fixed + (1 - beta) * learned,
clamped at zero so downstream weighting never sees negative relations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .fileio import write_csv
from .nn import Mlp, backward, forward

logger = logging.getLogger(__name__)

RELATION_MODES = ("fused", "fixed", "learned", "uniform")  # the modes mode_fusion maps


def angle_between(ta, tb) -> np.ndarray:
    """Similarities max(0, cos(a - b)) of every angle a in ta to every b in tb.

    Cosine handles wrap-around, so angles near +pi and -pi compare as close.
    ta and tb are (n, 1) meta-data, n angles or one scalar angle; wider
    meta-data raises ConfigError. Returns a (len(ta), len(tb)) matrix.
    """
    ta, tb = np.asarray(ta, dtype=np.float64), np.asarray(tb, dtype=np.float64)
    if ta.shape[1:] not in ((), (1,)) or tb.shape[1:] not in ((), (1,)):
        raise ConfigError("fixed relations need an adjacency list or one-column angle meta-data")
    return np.maximum(0.0, np.cos(ta.reshape(-1, 1) - tb.reshape(1, -1)))


def adjacency_matrix(ids: list[str], edges) -> np.ndarray:
    """0/1 matrix from an undirected edge list, with ones on the diagonal."""
    index = {d: k for k, d in enumerate(ids)}
    if len(index) != len(ids):
        raise DataError("duplicate domain id in adjacency ids")
    a = np.zeros((len(ids), len(ids)))
    np.fill_diagonal(a, 1.0)
    for i, j in edges:
        if i not in index or j not in index:
            unknown = i if i not in index else j
            raise DataError(f"adjacency references unknown domain id {unknown!r}")
        a[index[i], index[j]] = 1.0
        a[index[j], index[i]] = 1.0
    return a


@dataclass
class RelationNet:
    """Learned-similarity parameters: embedding net g plus R mask vectors."""

    g: Mlp
    w: np.ndarray  # (R, embed_dim)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[1] != self.g.out_dim:
            raise ValueError("mask vectors must match the embedding dimension")

    def params(self) -> list[np.ndarray]:
        return self.g.params() + [self.w]

    @classmethod
    def init(
        cls,
        meta_dim: int,
        rng: np.random.Generator,
        width: int = 32,
        n_heads: int = 4,
    ) -> "RelationNet":
        # all-ones masks so the learned similarity starts near a plain cosine
        g = Mlp.init([meta_dim, width, width], ["tanh", "tanh"], rng)
        return cls(g, np.ones((n_heads, width)))


@dataclass
class LearnedMatrixCache:
    reps: np.ndarray  # (..., K, s) embeddings
    tape: list  # forward's tape of g
    unit: np.ndarray  # (..., K, R, s) row-normalized masked embeddings, domain-major
    divisor: np.ndarray  # (..., K, R, 1) norms, inf where zero, so a zero embedding divides to 0
    block: np.ndarray  # unit as (..., K, R*s) rows


def learned_matrix(net: RelationNet, metas) -> tuple[np.ndarray, LearnedMatrixCache]:
    """All pairwise learned similarities for a stack of meta-data rows.

    Domain k's R unit vectors, laid end to end, form row k of a (K, R*s)
    block U, so the head-averaged cosines are the single product U U^T / R.
    A net whose parameters carry a leading (seed) axis gives one (S, K, K)
    matrix per slice from (S, K, m) metas; more leading axes of metas
    broadcast against it, so (T, 1, K, m) gives (T, S, K, K), each slice
    the bits of its own (K, m) call.
    """
    metas = np.asarray(metas, dtype=np.float64)
    if metas.ndim < 2:
        raise ValueError("metas must be a (K, meta_dim) matrix or a stack of them")
    reps, tape = forward(net.g, metas)
    mask = net.w[..., None, :, :]
    masked = reps[..., None, :] * mask  # (..., K, R, s)
    norm = np.sqrt(np.add.reduce(masked * masked, axis=-1))  # (..., K, R), as np.linalg.norm
    divisor = np.where(norm > 0.0, norm, np.inf)[..., None]
    unit = masked / divisor
    block = unit.reshape(unit.shape[:-2] + (-1,))
    a_l = (block @ block.swapaxes(-1, -2)) / mask.shape[-2]  # a syrk call, so exactly symmetric
    return a_l, LearnedMatrixCache(reps, tape, unit, divisor, block)


def learned_matrix_backward(
    net: RelationNet, cache: LearnedMatrixCache, d_a_l: np.ndarray, out_w: np.ndarray | None = None
) -> list[np.ndarray]:
    """Gradients of sum(d_a_l * A_l) w.r.t. RelationNet.params().

    d_a_l entries are treated independently; the caller is responsible for
    zeroing the diagonal, which is constant and carries no gradient. The
    gradients of g go where backward(net.g, ...) puts them (into a Pass's
    gradient arrays), and the mask vectors' gradient into out_w, if given.
    """
    unit = cache.unit
    d_a_l = np.asarray(d_a_l, dtype=np.float64) / net.w.shape[-2]
    # A_l = U U^T, so d U = (D + D^T) U on the (K, R*s) block
    d_block = (d_a_l + d_a_l.swapaxes(-1, -2)) @ cache.block
    d_unit = d_block.reshape(d_block.shape[:-1] + unit.shape[-2:])
    # back through row normalization u = m / |m|
    inner = np.add.reduce(d_unit * unit, axis=-1, keepdims=True)
    d_masked = (d_unit - inner * unit) / cache.divisor
    d_w = np.einsum("...krs,...ks->...rs", d_masked, cache.reps, out=out_w)  # (..., R, s)
    d_reps = np.einsum("...krs,...rs->...ks", d_masked, net.w)  # (..., K, s)
    g_grads, _ = backward(net.g, cache.tape, d_reps, input_grad=False)
    return g_grads + [d_w]


def check_beta(beta) -> None:
    """Raise ConfigError unless beta, a float or an array of one per row, lies in [0, 1]."""
    if not np.logical_and(beta >= 0.0, beta <= 1.0).all():  # False for NaN
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")


def fuse_halves(fixed, beta) -> tuple[np.ndarray, object]:
    """The constant halves of fuse: (beta * fixed, 1 - beta), after one check_beta."""
    check_beta(beta)
    return beta * np.asarray(fixed, dtype=np.float64), 1.0 - beta


def fuse(fixed, learned, beta) -> np.ndarray:
    """beta * fixed + (1 - beta) * learned, clamped at zero; beta broadcasts, e.g. as (S, 1, 1)."""
    fixed_part, share = fuse_halves(fixed, beta)
    return np.maximum(fixed_part + share * np.asarray(learned, dtype=np.float64), 0.0)


def mode_fusion(mode: str, beta: float, fixed, shape) -> tuple[np.ndarray, float]:
    """(fixed relations, beta) for one of RELATION_MODES; fixed() gives those from meta-data.

    "fixed" is beta 1 and "learned" beta 0; "uniform" is all-ones fixed
    relations of the given shape at beta 1. At beta 0 the fixed part is
    zeros, which fuse to the bits the finite, nonnegative fixed() would.
    """
    if mode not in RELATION_MODES:
        raise ConfigError(f"unknown relation mode {mode!r}")
    check_beta(beta)  # in every mode, so no given beta is silently ignored
    if mode == "uniform":
        return np.ones(shape), 1.0
    beta = {"fused": beta, "fixed": 1.0, "learned": 0.0}[mode]
    return (np.zeros(shape) if beta == 0.0 else fixed()), beta


def build_matrix(metas, net: RelationNet, beta: float, fixed: np.ndarray) -> np.ndarray:
    """Fuse a precomputed fixed matrix with the net's learned similarities.

    The diagonal is pinned to 1 (self-relation convention); no consumer
    reads it, but exports should show it. At beta 1 the net is not read.
    """
    fused = fuse(fixed, 0.0 if beta == 1.0 else learned_matrix(net, metas)[0], beta)
    np.fill_diagonal(fused, 1.0)
    return fused


def relation_row(net: RelationNet, meta_t, metas, fixed_row, beta: float) -> np.ndarray:
    """Fused relations of held-out domains to a stack of K domains, from one learned_matrix call.

    meta_t is a (T, m) block of the held-out domains' meta-data and
    fixed_row their (T, K) fixed relations; the result is (T, K), or (S, T,
    K), seeds first, in C order, for a net with a seed axis (see
    learned_matrix). One (m,) row with a (K,) fixed row takes the same path
    and drops the T axis. At beta 1 the net's share of 0 keeps the fixed
    rows' bits.
    """
    metas = np.asarray(metas, dtype=np.float64)
    # target t's meta-data above the stack's; the (T, 1) grid broadcasts against a seed axis
    targets = np.reshape(meta_t, (-1, 1, 1, metas.shape[-1]))
    stacked = np.concatenate([targets, np.broadcast_to(metas, (len(targets), 1) + metas.shape)], axis=2)
    learned = learned_matrix(net, stacked)[0][..., 0, 1:]  # (T, S or 1, K)
    shape = net.w.shape[:-2] + np.shape(meta_t)[:-1] + metas.shape[:1]
    return fuse(fixed_row, np.ascontiguousarray(learned.swapaxes(0, 1)).reshape(shape), beta)


def normalize_rows(rows, names=None) -> np.ndarray:
    """Scale each row of a (..., K) stack of finite nonnegative weights to sum to one.

    An all-zero row means "no related domain"; the fallback is uniform
    weights, logged as one warning per call that counts the rows and, given
    names (labels of axis -2), names them, so silent degradation is
    visible. NaN and inf are rejected like negative weights.
    """
    w = np.asarray(rows, dtype=np.float64)
    if not (w.shape[-1:] != (0,) and np.isfinite(w).all() and (w >= 0.0).all()):
        raise ValueError("weights must be non-empty, finite and nonnegative")
    s = np.add.reduce(w, axis=-1, keepdims=True)
    zero = s <= 0.0
    fallbacks = np.count_nonzero(zero)
    if fallbacks:
        which = "" if names is None else " (%s)" % ", ".join(
            np.compress(zero.reshape(-1, len(names)).any(axis=0), names))
        logger.warning("all-zero relation rows: %d of %d%s; falling back to uniform weights",
                       fallbacks, zero.size, which)
    return np.where(zero, 1.0, w) / np.where(zero, w.shape[-1], s)


# -- relation matrix export ----------------------------------------------------


def save_relation_csv(path: str, ids: list[str], matrix: np.ndarray) -> None:
    rows = [[d] + [repr(float(v)) for v in matrix[i]] for i, d in enumerate(ids)]
    write_csv(path, [["domain_id"] + list(ids)] + rows)
