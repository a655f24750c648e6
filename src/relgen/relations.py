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

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .fileio import atomic_write_text
from .nn import Mlp, Tape, backward, forward

logger = logging.getLogger(__name__)

SYMMETRY_TOL = 1e-12


def fixed_angle_similarity(theta_i: float, theta_j: float) -> float:
    """Similarity of two angular positions: max(0, cos(theta_i - theta_j)).

    Cosine handles wrap-around, so angles near +pi and -pi compare as close.
    """
    return float(max(0.0, np.cos(float(theta_i) - float(theta_j))))


def angle_matrix(angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=np.float64).reshape(-1)
    return np.maximum(0.0, np.cos(angles[:, None] - angles[None, :]))


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

    @property
    def n_heads(self) -> int:
        return self.w.shape[0]

    def params(self) -> list[np.ndarray]:
        return self.g.params() + [self.w]

    def copy(self) -> "RelationNet":
        return RelationNet(self.g.copy(), self.w.copy())

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


def learned_relation(net: RelationNet, m_i, m_j) -> float:
    """Masked-cosine similarity of two meta-data vectors, averaged over heads.

    A head whose masked embedding has zero norm contributes 0.
    """
    gi, _ = forward(net.g, np.asarray(m_i, dtype=np.float64))
    gj, _ = forward(net.g, np.asarray(m_j, dtype=np.float64))
    total = 0.0
    for r in range(net.n_heads):
        u = net.w[r] * gi
        v = net.w[r] * gj
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        if nu == 0.0 or nv == 0.0:
            continue
        total += float(u @ v) / (nu * nv)
    return total / net.n_heads


@dataclass
class LearnedMatrixCache:
    reps: np.ndarray  # (K, s) embeddings
    tape: Tape
    unit: np.ndarray  # (K, R, s) row-normalized masked embeddings, domain-major
    norm: np.ndarray  # (K, R)
    alive: np.ndarray  # (K, R) bool, norm > 0


def learned_matrix(net: RelationNet, metas) -> tuple[np.ndarray, LearnedMatrixCache]:
    """All pairwise learned similarities for a stack of meta-data rows.

    Domain k's R unit vectors, laid end to end, form row k of a (K, R*s)
    block U, so the head-averaged cosines are the single product U U^T / R.
    """
    metas = np.asarray(metas, dtype=np.float64)
    if metas.ndim != 2:
        raise ValueError("metas must be a (K, meta_dim) matrix")
    reps, tape = forward(net.g, metas)
    masked = reps[:, None, :] * net.w[None, :, :]  # (K, R, s)
    norm = np.sqrt((masked * masked).sum(axis=2))  # (K, R), as np.linalg.norm
    alive = norm > 0.0
    unit = np.zeros_like(masked)
    np.divide(masked, norm[:, :, None], out=unit, where=alive[:, :, None])
    block = unit.reshape(len(metas), -1)
    a_l = (block @ block.T) / net.n_heads  # a syrk call, so exactly symmetric
    return a_l, LearnedMatrixCache(reps, tape, unit, norm, alive)


def learned_matrix_backward(
    net: RelationNet, cache: LearnedMatrixCache, d_a_l: np.ndarray
) -> list[np.ndarray]:
    """Gradients of sum(d_a_l * A_l) w.r.t. RelationNet.params().

    d_a_l entries are treated independently; the caller is responsible for
    zeroing the diagonal, which is constant and carries no gradient.
    """
    d_a_l = np.asarray(d_a_l, dtype=np.float64) / net.n_heads
    unit = cache.unit
    k = unit.shape[0]
    # A_l = U U^T, so d U = (D + D^T) U on the (K, R*s) block
    d_unit = ((d_a_l + d_a_l.T) @ unit.reshape(k, -1)).reshape(unit.shape)
    # back through row normalization u = m / |m|
    inner = (d_unit * unit).sum(axis=2, keepdims=True)
    d_masked = np.zeros_like(d_unit)
    np.divide(
        d_unit - inner * unit,
        cache.norm[:, :, None],
        out=d_masked,
        where=cache.alive[:, :, None],
    )
    d_w = (d_masked * cache.reps[:, None, :]).sum(axis=0)  # (R, s)
    d_reps = (d_masked * net.w[None, :, :]).sum(axis=1)  # (K, s)
    g_grads, _ = backward(net.g, cache.tape, d_reps)
    return g_grads + [d_w]


def fuse(fixed, learned, beta: float):
    """beta * fixed + (1 - beta) * learned, clamped at zero elementwise."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    pre = beta * np.asarray(fixed, dtype=np.float64) + (1.0 - beta) * np.asarray(
        learned, dtype=np.float64
    )
    out = np.maximum(pre, 0.0)
    return float(out) if np.ndim(out) == 0 else out


@dataclass
class RelationMatrix:
    """Fused relation matrix for a set of domains, with its two components."""

    ids: list[str]
    fixed: np.ndarray
    learned: np.ndarray
    fused: np.ndarray
    beta: float

    def __post_init__(self):
        d = len(self.ids)
        for name in ("fixed", "learned", "fused"):
            m = getattr(self, name)
            if m.shape != (d, d):
                raise ValueError(f"{name} matrix shape {m.shape} != ({d}, {d})")
            if np.abs(m - m.T).max(initial=0.0) > SYMMETRY_TOL:
                raise ValueError(f"{name} matrix is not symmetric")
        if self.fused.min(initial=0.0) < 0.0:
            raise ValueError("fused matrix has negative entries")

    def row(self, domain_id: str) -> np.ndarray:
        return self.fused[self.ids.index(domain_id)]


def build_matrix(
    ids: list[str],
    metas,
    net: RelationNet,
    beta: float,
    fixed: np.ndarray,
) -> RelationMatrix:
    """Fuse a precomputed fixed matrix with the net's learned similarities.

    The diagonal of the fused matrix is pinned to 1 (self-relation
    convention); no consumer reads it, but exports should show it.
    """
    learned, _ = learned_matrix(net, metas)
    fused = fuse(fixed, learned, beta)
    np.fill_diagonal(fused, 1.0)
    return RelationMatrix(list(ids), np.asarray(fixed, dtype=np.float64), learned, fused, beta)


def relation_row(net: RelationNet, meta_t, metas, fixed_row, beta: float) -> np.ndarray:
    """Fused relations between one held-out domain and a stack of domains."""
    meta_t = np.asarray(meta_t, dtype=np.float64).reshape(1, -1)
    metas = np.asarray(metas, dtype=np.float64)
    stacked = np.vstack([meta_t, metas])
    a_l, _ = learned_matrix(net, stacked)
    return fuse(np.asarray(fixed_row, dtype=np.float64), a_l[0, 1:], beta)


def normalize_weights(weights) -> np.ndarray:
    """Scale finite nonnegative weights to sum to one.

    An all-zero row means "no related domain"; the fallback is uniform
    weights, logged as a warning so silent degradation is visible. NaN and
    inf are rejected like negative weights.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty vector")
    if not (np.isfinite(w).all() and (w >= 0.0).all()):
        raise ValueError("weights must be finite and nonnegative")
    s = w.sum()
    if s <= 0.0:
        logger.warning("all-zero relation row; falling back to uniform weights")
        return np.full(w.shape, 1.0 / w.size)
    return w / s


# -- relation matrix export ----------------------------------------------------


def relation_matrix_to_csv(ids: list[str], matrix: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["domain_id"] + list(ids))
    for i, d in enumerate(ids):
        writer.writerow([d] + [repr(float(v)) for v in matrix[i]])
    return buf.getvalue()


def save_relation_csv(path: str, ids: list[str], matrix: np.ndarray) -> None:
    atomic_write_text(path, relation_matrix_to_csv(ids, matrix))


def load_relation_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["domain_id"]:
        raise DataError(f"{path}: expected a domain_id header row")
    ids = rows[0][1:]
    matrix = np.zeros((len(ids), len(ids)))
    if len(rows) - 1 != len(ids):
        raise DataError(f"{path}: expected {len(ids)} matrix rows")
    for i, row in enumerate(rows[1:]):
        if len(row) != len(ids) + 1 or row[0] != ids[i]:
            raise DataError(f"{path}: malformed matrix row {i + 2}")
        matrix[i] = [float(v) for v in row[1:]]
    return ids, matrix
