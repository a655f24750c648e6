"""Datasets grouped by domain, plus the two synthetic benchmark generators.

File layout (all CSV unless noted):
  data.csv      header "domain_id,y,x_1,...,x_k", one example per row
  meta.csv      header "domain_id,m_1,...,m_k", one row per domain
  splits.csv    header "domain_id,split" with split in {train,valid,test}
  adjacency.txt one undirected edge per line: "id_i id_j"
"""

from __future__ import annotations

import math
import os
from array import array
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, allocate
from .fileio import atomic_write_text, csv_rows, parse_floats, write_csv
from .relations import adjacency_matrix, angle_between
from .rng import substream

SPLITS = ("train", "valid", "test")

TASK_CLASSIFICATION = "classification"
TASK_REGRESSION = "regression"
# a classifier has one output per class up to its largest label
MAX_CLASSES = 65536

# 15-domain rotating two-Gaussian benchmark
DG15_N_DOMAINS = 15
DG15_RADIUS = 3.0
# assignment of angle-sorted domains to train (T) / valid (V) / test (S);
# interleaved so most test domains sit next to a training domain, while the
# slot-11 test domain is several slots from any training angle
DG15_SPLIT_PATTERN = "TSTVTSTVTSVSVVS"
_PATTERN_SPLIT = {"T": "train", "V": "valid", "S": "test"}


@dataclass
class DomainDataset:
    """Examples with a domain index each, per-domain meta-data, and splits."""

    x: np.ndarray  # (n, p)
    y: np.ndarray  # (n,)
    domain: np.ndarray  # (n,) indices into ids
    ids: list[str]
    meta: np.ndarray  # (n_domains, meta_dim)
    split: dict[str, str]
    task: str
    edges: list[tuple[str, str]] | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.domain = np.asarray(self.domain, dtype=np.int64)
        self.meta = np.asarray(self.meta, dtype=np.float64)
        if self.x.ndim != 2 or self.meta.ndim != 2:
            raise DataError("x and meta must be matrices, one row per example or domain")
        n = self.x.shape[0]
        if self.y.shape != (n,) or self.domain.shape != (n,):
            raise DataError("x, y, and domain must have matching lengths")
        if self.meta.shape[0] != len(self.ids):
            raise DataError("need exactly one meta-data row per domain id")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate domain id")
        if self.domain.size and (self.domain.min() < 0 or self.domain.max() >= len(self.ids)):
            raise DataError("domain index out of range")
        for name, values, owner in (
            ("feature", self.x, self.domain),
            ("target", self.y, self.domain),
            ("meta-data", self.meta, np.arange(len(self.ids))),
        ):
            finite = np.isfinite(values)
            if not finite.all():
                row = np.argwhere(~finite)[0][0]
                raise DataError(f"non-finite {name} value (NaN or inf) in domain {self.ids[owner[row]]!r}")
        for d in self.ids:
            if d not in self.split:
                raise DataError(f"domain {d!r} has no split assignment")
            if self.split[d] not in SPLITS:
                raise DataError(f"bad split {self.split[d]!r} for domain {d!r}")
        if self.task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
            raise DataError(f"unknown task kind {self.task!r}")
        if self.task == TASK_CLASSIFICATION and self.y.size:
            if not np.all(self.y == np.round(self.y)) or self.y.min() < 0:
                raise DataError("classification labels must be nonnegative integers")
            if self.y.max() >= MAX_CLASSES:
                raise DataError(
                    f"classification label {self.y.max():g} is not below {MAX_CLASSES}, "
                    "the most classes a model can have; numeric targets need the regression task"
                )
        counts = np.bincount(self.domain, minlength=len(self.ids))
        if (counts < 1).any():
            empty = self.ids[int(np.argmin(counts))]
            raise DataError(f"domain {empty!r} has no examples")
        # built once; an edge naming an unknown domain raises DataError here
        self._adjacency = None if self.edges is None else adjacency_matrix(self.ids, self.edges)

    # -- views -----------------------------------------------------------

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def meta_dim(self) -> int:
        return self.meta.shape[1]

    @property
    def n_classes(self) -> int:
        if self.task != TASK_CLASSIFICATION:
            raise DataError("n_classes is only defined for classification")
        return int(self.y.max()) + 1

    def ids_for_split(self, split: str) -> list[str]:
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        return [d for d in self.ids if self.split[d] == split]

    def _index(self, domain_id: str) -> int:
        try:
            return self.ids.index(domain_id)
        except ValueError:
            raise DataError(f"unknown domain id {domain_id!r}") from None

    def domain_arrays(self, domain_id: str) -> tuple[np.ndarray, np.ndarray]:
        mask = self.domain == self._index(domain_id)
        return self.x[mask], self.y[mask]

    def arrays_for(self, ids: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Examples of the given domains; third array holds positions in ids."""
        pos = {self._index(d): k for k, d in enumerate(ids)}
        mask = np.isin(self.domain, list(pos))
        dom = np.array([pos[int(d)] for d in self.domain[mask]], dtype=np.int64)
        return self.x[mask], self.y[mask], dom

    def meta_for(self, ids: list[str]) -> np.ndarray:
        return self.meta[[self._index(d) for d in ids]]

    def counts(self, ids: list[str]) -> dict[str, int]:
        c = np.bincount(self.domain, minlength=len(self.ids))
        return {d: int(c[self._index(d)]) for d in ids}

    def fixed_between(self, ids_a: list[str], ids_b: list[str]) -> np.ndarray:
        """Fixed relations between two id lists: adjacency, else angle_between of the meta-data."""
        if self._adjacency is not None:
            ia = [self._index(d) for d in ids_a]
            ib = [self._index(d) for d in ids_b]
            return self._adjacency[np.ix_(ia, ib)]
        return angle_between(self.meta_for(ids_a), self.meta_for(ids_b))


# -- synthetic benchmarks -----------------------------------------------------


def gen_dg15(seed: int, n_per_class: int = 50) -> DomainDataset:
    """Rotating two-Gaussian classification benchmark over 15 domains.

    Each domain has a key point on a circle of radius 3; positives are unit
    Gaussians around the key point, negatives around its reflection. The
    domain meta-data is the key point's full-quadrant angle. Domains are
    split 5/5/5 by the interleaved pattern over angle-sorted order.

    Key angles are stratified: the circle is cut into 15 equal sectors, one
    angle is drawn per sector (uniform over the sector's central half), and
    a random global rotation is applied. Each angle is therefore marginally
    uniform on the circle, while consecutive angle gaps stay near 24 degrees.
    Combined with the interleaved split this guarantees, for every seed, that
    each test domain sits between two nearby training domains except one far
    test domain with no close training neighbor.
    """
    if n_per_class < 1:
        raise ConfigError("n_per_class must be positive")
    # a size whose x, y and domain labels cannot be allocated fails here, before any draw
    allocate(n_per_class, "n_per_class", 2 * DG15_N_DOMAINS, 4)
    rng = substream(seed, "dg15", "angles")
    sector = 2.0 * np.pi / DG15_N_DOMAINS
    jitter = rng.uniform(0.4, 0.6, DG15_N_DOMAINS)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    raw = (np.arange(DG15_N_DOMAINS) + jitter) * sector + phase
    angles = (raw + np.pi) % (2.0 * np.pi) - np.pi
    ids = [f"d{k:02d}" for k in range(DG15_N_DOMAINS)]
    xs, ys, doms = [], [], []
    for d in range(DG15_N_DOMAINS):
        key = DG15_RADIUS * np.array([np.cos(angles[d]), np.sin(angles[d])])
        rng = substream(seed, "dg15", "data", d)
        pos = rng.normal(size=(n_per_class, 2)) + key
        neg = rng.normal(size=(n_per_class, 2)) - key
        xs.append(np.vstack([pos, neg]))
        ys.append(np.concatenate([np.ones(n_per_class), np.zeros(n_per_class)]))
        doms.append(np.full(2 * n_per_class, d))
    split = {}
    for rank, d in enumerate(np.argsort(angles)):
        split[ids[int(d)]] = _PATTERN_SPLIT[DG15_SPLIT_PATTERN[rank]]
    return DomainDataset(
        x=np.vstack(xs),
        y=np.concatenate(ys),
        domain=np.concatenate(doms),
        ids=ids,
        meta=angles[:, None],
        split=split,
        task=TASK_CLASSIFICATION,
    )


def spatial_coefficients(meta_row) -> tuple[np.ndarray, float]:
    """True regression coefficients (w, b) for a grid cell at (row, col).

    Linear in the cell coordinates, so nearby cells have nearby functions.
    """
    r, c = float(meta_row[0]), float(meta_row[1])
    w = np.array([0.5 + 0.3 * r, -0.5 - 0.25 * c])
    b = 0.8 * r - 0.5 * c
    return w, b


def gen_spatial_regression(
    seed: int,
    n_rows: int = 4,
    n_cols: int = 4,
    n_per_domain: int = 40,
    noise: float = 0.1,
) -> DomainDataset:
    """Grid-of-cells regression benchmark with adjacency relations.

    Each grid cell is a domain whose linear regression function drifts
    smoothly with the cell coordinates. The contiguous top half of the rows
    is the training split; remaining cells alternate valid/test. Fixed
    relations come from the 4-neighborhood adjacency.
    """
    if n_rows < 3 or n_cols < 3:
        raise ConfigError("grid must be at least 3x3")
    if n_per_domain < 1:
        raise ConfigError("n_per_domain must be positive")
    if not 0.0 <= noise < math.inf:  # False for NaN too
        raise ConfigError("noise must be finite and nonnegative")
    # a size whose x, y and domain labels cannot be allocated fails here, before the cell loop
    allocate(n_rows * n_cols * n_per_domain, "n_rows * n_cols * n_per_domain", 4)
    ids, metas, xs, ys, doms = [], [], [], [], []
    split: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    k = 0
    held_out = 0
    for r in range(n_rows):
        for c in range(n_cols):
            did = f"r{r}c{c}"
            ids.append(did)
            metas.append([float(r), float(c)])
            w, b = spatial_coefficients((r, c))
            rng = substream(seed, "spatial", "data", did)
            x = rng.normal(size=(n_per_domain, 2))
            y = x @ w + b + noise * rng.normal(size=n_per_domain)
            xs.append(x)
            ys.append(y)
            doms.append(np.full(n_per_domain, k))
            if r < n_rows // 2:
                split[did] = "train"
            else:
                split[did] = "valid" if held_out % 2 == 0 else "test"
                held_out += 1
            if c + 1 < n_cols:
                edges.append((did, f"r{r}c{c + 1}"))
            if r + 1 < n_rows:
                edges.append((did, f"r{r + 1}c{c}"))
            k += 1
    return DomainDataset(
        x=np.vstack(xs),
        y=np.concatenate(ys),
        domain=np.concatenate(doms),
        ids=ids,
        meta=np.array(metas),
        split=split,
        task=TASK_REGRESSION,
        edges=edges,
    )


# -- file round-trip -----------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def save_dataset(ds: DomainDataset, out_dir: str) -> dict[str, str]:
    """Write data/meta/splits (and adjacency, if any) under out_dir, data.csv one row at a
    time; an adjacency.txt already there is deleted when ds has no edges."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "data": os.path.join(out_dir, "data.csv"),
        "meta": os.path.join(out_dir, "meta.csv"),
        "splits": os.path.join(out_dir, "splits.csv"),
    }
    write_csv(paths["data"], _data_rows(ds))
    meta = [["domain_id"] + [f"m_{j + 1}" for j in range(ds.meta_dim)]]
    meta += [[did] + [_fmt(v) for v in ds.meta[k]] for k, did in enumerate(ds.ids)]
    write_csv(paths["meta"], meta)
    write_csv(paths["splits"], [["domain_id", "split"]] + [[did, ds.split[did]] for did in ds.ids])
    adjacency = os.path.join(out_dir, "adjacency.txt")
    if ds.edges is None:  # left by an earlier dataset, its edges would be read as this one's
        with suppress(FileNotFoundError):
            os.remove(adjacency)
    else:
        paths["adjacency"] = adjacency
        atomic_write_text(adjacency, "".join(f"{i} {j}\n" for i, j in ds.edges))
    return paths


def _data_rows(ds: DomainDataset):
    """The rows of data.csv, the header first. The arrays become Python numbers 256 rows at
    a time: tolist is faster than a float() per value and holds a bounded copy."""
    yield ["domain_id", "y"] + [f"x_{j + 1}" for j in range(ds.n_features)]
    label = (lambda v: str(int(v))) if ds.task == TASK_CLASSIFICATION else _fmt
    for lo in range(0, ds.y.size, 256):
        part = slice(lo, lo + 256)
        for d, v, row in zip(ds.domain[part].tolist(), ds.y[part].tolist(), ds.x[part].tolist()):
            yield [ds.ids[d], label(v)] + [_fmt(u) for u in row]


def load_meta_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read a meta-data table: header domain_id,m_1,... and one row of finite values per domain."""
    rows = csv_rows(path)
    header = next(rows, None)
    if header is None or header[:1] != ["domain_id"] or len(header) < 2:
        raise DataError(f"{path}: expected header domain_id,m_1,...")
    mwidth = len(header)
    ids: list[str] = []
    vals: list[list[float]] = []
    for line, row in enumerate(rows, start=2):
        if len(row) != mwidth:
            raise DataError(f"{path}: line {line}: expected {mwidth} fields, got {len(row)}")
        if row[0] in ids:
            raise DataError(f"{path}: line {line}: duplicate domain id {row[0]!r}")
        ids.append(row[0])
        vals.append(parse_floats(row[1:], path, line))
        if not np.isfinite(vals[-1]).all():  # the message DomainDataset gives
            raise DataError(f"non-finite meta-data value (NaN or inf) in domain {row[0]!r}")
    if not ids:
        raise DataError(f"{path}: no meta-data rows")
    return ids, np.array(vals)


def load_adjacency(path: str, known_ids) -> list[tuple[str, str]]:
    """Read an edge list, one 'id_i id_j' pair of known_ids per line; blank lines skipped."""
    edges: list[tuple[str, str]] = []
    known = set(known_ids)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise DataError(f"{path}: line {line_no}: expected 'id_i id_j'")
        for p in parts:
            if p not in known:
                raise DataError(f"{path}: line {line_no}: unknown domain id {p!r}")
        edges.append((parts[0], parts[1]))
    return edges


def load_dataset_dir(path: str, task: str = "auto") -> DomainDataset:
    """Load a dataset from a directory laid out the way save_dataset writes it.

    data.csv, meta.csv and splits.csv are read and checked eagerly, and
    adjacency.txt if it exists. task may be "classification", "regression",
    or "auto" (classification iff every label is a nonnegative integer).
    """
    data_path, meta_path, split_path, adjacency_path = (
        os.path.join(path, f) for f in ("data.csv", "meta.csv", "splits.csv", "adjacency.txt"))
    rows = csv_rows(data_path)
    header = next(rows, None)
    if header is None or len(header) < 3 or header[:2] != ["domain_id", "y"]:
        raise DataError(f"{data_path}: expected header domain_id,y,x_1,...")
    width = len(header)
    ids: list[str] = []
    seen: dict[str, int] = {}
    # typed buffers, each handed to numpy as it is
    dom, ys, xs = array("q"), array("d"), array("d")
    for line, row in enumerate(rows, start=2):
        if len(row) != width:
            raise DataError(f"{data_path}: line {line}: expected {width} fields, got {len(row)}")
        did = row[0]
        if did not in seen:
            seen[did] = len(ids)
            ids.append(did)
        vals = parse_floats(row[1:], data_path, line)
        dom.append(seen[did])
        ys.append(vals[0])
        xs.extend(vals[1:])
    if not ids:
        raise DataError(f"{data_path}: no data rows")

    meta_ids, meta_vals = load_meta_csv(meta_path)
    meta_by_id = {d: meta_vals[i] for i, d in enumerate(meta_ids)}
    for did in ids:
        if did not in meta_by_id:
            raise DataError(f"no meta-data row for domain {did!r}")

    rows = csv_rows(split_path)
    if next(rows, None) != ["domain_id", "split"]:
        raise DataError(f"{split_path}: expected header domain_id,split")
    split: dict[str, str] = {}
    for line, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise DataError(f"{split_path}: line {line}: expected 2 fields")
        did, s = row
        if s not in SPLITS:
            raise DataError(f"{split_path}: line {line}: bad split {s!r}")
        if did in split:
            raise DataError(f"domain {did!r} assigned to both {split[did]!r} and {s!r}")
        split[did] = s

    edges = load_adjacency(adjacency_path, ids) if os.path.exists(adjacency_path) else None

    y = np.frombuffer(ys)
    if task == "auto":
        integral = np.all(y == np.round(y)) and y.size > 0 and y.min() >= 0
        task = TASK_CLASSIFICATION if integral else TASK_REGRESSION
    return DomainDataset(
        x=np.frombuffer(xs).reshape(len(ys), width - 2),
        y=y,
        domain=np.frombuffer(dom, dtype=np.int64),
        ids=ids,
        meta=np.array([meta_by_id[d] for d in ids]),
        split={d: split[d] for d in ids if d in split},  # a missing one fails __post_init__
        task=task,
        edges=edges,
    )

