"""Reference code that only the test suite runs: a central finite-difference
gradient checker, which every hand-derived gradient is held against, a
per-domain scorer, which the batched scorer is held against, the averaging
oracle on two whole draws, which the streamed one is held against, one
latent world drawn with uniform() and normal(), which the block world
builder is held against, and a reader for the relation CSV that `relgen export-relations` writes."""

import numpy as np

from relgen.errors import ConfigError, DataError
from relgen.fileio import parse_floats, read_csv
from relgen.model import _metric, _report, split_ids
from relgen.rng import substream


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


def evaluate_per_domain(predict, dataset, split: str):
    """The split's report (see model._report), one domain at a time: predict(domain_id, x)
    gives a domain's labels or values, and _metric scores them against its targets."""
    values = []
    for d in split_ids(dataset, split):
        x, y = dataset.domain_arrays(d)
        values.append(_metric(np.asarray(predict(d, x)), y, dataset.task))
    return _report(dataset, split, np.array(values))


def averaging_oracle(n_mc: int, seed: int = 0) -> tuple[float, float]:
    """theory.averaging_oracle on whole draws: d and e of n_mc values each, then std()."""
    if n_mc < 2:
        raise ConfigError("n_mc must be at least 2")
    rng = substream(seed, "averaging-oracle")
    d = rng.uniform(0.0, 1.0, size=n_mc)
    e = rng.normal(size=n_mc)
    # (d - 0.5) ** 2 * e ** 2, in place
    d -= 0.5
    np.square(d, out=d)
    vals = np.multiply(d, np.square(e, out=e), out=d)
    del d, e  # so std() below can reuse their memory for its (n_mc,) temporary
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_mc))
    return est, stderr


def latent_world(n_domains, r, lipschitz, n_per_domain, noise, seed):
    """(z_train, z_test, anchor, slopes, slope_test, x, y) of seed's world, one draw per array."""
    rng, data_rng = substream(seed, "world", "latent"), substream(seed, "world", "data")
    z_train = rng.uniform(0.0, 1.0, size=(n_domains, r))
    z_test = rng.uniform(0.0, 1.0, size=r)
    anchor = rng.uniform(0.0, 1.0, size=r)
    slopes = lipschitz * np.linalg.norm(z_train - anchor, axis=-1)
    slope_test = float(lipschitz * np.linalg.norm(z_test - anchor, axis=-1))
    x = data_rng.uniform(-1.0, 1.0, size=(n_domains, n_per_domain))
    y = slopes[:, None] * x + noise * data_rng.normal(size=(n_domains, n_per_domain))
    return z_train, z_test, anchor, slopes, slope_test, x, y


def load_relation_csv(path: str) -> tuple[list[str], np.ndarray]:
    """(domain ids, matrix) of a relation CSV; a DataError names a malformed file."""
    rows = read_csv(path)
    if not rows or rows[0][:1] != ["domain_id"]:
        raise DataError(f"{path}: expected a domain_id header row")
    ids = rows[0][1:]
    matrix = np.zeros((len(ids), len(ids)))
    if len(rows) - 1 != len(ids):
        raise DataError(f"{path}: expected {len(ids)} matrix rows")
    for i, row in enumerate(rows[1:]):
        if len(row) != len(ids) + 1 or row[0] != ids[i]:
            raise DataError(f"{path}: malformed matrix row {i + 2}")
        matrix[i] = parse_floats(row[1:], path, i + 2)
    return ids, matrix
