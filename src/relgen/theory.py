"""Simulation checks for the generalization-bound story.

The synthetic world places each domain at a latent point Z in the unit
cube; the true per-domain predictor is linear through the origin with slope
proportional to the distance from Z to a hidden anchor, which makes the
slope map 1-Lipschitz in Z (up to the chosen constant). An estimator that
averages the fitted heads of all domains within latent distance B of the
test domain should then see its excess risk shrink as domains get denser,
at the bandwidth schedule B ~ (n * N)^(-1/(r+2)). The module also carries
the closed-form sanity oracle for plain head averaging, whose population
excess risk is exactly 1/12 in the reference construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .fileio import write_csv
from .rng import substream

C0_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class LatentWorld:
    """Sampled domains with latent positions, true slopes, and local data."""

    z_train: np.ndarray  # (N, r)
    z_test: np.ndarray  # (r,)
    anchor: np.ndarray  # (r,)
    lipschitz: float
    noise: float
    slopes: np.ndarray  # (N,) true per-domain slopes
    slope_test: float
    x: np.ndarray  # (N, n) inputs per training domain
    y: np.ndarray  # (N, n) noisy targets

    def distances_to_test(self) -> np.ndarray:
        return np.linalg.norm(self.z_train - self.z_test, axis=1)


def _slope(z: np.ndarray, anchor: np.ndarray, lipschitz: float) -> np.ndarray:
    # distance-to-anchor is 1-Lipschitz in z, so slopes are G-Lipschitz
    return lipschitz * np.linalg.norm(z - anchor, axis=-1)


def sample_world(
    n_domains: int,
    r: int,
    lipschitz: float,
    n_per_domain: int,
    noise: float,
    seed: int,
) -> LatentWorld:
    """Draw latent positions uniformly in [0, 1]^r and per-domain data.

    Inputs are uniform on [-1, 1] so the sup-norm gap between two domains'
    predictors is exactly |slope_i - slope_j| <= lipschitz * |Z_i - Z_j|.
    With lipschitz == 0 every domain shares the same (zero) predictor.
    """
    if n_domains < 1 or r < 1 or n_per_domain < 2:
        raise ConfigError("need n_domains >= 1, r >= 1, n_per_domain >= 2")
    if not (0.0 <= lipschitz < np.inf and 0.0 <= noise < np.inf):
        raise ConfigError("lipschitz and noise must be finite and nonnegative")
    rng = substream(seed, "world", "latent")
    z_train = rng.uniform(0.0, 1.0, size=(n_domains, r))
    z_test = rng.uniform(0.0, 1.0, size=r)
    anchor = rng.uniform(0.0, 1.0, size=r)
    slopes = _slope(z_train, anchor, lipschitz)
    slope_test = float(_slope(z_test, anchor, lipschitz))
    data_rng = substream(seed, "world", "data")
    x = data_rng.uniform(-1.0, 1.0, size=(n_domains, n_per_domain))
    y = slopes[:, None] * x + noise * data_rng.normal(size=(n_domains, n_per_domain))
    return LatentWorld(z_train, z_test, anchor, lipschitz, noise, slopes, slope_test, x, y)


def fit_heads(world: LatentWorld) -> np.ndarray:
    """Per-domain least-squares slope through the origin."""
    sxx = (world.x * world.x).sum(axis=1)
    if (sxx == 0.0).any():
        raise NumericalError("singular design: a domain has all-zero inputs")
    return (world.x * world.y).sum(axis=1) / sxx


def threshold_predict(slopes_hat: np.ndarray, dists: np.ndarray, bandwidth: float) -> float:
    """Average the fitted slopes of domains with latent distance < bandwidth.

    No domain within the bandwidth means no usable information; the
    estimator returns 0 in that case (the zero predictor).
    """
    if bandwidth < 0:
        raise ConfigError("bandwidth must be nonnegative")
    mask = dists < bandwidth
    if not mask.any():
        return 0.0
    return float(slopes_hat[mask].mean())


def _eval_draws(seed: int, noise: float, x: np.ndarray, eps: np.ndarray) -> None:
    """Fill x with U[-1, 1) inputs and eps with noise * N(0, 1) from seed's excess-risk stream.

    Bit-identical to uniform(-1, 1) and noise * normal() on the same stream.
    """
    rng = substream(seed, "excess-risk")
    rng.random(out=x)
    x *= 2.0
    x -= 1.0
    rng.standard_normal(out=eps)
    eps *= noise


def excess_risk(predictor, world: LatentWorld, n_eval: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo excess absolute-error risk on the test domain.

    predictor is a slope (float) or a callable x -> prediction. The same
    draws evaluate the candidate and the true head, so the difference's
    standard error is small; estimates can dip slightly below zero within
    Monte Carlo noise. Returns (estimate, stderr).

    The sweep runs _threshold_risks instead; this stays the reference whose
    estimate it reproduces bit for bit.
    """
    if n_eval < 2:
        raise ConfigError("n_eval must be at least 2")
    x, eps = np.empty(n_eval), np.empty(n_eval)
    _eval_draws(seed, world.noise, x, eps)
    signal = world.slope_test * x
    yhat = predictor(x) if callable(predictor) else float(predictor) * x
    # subtract the signal before the noise so the true head cancels exactly
    diff = np.abs(yhat - signal - eps) - np.abs(eps)
    est = float(diff.mean())
    stderr = float(diff.std(ddof=1) / np.sqrt(n_eval))
    return est, stderr


def bandwidth_schedule(c0: float, n_per_domain: int, n_domains: int, r: int) -> float:
    """B = c0 * (n * N)^(-1/(r+2)), the rate the bound is minimized at.

    Domain counts are checked by scaling_experiment, before calibrating; n
    and r are checked here because the sweep computes B before sample_world
    would reject them.
    """
    if n_per_domain <= 0 or r < 1:
        raise ConfigError(f"need n > 0 and r >= 1, got n={n_per_domain}, r={r}")
    return float(c0) * float(n_per_domain * n_domains) ** (-1.0 / (r + 2))


def _empty(n: int, name: str, *rest: int) -> np.ndarray:
    """An uninitialised float64 buffer of shape (n, *rest).

    A size numpy cannot allocate (a MemoryError, or a ValueError for a size
    past its index range) is a ConfigError naming the parameter of n.
    """
    try:
        return np.empty((n, *rest))
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{name} = {n} cannot be allocated ({exc})") from None


def _threshold_risks(world_args: tuple, bandwidths, seeds, n_eval: int) -> np.ndarray:
    """(seeds, bandwidths) excess risks of the threshold estimator: each seed's world, scored
    at every bandwidth on the draws of seed + 1.

    Each entry equals excess_risk(...)[0] bit for bit: the same ops in the
    same order, run in place. A seed's world, fits and draws are made once
    for all bandwidths; the draws, the signal, |eps| and the difference each
    have a buffer shared by all seeds.
    """
    if n_eval < 2:
        raise ConfigError("n_eval must be at least 2")
    x, eps, signal, abs_eps, diff = (_empty(n_eval, "n_eval") for _ in range(5))
    risks = np.empty((len(seeds), len(bandwidths)))
    for i, seed in enumerate(seeds):
        world = sample_world(*world_args, seed=seed)
        slopes_hat, dists = fit_heads(world), world.distances_to_test()
        _eval_draws(seed + 1, world.noise, x, eps)
        np.multiply(x, world.slope_test, out=signal)
        np.abs(eps, out=abs_eps)
        for j, bandwidth in enumerate(bandwidths):
            np.multiply(x, threshold_predict(slopes_hat, dists, bandwidth), out=diff)  # yhat
            diff -= signal
            diff -= eps
            np.abs(diff, out=diff)
            diff -= abs_eps
            risks[i, j] = diff.mean()
    return risks


def calibrate_bandwidth(
    r: int,
    n_per_domain: int,
    noise: float,
    lipschitz: float,
    n_domains: int,
    seed: int,
    grid=C0_GRID,
    n_inner: int = 5,
    n_eval: int = 4000,
) -> float:
    """Pick the schedule constant c0 on held-out seeds, once.

    Runs a small sweep at a single domain count and returns the c0 with the
    lowest mean excess risk. Callers pass a seed disjoint from the seeds of
    the experiment proper. Raises ConfigError if no grid value gives a
    finite mean excess risk (an empty grid included).
    """
    best_c0, best_val = None, np.inf
    world_args = (n_domains, r, lipschitz, n_per_domain, noise)
    seeds = [seed * 1000 + 7 * s + 1 for s in range(n_inner)]
    bandwidths = [bandwidth_schedule(c0, n_per_domain, n_domains, r) for c0 in grid]
    risks = _threshold_risks(world_args, bandwidths, seeds, n_eval)
    for c0, column in zip(grid, risks.T):
        mean = float(np.mean(column))
        if mean < best_val:
            best_c0, best_val = float(c0), mean
    if best_c0 is None:
        raise ConfigError(f"no c0 in {tuple(grid)} gave a finite mean excess risk")
    return best_c0


def scaling_experiment(
    domain_grid,
    n_seeds: int,
    r: int,
    n_per_domain: int,
    noise: float,
    lipschitz: float,
    n_eval: int = 10_000,
    seed: int = 0,
    c0: float | None = None,
) -> list[dict]:
    """Mean excess risk of the threshold estimator across domain counts.

    Each (domain count, seed) cell is an independent world. The bandwidth
    follows bandwidth_schedule; c0 is calibrated once on a held-out seed
    when not supplied. Returns one row dict per domain count.
    """
    domain_grid = [int(v) for v in domain_grid]
    if not domain_grid or n_seeds < 2:
        raise ConfigError("need a domain grid and at least two seeds")
    if min(domain_grid) < 1:
        raise ConfigError(f"domain counts must be at least 1, got {domain_grid}")
    if c0 is not None and not 0.0 < c0 < np.inf:
        raise ConfigError(f"c0 must be finite and positive, got {c0}")
    # sizes too large to allocate fail here, before any work (n <= 0 fails in bandwidth_schedule)
    _empty(n_seeds, "n_seeds"), _empty(max(n_per_domain, 0), "n_per_domain", max(domain_grid))
    if c0 is None:
        mid = domain_grid[len(domain_grid) // 2]
        c0 = calibrate_bandwidth(r, n_per_domain, noise, lipschitz, mid, seed=seed + 999_331)
    rows = []
    for n_domains in domain_grid:
        b = bandwidth_schedule(c0, n_per_domain, n_domains, r)
        world_args = (n_domains, r, lipschitz, n_per_domain, noise)
        first = seed + 10_000 * n_domains  # cell s draws its world from seed first + s
        vals = _threshold_risks(world_args, [b], range(first, first + n_seeds), n_eval)[:, 0]
        rows.append(
            {
                "N_tr": n_domains,
                "r": r,
                "n": n_per_domain,
                "B": b,
                "mean_excess_risk": float(vals.mean()),
                "stderr": float(vals.std(ddof=1) / np.sqrt(n_seeds)),
                "seeds": n_seeds,
            }
        )
    return rows


SWEEP_COLUMNS = ["N_tr", "r", "n", "B", "mean_excess_risk", "stderr", "seeds"]


def save_sweep_csv(path: str, rows: list[dict]) -> None:
    write_csv(path, [SWEEP_COLUMNS] + [[row[k] for k in SWEEP_COLUMNS] for row in rows])


ORACLE_BLOCK = 1 << 16  # averaging_oracle draws e in blocks of this many samples


def averaging_oracle(n_mc: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the population risk of plain head averaging.

    Construction: domain parameter d ~ U[0, 1], feature e ~ N(0, 1), true
    response d * e. Averaging the per-domain predictors yields e / 2, whose
    squared-error risk is E[(d - 1/2)^2 e^2] = 1/12 exactly. Returns
    (estimate, stderr).

    Holds one float64 per sample plus one block of ORACLE_BLOCK: d is drawn
    into the buffer that becomes the values, then e from the same stream one
    block at a time, each block the matching slice of a single n_mc draw.
    The stderr runs the ops of std(ddof=1) in place, so every bit is that
    of the two whole draws and vals.std(ddof=1).
    """
    if n_mc < 2:
        raise ConfigError("n_mc must be at least 2")
    rng = substream(seed, "averaging-oracle")
    vals = _empty(n_mc, "n_mc")
    rng.random(out=vals)  # d, the bits of uniform(0.0, 1.0)
    # (d - 0.5) ** 2 * e ** 2, in place
    vals -= 0.5
    np.square(vals, out=vals)
    block = np.empty(min(n_mc, ORACLE_BLOCK))
    for start in range(0, n_mc, ORACLE_BLOCK):
        part = vals[start:start + ORACLE_BLOCK]
        e = block[: len(part)]
        rng.standard_normal(out=e)  # the bits of normal() for e ** 2
        part *= np.square(e, out=e)
    # std(ddof=1): a keepdims sum divided by n, subtract, square, sum, / (n - 1), sqrt
    mean = np.add.reduce(vals, axis=None, keepdims=True)
    np.true_divide(mean, n_mc, out=mean)
    est = float(mean[0])  # vals.mean()
    vals -= mean
    np.square(vals, out=vals)
    std = np.sqrt(np.add.reduce(vals, axis=None) / (n_mc - 1))
    return est, float(std / np.sqrt(n_mc))


AVERAGING_ORACLE_TARGET = 1.0 / 12.0
