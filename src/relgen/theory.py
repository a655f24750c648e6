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

from .errors import ConfigError, NumericalError, allocate
from .fileio import write_csv
from .rng import substream, substreams

# calibrate_bandwidth's search: the c0 values, held-out seeds and evaluation draws per seed
C0_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
C0_SEEDS = 5
C0_N_EVAL = 4_000
BLOCK_BYTES = 1 << 18  # bytes of one block: the sweep's worlds, or the oracle's d and e leaves


@dataclass
class LatentWorld:
    """A block of sampled worlds, one row per world: latent positions, test slopes, data."""

    z_train: np.ndarray  # (W, N, r)
    z_test: np.ndarray  # (W, r)
    slope_test: np.ndarray  # (W,) true slopes of the test domains
    x: np.ndarray  # (W, N, n) inputs per training domain
    y: np.ndarray  # (W, N, n) noisy targets

    def distances_to_test(self) -> np.ndarray:
        return np.linalg.norm(self.z_train - self.z_test[:, None], axis=-1)


def sample_world(
    n_domains: int,
    r: int,
    lipschitz: float,
    n_per_domain: int,
    noise: float,
    rngs,
    n_worlds: int,
) -> LatentWorld:
    """Draw a block of n_worlds worlds: latent positions uniformly in [0, 1]^r
    and per-domain data.

    Inputs are uniform on [-1, 1] so the sup-norm gap between two domains'
    predictors is exactly |slope_i - slope_j| <= lipschitz * |Z_i - Z_j|.
    With lipschitz == 0 every domain shares the same (zero) predictor.

    rngs is an iterator of (latent, data) generator pairs, a seed's
    ("world", "latent") and ("world", "data") streams (the sweep passes the
    re-keyed ones of rng.substreams); world i draws from the i-th pair. A
    world's latent row (z_train, z_test and the hidden anchor the slopes
    are measured from: N * r + 2 * r doubles) is one random() draw, and its
    data are random() then standard_normal() into its rows of the
    (n_worlds, N, n) buffers: the bits of uniform(0, 1), uniform(-1, 1) and
    normal() on the same streams (normal() adds 0.0, which would turn a
    standard_normal() of -0.0 into 0.0).
    """
    if n_domains < 1 or r < 1 or n_per_domain < 2:
        raise ConfigError("need n_domains >= 1, r >= 1, n_per_domain >= 2")
    if not (0.0 <= lipschitz < np.inf and 0.0 <= noise < np.inf):
        raise ConfigError("lipschitz and noise must be finite and nonnegative")
    latent = np.empty((n_worlds, (n_domains + 2) * r))
    x = np.empty((n_worlds, n_domains, n_per_domain))
    y = np.empty_like(x)
    # latent comes first, so zip takes no pair from rngs past the last world
    for row, (latent_rng, data_rng), x_i, y_i in zip(latent, rngs, x, y):
        latent_rng.random(out=row)
        data_rng.random(out=x_i)
        data_rng.standard_normal(out=y_i)
    z_train = latent[:, : n_domains * r].reshape(n_worlds, n_domains, r)
    z_test, anchor = latent[:, -2 * r : -r], latent[:, -r:]
    x *= 2.0
    x -= 1.0
    # distance-to-anchor is 1-Lipschitz in z, so slopes are G-Lipschitz
    slopes = lipschitz * np.linalg.norm(z_train - anchor[:, None], axis=-1)
    slope_test = lipschitz * np.linalg.norm(z_test - anchor, axis=-1)
    y *= noise
    y += slopes[..., None] * x  # slopes * x + noise * normal(): a sum rounds alike either way
    return LatentWorld(z_train, z_test, slope_test, x, y)


def fit_heads(world: LatentWorld) -> np.ndarray:
    """Per-domain least-squares slope through the origin."""
    sxx = (world.x * world.x).sum(axis=-1)
    if (sxx == 0.0).any():
        raise NumericalError("singular design: a domain has all-zero inputs")
    return (world.x * world.y).sum(axis=-1) / sxx


def threshold_predict(slopes_hat: np.ndarray, dists: np.ndarray, bandwidth: float) -> float:
    """Average the fitted slopes of domains with latent distance < bandwidth.

    No domain within the bandwidth means no usable information; the
    estimator returns 0 in that case (the zero predictor). The average is
    the near slopes' sum over their count, the bits of their .mean(). A
    negative or NaN bandwidth is a ConfigError.
    """
    if not bandwidth >= 0:
        raise ConfigError(f"bandwidth must be nonnegative, got {bandwidth}")
    near = slopes_hat.compress(dists < bandwidth)
    return float(np.add.reduce(near) / near.size) if near.size else 0.0


def _eval_draws(rng: np.random.Generator, noise: float, x: np.ndarray, eps: np.ndarray) -> None:
    """Fill x with U[-1, 1) inputs and eps with noise * N(0, 1) from rng, a seed's
    excess-risk stream.

    Bit-identical to uniform(-1, 1) and noise * normal() on the same stream.
    """
    rng.random(out=x)
    x *= 2.0
    x -= 1.0
    rng.standard_normal(out=eps)
    eps *= noise


def excess_risk(slope: float, slope_test: float, noise: float, n_eval: int,
                seed: int = 0) -> tuple[float, float]:
    """Monte Carlo excess absolute-error risk of x -> slope * x on a test domain whose
    true slope is slope_test and whose targets carry noise * N(0, 1).

    The same draws evaluate the candidate and the true head, so the difference's
    standard error is small; estimates can dip slightly below zero within
    Monte Carlo noise. Returns (estimate, stderr).

    The sweep runs _threshold_risks instead; this stays the reference whose
    estimate it reproduces bit for bit.
    """
    if n_eval < 2:
        raise ConfigError("n_eval must be at least 2")
    x, eps = np.empty(n_eval), np.empty(n_eval)
    _eval_draws(substream(seed, "excess-risk"), noise, x, eps)
    signal = slope_test * x
    yhat = float(slope) * x
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


def world_bytes(n_domains: int, r: int, n_per_domain: int) -> int:
    """Bytes of one world in a sample_world block: its latent row, inputs and targets."""
    return 8 * ((n_domains + 2) * r + 2 * n_domains * n_per_domain)


def _fitted_block(world_args: tuple, rngs, n_worlds: int) -> tuple:
    """(test slopes, fitted slopes, distances to the test domain) of a block of n_worlds
    worlds; the block's latent and data buffers are freed on return."""
    world = sample_world(*world_args, rngs=rngs, n_worlds=n_worlds)
    return world.slope_test, fit_heads(world), world.distances_to_test()


def _threshold_risks(world_args: tuple, bandwidths, seeds, n_eval: int) -> np.ndarray:
    """(seeds, bandwidths) excess risks of the threshold estimator: each seed's world, scored
    at every bandwidth on the draws of seed + 1.

    Each entry equals excess_risk(...)[0] bit for bit: the same ops in the
    same order, run in place. The worlds are built a block at a time, as
    many seeds as fit in BLOCK_BYTES (world_bytes each; at least one), so
    slopes, fits and distances are array ops over the block. Only those
    are kept: the block's data are freed before its seeds are scored, so
    one block is held at a time. Each seed is then scored in turn, its
    fits and draws made once for all bandwidths; the draws, the signal,
    |eps| and the difference each have a buffer shared by all seeds. The
    three streams of a seed, its world's latent and data streams and the
    excess-risk stream of seed + 1, come from rng.substreams: one re-keyed
    generator per stream for all seeds, with the bits of the substream
    each would build. A non-finite risk (float64 overflow) raises
    NumericalError naming N_tr and the seed.
    """
    if n_eval < 2:
        raise ConfigError("n_eval must be at least 2")
    x, eps, signal, abs_eps, diff = (allocate(n_eval, "n_eval") for _ in range(5))
    risks = np.empty((len(seeds), len(bandwidths)))
    n_domains, r, lipschitz, n_per_domain, noise = world_args
    block = max(1, BLOCK_BYTES // world_bytes(n_domains, r, n_per_domain))
    worlds = zip(substreams(seeds, "world", "latent"), substreams(seeds, "world", "data"))
    evals = substreams((seed + 1 for seed in seeds), "excess-risk")
    for start in range(0, len(seeds), block):
        fitted = _fitted_block(world_args, worlds, min(block, len(seeds) - start))
        for i, (slope_test, slopes_hat, dists, eval_rng) in enumerate(zip(*fitted, evals), start):
            _eval_draws(eval_rng, noise, x, eps)
            np.multiply(x, slope_test, out=signal)
            np.abs(eps, out=abs_eps)
            for j, bandwidth in enumerate(bandwidths):
                np.multiply(x, threshold_predict(slopes_hat, dists, bandwidth), out=diff)  # yhat
                diff -= signal
                diff -= eps
                np.abs(diff, out=diff)
                diff -= abs_eps
                risks[i, j] = np.add.reduce(diff) / n_eval  # the bits of diff.mean()
    bad = np.argwhere(~np.isfinite(risks))
    if len(bad):
        i, j = bad[0]
        raise NumericalError(
            f"excess risk is {risks[i, j]} at N_tr = {n_domains}, seed {seeds[i]}, bandwidth "
            f"{bandwidths[j]}: float64 overflowed (lipschitz = {lipschitz}, noise = {noise})")
    return risks


def calibrate_bandwidth(
    r: int,
    n_per_domain: int,
    noise: float,
    lipschitz: float,
    n_domains: int,
    seed: int,
) -> float:
    """Pick the schedule constant c0 on held-out seeds, once.

    Runs a small sweep at a single domain count (C0_SEEDS worlds, C0_N_EVAL
    draws each) and returns the c0 of C0_GRID with the lowest mean excess
    risk. Callers pass a seed disjoint from the seeds of the experiment
    proper. Raises ConfigError if no grid value gives a finite mean excess
    risk; a non-finite risk of one held-out world is a NumericalError first.
    """
    best_c0, best_val = None, np.inf
    world_args = (n_domains, r, lipschitz, n_per_domain, noise)
    seeds = [seed * 1000 + 7 * s + 1 for s in range(C0_SEEDS)]
    bandwidths = [bandwidth_schedule(c0, n_per_domain, n_domains, r) for c0 in C0_GRID]
    risks = _threshold_risks(world_args, bandwidths, seeds, C0_N_EVAL)
    for c0, column in zip(C0_GRID, risks.T):
        mean = float(np.mean(column))
        if mean < best_val:
            best_c0, best_val = float(c0), mean
    if best_c0 is None:
        raise ConfigError(f"no c0 in {C0_GRID} gave a finite mean excess risk")
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
    # sizes too large to allocate fail here, before any work (n <= 0 and r < 1 fail in
    # bandwidth_schedule): the risks, and sample_world's (N, n) data and (N, r) latents
    allocate(n_seeds, "n_seeds"), allocate(max(n_per_domain, 0), "n_per_domain", max(domain_grid))
    allocate(max(r, 0), "r", max(domain_grid))
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


ORACLE_BLOCK = BLOCK_BYTES // 16  # samples per leaf of averaging_oracle: d and e fill a block


def _pairwise_total(n: int, block: int, leaf_sum) -> float:
    """np.add.reduce of n values, streamed along numpy's pairwise split tree.

    numpy sums n > 128 values as the sum of the first half and of the rest,
    half = n // 2 rounded down to a multiple of 8. This splits n the same
    way until each segment holds at most block values, calls leaf_sum(k)
    for each segment's length k in order, and adds its returns in tree
    order. When leaf_sum returns np.add.reduce of the segment's values, that
    is numpy's subtree for it (for any block >= 128), so the total has the
    bits of np.add.reduce of all n values.
    """
    if n <= block:
        return leaf_sum(n)
    half = n // 2
    half -= half % 8
    return _pairwise_total(half, block, leaf_sum) + _pairwise_total(n - half, block, leaf_sum)


def check_n_mc(n_mc: int) -> None:
    """ConfigError unless 2 <= n_mc <= 2**53, the largest count a float64 holds exactly
    (averaging_oracle divides both of its sums by it)."""
    if n_mc < 2:
        raise ConfigError("n_mc must be at least 2")
    if n_mc > 2**53:
        raise ConfigError(
            f"n_mc = {n_mc} is above 2**53, the largest count a float64 holds exactly")


def averaging_oracle(n_mc: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the population risk of plain head averaging.

    Construction: domain parameter d ~ U[0, 1], feature e ~ N(0, 1), true
    response d * e. Averaging the per-domain predictors yields e / 2, whose
    squared-error risk is E[(d - 1/2)^2 e^2] = 1/12 exactly. Returns
    (estimate, stderr).

    Holds two leaves of ORACLE_BLOCK doubles, BLOCK_BYTES, for any n_mc.
    The values (d - 0.5) ** 2 * e ** 2 are made a leaf of _pairwise_total
    at a time, d from the start of the seed's stream and e from a copy of
    it moved past the n_mc uniforms (Philox yields four 64-bit words per
    counter step, and random() takes one word per double), so each leaf's d
    and e are the matching slices of two whole draws. One pass sums the values
    for the mean; a second draws them again and sums their squared
    deviations from it. Every bit is that of the two whole draws and
    vals.mean(), vals.std(ddof=1). n_mc is checked by check_n_mc.
    """
    check_n_mc(n_mc)
    d_buf, e_buf = np.empty(min(n_mc, ORACLE_BLOCK)), np.empty(min(n_mc, ORACLE_BLOCK))

    def total(mean: float | None) -> float:
        """The values' sum, or with a mean, the sum of their squared deviations from it."""
        d_rng, e_rng = substream(seed, "averaging-oracle"), substream(seed, "averaging-oracle")
        e_rng.bit_generator.advance(n_mc // 4)
        e_rng.bit_generator.random_raw(n_mc % 4)

        def leaf_sum(k: int) -> float:
            vals, e = d_buf[:k], e_buf[:k]
            d_rng.random(out=vals)  # d, the bits of uniform(0.0, 1.0)
            vals -= 0.5
            np.square(vals, out=vals)
            e_rng.standard_normal(out=e)  # the bits of normal() for e ** 2
            vals *= np.square(e, out=e)
            if mean is not None:  # std(ddof=1)'s squared deviations
                vals -= mean
                np.square(vals, out=vals)
            return np.add.reduce(vals)

        return _pairwise_total(n_mc, ORACLE_BLOCK, leaf_sum)

    est = total(None) / n_mc  # vals.mean()
    std = np.sqrt(total(est) / (n_mc - 1))
    return float(est), float(std / np.sqrt(n_mc))


AVERAGING_ORACLE_TARGET = 1.0 / 12.0
