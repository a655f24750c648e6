"""Latent-world simulation: construction soundness, the threshold
estimator's contracts, the bandwidth schedule, and the closed-form
head-averaging oracle."""

import tracemalloc

import numpy as np
import pytest

from relgen import theory
from relgen.errors import ConfigError, NumericalError
from relgen.rng import substream, substreams
from relgen.theory import (
    AVERAGING_ORACLE_TARGET,
    SWEEP_COLUMNS,
    averaging_oracle,
    bandwidth_schedule,
    calibrate_bandwidth,
    excess_risk,
    fit_heads,
    sample_world,
    save_sweep_csv,
    scaling_experiment,
    threshold_predict,
)

import reference


def world_block(world_args, seeds):
    """The worlds of seeds as one block, from the substreams pairs _threshold_risks makes."""
    pairs = zip(substreams(seeds, "world", "latent"), substreams(seeds, "world", "data"))
    return sample_world(*world_args, rngs=pairs, n_worlds=len(seeds))


# -- world construction ----------------------------------------------------------


def test_world_shapes_and_ranges():
    w = world_block((12, 3, 1.5, 20, 0.1), [0])
    assert w.z_train.shape == (1, 12, 3)
    assert w.z_test.shape == (1, 3) and w.slope_test.shape == (1,)
    assert w.x.shape == (1, 12, 20) and w.y.shape == (1, 12, 20)
    assert np.all(w.z_train >= 0) and np.all(w.z_train <= 1)
    assert np.all(np.abs(w.x) <= 1)
    assert w.distances_to_test().shape == (1, 12)


def test_zero_lipschitz_means_identical_domains():
    w = world_block((6, 2, 0.0, 10, 0.0), [1])
    assert np.all(fit_heads(w) == 0.0)
    assert w.slope_test[0] == 0.0
    assert np.all(w.y == 0.0)


def test_slopes_are_distances_to_the_anchor():
    world_args = (5, 2, 2.0, 5, 0.0)  # noise 0: y is slope * x
    w = world_block(world_args, [2])
    anchor = reference.latent_world(*world_args, seed=2)[2]
    expect = 2.0 * np.linalg.norm(w.z_train[0] - anchor, axis=1)
    assert np.allclose(w.y[0], expect[:, None] * w.x[0], atol=1e-15)
    assert w.slope_test[0] == pytest.approx(2.0 * np.linalg.norm(w.z_test[0] - anchor))


def test_world_is_deterministic():
    a = world_block((4, 2, 1.0, 8, 0.2), [5])
    b = world_block((4, 2, 1.0, 8, 0.2), [5])
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.z_train, b.z_train)


def test_world_validates_arguments():
    for world_args in (
        (0, 2, 1.0, 5, 0.1),  # n_domains, r, lipschitz, n_per_domain, noise
        (3, 0, 1.0, 5, 0.1),
        (3, 2, 1.0, 1, 0.1),
        (3, 2, -1.0, 5, 0.1),
        (3, 2, 1.0, 5, -0.1),
    ):
        with pytest.raises(ConfigError):
            world_block(world_args, [0])


def lipschitz_certificate(slopes, z_train, lipschitz, n_pairs: int = 100, n_probe: int = 100,
                          seed: int = 0) -> float:
    """Largest violation of |h_i(e) - h_j(e)| <= G * |Z_i - Z_j| on probes.

    Nonpositive (up to rounding) when the world construction is sound.
    """
    rng = substream(seed, "lipschitz")
    n = len(z_train)
    worst = -np.inf
    for _ in range(n_pairs):
        i, j = rng.integers(0, n, size=2)
        probes = rng.uniform(-1.0, 1.0, size=n_probe)
        gap = np.abs(slopes[i] * probes - slopes[j] * probes).max()
        bound = lipschitz * np.linalg.norm(z_train[i] - z_train[j])
        worst = max(worst, float(gap - bound))
    return worst


def test_lipschitz_certificate_is_nonpositive():
    # the reference world keeps the bits of the block's (see the block test below)
    for seed in (0, 1, 2):
        z_train, _, _, slopes, *_ = reference.latent_world(20, 4, 3.0, 10, 0.5, seed=seed)
        assert lipschitz_certificate(slopes, z_train, 3.0) <= 1e-12


# -- per-domain fits -------------------------------------------------------------


def test_noise_free_fits_recover_true_slopes():
    world_args = (10, 2, 1.0, 30, 0.0)
    slopes = reference.latent_world(*world_args, seed=3)[3]
    assert np.allclose(fit_heads(world_block(world_args, [3]))[0], slopes, atol=1e-12)


def test_fit_heads_rejects_singular_designs():
    w = world_block((3, 2, 1.0, 4, 0.0), [0])
    w.x[0, 1, :] = 0.0
    with pytest.raises(NumericalError, match="all-zero"):
        fit_heads(w)


# -- threshold estimator ---------------------------------------------------------


def test_threshold_predict_averages_within_bandwidth():
    slopes = np.array([1.0, 2.0, 3.0])
    dists = np.array([0.1, 0.2, 0.9])
    assert threshold_predict(slopes, dists, 0.5) == pytest.approx(1.5)
    assert threshold_predict(slopes, dists, 10.0) == pytest.approx(2.0)
    # strict inequality at the boundary
    assert threshold_predict(slopes, dists, 0.1) == 0.0
    assert threshold_predict(slopes, dists, 0.0) == 0.0
    with pytest.raises(ConfigError):
        threshold_predict(slopes, dists, -0.5)


def test_estimator_object_matches_the_function():
    w = world_block((8, 2, 1.0, 10, 0.1), [4])
    slope = threshold_predict(fit_heads(w)[0], w.distances_to_test()[0], 0.6)
    # the estimator by hand: mean fitted slope of the domains within 0.6
    near = [s for s, z in zip(fit_heads(w)[0], w.z_train[0])
            if np.linalg.norm(z - w.z_test[0]) < 0.6]
    direct = float(np.mean(near)) if near else 0.0
    assert slope == pytest.approx(direct)
    xs = np.array([-1.0, 0.0, 0.5])
    assert np.allclose(slope * xs, direct * xs, atol=1e-15)


def test_excess_risk_of_the_true_slope_is_exactly_zero():
    slope_test = world_block((5, 2, 1.0, 10, 0.3), [6]).slope_test[0]
    est, stderr = excess_risk(slope_test, slope_test, 0.3, n_eval=500, seed=1)
    assert est == 0.0 and stderr == 0.0
    with pytest.raises(ConfigError):
        excess_risk(slope_test, slope_test, 0.3, n_eval=1)


def test_excess_risk_penalizes_wrong_slopes():
    slope_test = world_block((5, 2, 1.0, 10, 0.0), [7]).slope_test[0]
    est, _ = excess_risk(slope_test + 1.0, slope_test, 0.0, n_eval=2000, seed=2)
    # noise-free absolute error of slope+1 is E|x| = 1/2
    assert est == pytest.approx(0.5, abs=0.05)


def test_threshold_beats_the_global_average_on_a_dense_world():
    w = world_block((60, 2, 2.0, 40, 0.1), [8])
    slopes_hat = fit_heads(w)[0]
    dists = w.distances_to_test()[0]
    local = threshold_predict(slopes_hat, dists, 0.25)
    global_avg = float(slopes_hat.mean())
    r_local, _ = excess_risk(local, w.slope_test[0], 0.1, n_eval=20_000, seed=3)
    r_global, _ = excess_risk(global_avg, w.slope_test[0], 0.1, n_eval=20_000, seed=3)
    assert r_local < r_global


def test_a_seen_test_domain_is_easy():
    world_args = (10, 2, 1.0, 50, 0.2)
    w = world_block(world_args, [9])
    w.z_test[0] = w.z_train[0, 0]
    slope_test = reference.latent_world(*world_args, seed=9)[3][0]  # domain 0's true slope
    # bandwidth ~0 still sees the coincident domain at distance 0
    slope = threshold_predict(fit_heads(w)[0], w.distances_to_test()[0], 1e-9)
    r, stderr = excess_risk(slope, slope_test, 0.2, n_eval=10_000, seed=4)
    assert r <= 3 * max(stderr, 1e-4) + 0.05


# -- bandwidth schedule ------------------------------------------------------------


def test_bandwidth_schedule_formula():
    assert bandwidth_schedule(1.0, 10, 10, 2) == pytest.approx(100.0 ** (-0.25))
    assert bandwidth_schedule(2.0, 50, 8, 3) == pytest.approx(2.0 * 400.0 ** (-0.2))
    # denser worlds get tighter bandwidths
    assert bandwidth_schedule(1.0, 10, 64, 2) < bandwidth_schedule(1.0, 10, 8, 2)
    for n, r in ((0, 2), (-3, 2), (10, 0), (10, -2)):
        with pytest.raises(ConfigError, match="n > 0 and r >= 1"):
            bandwidth_schedule(1.0, n, 8, r)


def test_calibration_picks_from_the_grid(monkeypatch):
    monkeypatch.setattr(theory, "C0_SEEDS", 3)
    monkeypatch.setattr(theory, "C0_N_EVAL", 1000)
    c0 = calibrate_bandwidth(2, 20, noise=0.1, lipschitz=1.0, n_domains=16, seed=11)
    assert c0 in (0.25, 0.5, 1.0, 2.0, 4.0)


def test_calibration_without_a_finite_risk_raises(monkeypatch):
    # NaN compares False against the running best, so no grid value wins
    monkeypatch.setattr(theory, "_threshold_risks", lambda world_args, bandwidths, seeds, n_eval:
                        np.full((len(seeds), len(bandwidths)), np.nan))
    monkeypatch.setattr(theory, "C0_SEEDS", 2)
    with pytest.raises(ConfigError, match="finite mean excess risk"):
        calibrate_bandwidth(2, 20, noise=0.1, lipschitz=1.0, n_domains=8, seed=0)


# -- scaling experiment ------------------------------------------------------------


def test_scaling_rows_and_csv_round_trip(tmp_path):
    rows = scaling_experiment((4, 8), n_seeds=3, r=2, n_per_domain=10, noise=0.1,
                              lipschitz=1.0, n_eval=500, seed=0, c0=1.0)
    assert [row["N_tr"] for row in rows] == [4, 8]
    for row in rows:
        assert set(row) == set(SWEEP_COLUMNS)
        assert row["seeds"] == 3
        assert row["stderr"] >= 0.0
        assert row["B"] == pytest.approx(bandwidth_schedule(1.0, 10, row["N_tr"], 2))
    path = tmp_path / "sweep.csv"
    save_sweep_csv(str(path), rows)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS)
    assert text.splitlines()[1].split(",") == [str(rows[0][k]) for k in SWEEP_COLUMNS]
    back = list(np.genfromtxt(str(path), delimiter=",", names=True))
    assert len(back) == 2


def test_scaling_is_deterministic():
    kw = dict(n_seeds=2, r=2, n_per_domain=10, noise=0.1, lipschitz=1.0,
              n_eval=300, seed=5, c0=1.0)
    a = scaling_experiment((4, 8), **kw)
    b = scaling_experiment((4, 8), **kw)
    assert a == b


def test_scaling_validates_arguments():
    with pytest.raises(ConfigError):
        scaling_experiment((), n_seeds=3, r=2, n_per_domain=10, noise=0.1, lipschitz=1.0)
    with pytest.raises(ConfigError):
        scaling_experiment((4,), n_seeds=1, r=2, n_per_domain=10, noise=0.1, lipschitz=1.0)
    for grid in ((0, 8), (-4, 8)):  # rejected before calibrating
        with pytest.raises(ConfigError, match="domain counts must be at least 1"):
            scaling_experiment(grid, n_seeds=3, r=2, n_per_domain=10, noise=0.1, lipschitz=1.0)
    kw = dict(n_seeds=2, r=2, n_per_domain=10, noise=0.1, lipschitz=1.0, n_eval=300, c0=1.0)
    for name, value in [("noise", np.nan), ("noise", np.inf), ("lipschitz", np.nan),
                        ("lipschitz", np.inf), ("c0", np.nan), ("c0", np.inf), ("c0", 0.0)]:
        with pytest.raises(ConfigError, match="finite"):
            scaling_experiment((4, 8), **{**kw, name: value})


def test_threshold_risks_equal_one_excess_risk_per_seed():
    world_args = (8, 2, 1.0, 20, 0.3)
    seeds, bandwidths = [3, 9, 40], (0.0, 0.4, 5.0, np.inf)
    risks = theory._threshold_risks(world_args, bandwidths, seeds, 700)
    assert risks.shape == (3, 4)
    for seed, row in zip(seeds, risks):
        w = world_block(world_args, [seed])
        for bandwidth, risk in zip(bandwidths, row):
            est = threshold_predict(fit_heads(w)[0], w.distances_to_test()[0], bandwidth)
            assert risk.hex() == excess_risk(est, w.slope_test[0], 0.3, 700, seed=seed + 1)[0].hex()
    with pytest.raises(ConfigError, match="n_eval"):
        theory._threshold_risks(world_args, [0.4], seeds, 1)


def test_calibration_builds_each_held_out_world_once(monkeypatch):
    built = []
    real = theory.sample_world

    def counting(*args, **kwargs):
        world = real(*args, **kwargs)
        built.extend(world.z_train)  # one (N, r) latent block row per world built
        return world

    monkeypatch.setattr(theory, "sample_world", counting)
    monkeypatch.setattr(theory, "C0_N_EVAL", 200)
    calibrate_bandwidth(2, 20, noise=0.1, lipschitz=1.0, n_domains=8, seed=0)
    # one world per held-out seed, not one per seed and grid value
    held_out = [world_block((8, 2, 1.0, 20, 0.1), [7 * s + 1]).z_train[0]
                for s in range(theory.C0_SEEDS)]
    assert [z.tobytes() for z in built] == [z.tobytes() for z in held_out]


WORLD_CASES = [(8, 2, 1.0, 20, 0.3), (1, 1, 1.0, 5, 0.2), (6, 3, 0.0, 4, 0.0), (5, 9, 2.0, 12, 0.5)]


BLOCK = 16  # worlds per block under the budget test_block_worlds_... sets


@pytest.mark.parametrize("first", [11, 2**64 - 8, 2**128 - 8])  # the last two cross 2^64, 2^128
@pytest.mark.parametrize("n_seeds", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("world_args", WORLD_CASES)  # N = 1, r = 1, 3 and 9, G = 0 with noise 0
def test_block_worlds_keep_the_bits_of_one_world_per_seed(world_args, n_seeds, first,
                                                          monkeypatch):
    seeds = range(first, first + n_seeds)
    block = world_block(world_args, seeds)
    assert block.x.shape == (n_seeds, world_args[0], world_args[3])
    fits, dists = fit_heads(block), block.distances_to_test()
    bandwidths = (0.0, 0.4, np.inf)
    n_domains, r, _, n_per_domain, _ = world_args
    per_world = theory.world_bytes(n_domains, r, n_per_domain)
    monkeypatch.setattr(theory, "BLOCK_BYTES", BLOCK * per_world)
    sizes = []
    real = theory.sample_world
    monkeypatch.setattr(theory, "sample_world",
                        lambda *a, **kw: sizes.append(kw["n_worlds"]) or real(*a, **kw))
    risks = theory._threshold_risks(world_args, bandwidths, seeds, 300)
    assert sizes == [min(BLOCK, n_seeds - start) for start in range(0, n_seeds, BLOCK)]
    for i, seed in enumerate(seeds):
        z_train, z_test, _, _, slope_test, x, y = reference.latent_world(*world_args, seed=seed)
        rows = (block.z_train[i], block.z_test[i], block.slope_test[i], block.x[i], block.y[i])
        for w, row in zip((z_train, z_test, slope_test, x, y), rows):
            assert np.asarray(row).tobytes() == np.asarray(w).tobytes()
        one = world_block(world_args, [seed])  # a block of one keeps the same bits
        fits_one, dists_one = fit_heads(one)[0], one.distances_to_test()[0]
        assert fits[i].tobytes() == fits_one.tobytes()
        assert dists[i].tobytes() == dists_one.tobytes()
        for bandwidth, risk in zip(bandwidths, risks[i]):
            est = threshold_predict(fits_one, dists_one, bandwidth)
            near = fits_one[dists_one < bandwidth]
            assert est.hex() == (float(near.mean()) if near.size else 0.0).hex()
            assert risk.hex() == excess_risk(est, slope_test, world_args[4], 300,
                                             seed=seed + 1)[0].hex()


def test_large_worlds_are_built_in_smaller_blocks(monkeypatch):
    world_args, seeds, bandwidths = (8, 2, 1.0, 20, 0.3), range(10), (0.4, np.inf)
    whole = theory._threshold_risks(world_args, bandwidths, seeds, 300)
    sizes = []
    real = theory.sample_world
    monkeypatch.setattr(theory, "sample_world",
                        lambda *a, **kw: sizes.append(kw["n_worlds"]) or real(*a, **kw))
    monkeypatch.setattr(theory, "BLOCK_BYTES", 3 * theory.world_bytes(8, 2, 20) + 1)  # three worlds
    split = theory._threshold_risks(world_args, bandwidths, seeds, 300)
    assert sizes == [3, 3, 3, 1]
    assert split.tobytes() == whole.tobytes()


def test_a_nan_bandwidth_is_a_config_error(monkeypatch):
    slopes, dists = np.array([1.0, 2.0]), np.array([0.1, 0.2])
    for bandwidth in (np.nan, -np.inf, -0.5):
        with pytest.raises(ConfigError, match="bandwidth must be nonnegative"):
            threshold_predict(slopes, dists, bandwidth)
    for name, value in (("C0_GRID", (np.nan,)), ("C0_SEEDS", 2), ("C0_N_EVAL", 100)):
        monkeypatch.setattr(theory, name, value)
    with pytest.raises(ConfigError, match="bandwidth must be nonnegative, got nan"):
        calibrate_bandwidth(2, 20, noise=0.1, lipschitz=1.0, n_domains=8, seed=0)


@pytest.mark.parametrize("lipschitz,noise", [(1e308, 0.1), (1.0, 1e308)])
def test_a_non_finite_risk_is_a_numerical_error(lipschitz, noise):
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=r"excess risk is (inf|nan) at N_tr = 4, seed 40000, "):
        scaling_experiment((4,), n_seeds=2, r=2, n_per_domain=10, noise=noise,
                           lipschitz=lipschitz, n_eval=100, c0=1.0)


@pytest.mark.parametrize("n", [10**17, 2**62, 2**63, 2**53 + 1])
def test_sizes_that_cannot_be_allocated_are_config_errors(n):
    # 8 * 10**17 bytes exceed a 47-bit address space under any overcommit mode;
    # past numpy's index range, np.empty raises ValueError instead of MemoryError.
    # The oracle holds no n_mc buffer; it refuses a count no float64 holds exactly.
    with pytest.raises(ConfigError, match=rf"^n_mc = {n} is above 2\*\*53, the largest count "):
        averaging_oracle(n)
    with pytest.raises(ConfigError, match=f"n_eval = {n} cannot be allocated"):
        scaling_experiment((4,), n_seeds=2, r=2, n_per_domain=10, noise=0.1, lipschitz=1.0,
                           n_eval=n, c0=1.0)


def test_theory_outputs_keep_their_recorded_bits():
    # recorded before the sweep's risk loop and the oracle ran in place; a change to
    # a draw or to the order of the evaluation ops moves these bits
    rows = scaling_experiment((4, 8), n_seeds=3, r=2, n_per_domain=10, noise=0.1,
                              lipschitz=1.0, n_eval=500, seed=0)  # c0 calibrated
    got = [[row["N_tr"]] + [row[k].hex() for k in ("B", "mean_excess_risk", "stderr")]
           for row in rows]
    assert got == [
        [4, "0x1.972db9970a880p-2", "0x1.7e194e3d4c435p-4", "0x1.33e81294eb58cp-4"],
        [8, "0x1.56652116c816cp-2", "0x1.624f6abcba610p-10", "0x1.01f063850f2e1p-10"],
    ]
    assert [v.hex() for v in averaging_oracle(10_000, seed=0)] == [
        "0x1.50860d4618485p-4", "0x1.b92989103e4b4p-10"]
    slope_test = world_block((8, 2, 1.0, 50, 0.1), [3]).slope_test[0]
    assert [v.hex() for v in excess_risk(0.3, slope_test, 0.1, 10_000, seed=4)] == [
        "0x1.0479317fc76c1p-8", "0x1.35919bbd8f1dcp-12"]


# -- head averaging oracle -----------------------------------------------------------


def test_averaging_oracle_matches_the_closed_form():
    est, stderr = averaging_oracle(100_000, seed=0)
    assert stderr > 0.0
    assert abs(est - AVERAGING_ORACLE_TARGET) <= 4 * stderr


def test_averaging_oracle_validates():
    with pytest.raises(ConfigError):
        averaging_oracle(1)


LEAF = theory.ORACLE_BLOCK


@pytest.mark.parametrize(
    "n_mc", [2, 10, 10_000, 65_535, 65_536, 65_537, 3 * 65_536 + 7, 10**6,
             3, 7, 9, 129, 2 * 65_536 + 9, 10**6 + 3,
             LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 7, 2 * LEAF + 9])
def test_the_streamed_oracle_keeps_the_bits_of_two_whole_draws(n_mc):
    # d and e leaves fill one block, and numpy's pairwise sum splits no segment under 128
    assert 2 * 8 * LEAF <= theory.BLOCK_BYTES and LEAF >= 128
    for seed in (0, 1, 17):
        got = averaging_oracle(n_mc, seed=seed)
        want = reference.averaging_oracle(n_mc, seed=seed)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_the_oracle_holds_one_buffer_plus_a_block():
    # one block of BLOCK_BYTES for the d and e leaves, whatever n_mc; two whole draws and
    # std() peak near 16 MiB at 10**6, and one float64 per sample would be 8 MB. numpy
    # imports numpy.random (about 1 MiB traced) at a process's first draw, so one runs first.
    averaging_oracle(2)
    peaks = []
    for n_mc in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            averaging_oracle(n_mc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.5 * 2**20
    assert peaks[0] < theory.BLOCK_BYTES + 64 * 2**10
    assert abs(peaks[1] - peaks[0]) <= 64 * 2**10


def test_the_sweep_holds_one_world_block_at_a_time():
    # the theory-sweep workload's sweep, c0 calibrated: the five n_eval buffers (0.4 MB)
    # plus one block of worlds (BLOCK_BYTES) and its fits; 2.56 MiB when a block's data
    # stayed alive while its seeds were scored and the next block was drawn. More seeds
    # add only their risks and the key blocks of rng.substreams (KEY_BLOCK seeds at most).
    sweep = dict(domain_grid=(8, 16, 32, 64), r=2, n_per_domain=50, noise=0.1, lipschitz=1.0,
                 n_eval=10_000)
    scaling_experiment(**{**sweep, "n_seeds": 2, "n_eval": 2})  # numpy.random's import
    peaks = []
    for n_seeds in (500, 1_000):
        tracemalloc.start()
        try:
            scaling_experiment(**sweep, n_seeds=n_seeds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.5 * 2**20
    assert peaks[1] - peaks[0] <= 128 * 2**10


@pytest.mark.parametrize("block", [128, 65_536, theory.ORACLE_BLOCK])
def test_the_streamed_tree_keeps_the_bits_of_numpys_pairwise_sum(block):
    # a change to numpy's pairwise summation fails here, not as a drift in the oracle
    rng = np.random.default_rng(5)
    n_max = 10**6 + 3
    values = rng.choice([-1.0, 1.0], n_max) * 10.0 ** rng.uniform(-5.0, 5.0, n_max)
    for n in [*range(1, 301), 65_535, 65_536, 65_537, 131_080, n_max]:
        a, pos = values[:n], 0

        def leaf_sum(k):
            nonlocal pos
            assert 0 < k <= block
            pos += k
            return np.add.reduce(a[pos - k:pos])

        total = theory._pairwise_total(n, block, leaf_sum)
        assert pos == n
        assert total.hex() == np.add.reduce(a).hex(), n
