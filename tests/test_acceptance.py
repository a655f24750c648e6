"""Acceptance gate: the eight headline checks, one test per criterion.

Each test prints a single [criterion N] PASS/FAIL line with the measured
numbers next to the thresholds it is held to (run pytest with -rA to see
the lines for passing tests). Thresholds live here and nowhere else, so a
red criterion fails loudly instead of being averaged away.
"""

import functools
import logging
import time

import numpy as np

from reference import grad_check
from test_model import _grad_case, constant_model, loss_terms

from relgen.data import gen_dg15
from relgen.experiments import _aggregate, ablation, method_comparison, run_relational, tuned_config
from relgen.model import (
    TrainConfig,
    combine_heads,
    load_checkpoint,
    save_checkpoint,
    score,
)
from relgen.nn import Layer, Mlp, forward
from relgen.relations import RelationNet, build_matrix, learned_matrix, normalize_rows
from relgen.theory import (
    AVERAGING_ORACLE_TARGET,
    averaging_oracle,
    scaling_experiment,
)

SEEDS = (0, 1, 2)


def emit(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")


@functools.cache
def ablation_rows() -> dict:
    """variant -> row of ablation(SEEDS, tuned_config()), computed once per session:
    criteria 2 and 3 share it."""
    return {r["variant"]: r for r in ablation(SEEDS, tuned_config())}


def default_lam_rows() -> dict:
    """The ablation's lam=0 and lam=0.5 rows at the default config: only their 6 runs, in
    one run_relational call on one dg15 world per seed."""
    lams = (0.0, TrainConfig().lam)
    cfgs = [TrainConfig(seed=s, lam=lam) for lam in lams for s in SEEDS]
    _, _, reports = run_relational([gen_dg15(s) for s in SEEDS] * len(lams), cfgs)
    means = [r.mean for r in reports]
    return {f"lam={lam:g}": _aggregate(means[i * len(SEEDS):(i + 1) * len(SEEDS)])
            for i, lam in enumerate(lams)}


def test_criterion_1_benchmark_gap_over_baseline():
    """Relational >= 70% mean test accuracy and >= 20 points over the pooled
    baseline, 3 seeds, shared default config with the tuned learning rate."""
    t0 = time.perf_counter()
    out = method_comparison(SEEDS, tuned_config())
    took = time.perf_counter() - t0
    rel, erm = out["relational"]["mean"], out["erm"]["mean"]
    gap = rel - erm
    ok = rel >= 0.70 and gap >= 0.20 and took < 120.0
    emit(
        1,
        ok,
        f"relational {rel:.4f} (std {out['relational']['std']:.4f}), "
        f"erm {erm:.4f} (std {out['erm']['std']:.4f}), gap {gap * 100:+.1f}pts "
        f"(need >= 70% and >= 20pts), runtime {took:.1f}s (budget 120s)",
    )
    assert rel >= 0.70
    assert gap >= 0.20
    assert took < 120.0


def test_criterion_2_relation_source_ordering():
    """Fused relations beat learned-only by >= 5 points; the rest of the
    ordering is reported, not asserted."""
    t0 = time.perf_counter()
    rows = ablation_rows()
    took = time.perf_counter() - t0
    fused, fixed = rows["fused"]["mean"], rows["fixed"]["mean"]
    learned, none = rows["learned"]["mean"], rows["none"]["mean"]
    margin = fused - learned
    ok = margin >= 0.05 and took < 300.0
    emit(
        2,
        ok,
        f"fused {fused:.4f}, fixed {fixed:.4f}, learned {learned:.4f}, "
        f"none {none:.4f}; fused-learned {margin * 100:+.1f}pts (need >= 5pts); "
        f"reported: fused>=fixed {fused >= fixed}, fixed>=learned {fixed >= learned}; "
        f"runtime {took:.1f}s (budget 300s)",
    )
    assert margin >= 0.05
    assert took < 300.0


def test_criterion_3_consistency_term():
    """lam=0.5 >= lam=0 in mean test accuracy at the default config, or the
    two sit within one standard deviation (reported either way)."""
    t0 = time.perf_counter()
    rows = default_lam_rows()
    tuned_rows = ablation_rows()
    took = time.perf_counter() - t0
    m0, m05 = rows["lam=0"]["mean"], rows["lam=0.5"]["mean"]
    spread = max(rows["lam=0"]["std"], rows["lam=0.5"]["std"])
    within = abs(m05 - m0) <= spread
    ok = (m05 >= m0 or within) and took < 180.0
    t0_, t05 = tuned_rows["lam=0"]["mean"], tuned_rows["lam=0.5"]["mean"]
    emit(
        3,
        ok,
        f"default config: lam=0.5 {m05:.4f} vs lam=0 {m0:.4f} "
        f"(diff {(m05 - m0) * 100:+.2f}pts, max std {spread:.4f}, within-1-std {within}); "
        f"tuned lr (reported): lam=0.5 {t05:.4f} vs lam=0 {t0_:.4f} "
        f"(diff {(t05 - t0_) * 100:+.2f}pts); runtime {took:.1f}s (budget 180s)",
    )
    assert m05 >= m0 or within
    assert took < 180.0


def test_criterion_4_uniform_averaging_floor():
    """Monte Carlo risk of plain head averaging within 3 stderr of 1/12."""
    t0 = time.perf_counter()
    est, stderr = averaging_oracle(10**6, seed=0)
    took = time.perf_counter() - t0
    gap = abs(est - AVERAGING_ORACLE_TARGET)
    ok = gap <= 3.0 * stderr and took < 5.0
    emit(
        4,
        ok,
        f"estimate {est:.6f} +/- {stderr:.6f}, target {AVERAGING_ORACLE_TARGET:.6f}, "
        f"|gap| {gap:.6f} <= 3*stderr {3 * stderr:.6f}: {gap <= 3 * stderr}; "
        f"runtime {took:.2f}s (budget 5s)",
    )
    assert gap <= 3.0 * stderr
    assert took < 5.0


def test_criterion_5_excess_risk_scaling():
    """Mean excess risk non-increasing over N in {8,16,32,64} within one
    stderr per step (stderr of the difference of two independent means),
    and strictly lower at 64 than at 8."""
    t0 = time.perf_counter()
    rows = scaling_experiment((8, 16, 32, 64), n_seeds=20, r=2, n_per_domain=50,
                              noise=0.1, lipschitz=1.0)
    took = time.perf_counter() - t0
    risks = [r["mean_excess_risk"] for r in rows]
    errs = [r["stderr"] for r in rows]
    steps_ok = []
    for i in range(3):
        slack = float(np.hypot(errs[i], errs[i + 1]))
        steps_ok.append(risks[i + 1] <= risks[i] + slack)
    strict = risks[3] < risks[0]
    ok = all(steps_ok) and strict and took < 120.0
    emit(
        5,
        ok,
        "risk(N): " + ", ".join(f"{r['N_tr']}: {r['mean_excess_risk']:.4f}+/-{r['stderr']:.4f}" for r in rows)
        + f"; steps within 1 stderr {steps_ok}, risk(64) < risk(8) {strict}; "
        f"runtime {took:.1f}s (budget 120s)",
    )
    assert all(steps_ok)
    assert strict
    assert took < 120.0


GRAD_PATHS = (
    ("classification", "logit", 0.5, 0.8, "fused"),
    ("classification", "prob", 0.5, 0.8, "fused"),
    ("classification", "logit", 0.5, 0.0, "fused"),
    ("classification", "logit", 0.5, 1.0, "fused"),
    ("classification", "logit", 0.0, 0.8, "fused"),
    ("classification", "logit", 2.0, 0.8, "uniform"),
    ("regression", "logit", 0.5, 0.8, "fused"),
)


def test_criterion_6_gradient_suite():
    """Analytic gradients of the prediction loss, consistency loss, total
    objective, and learned relations (through g and the head weights) match
    central finite differences within 1e-5 on a 3-train-domain instance."""
    t0 = time.perf_counter()
    worst = 0.0
    for path in GRAD_PATHS:
        fn, params = _grad_case(*path)
        worst = max(worst, float(grad_check(fn, params)))
    took = time.perf_counter() - t0
    ok = worst < 1e-5 and took < 10.0
    emit(
        6,
        ok,
        f"worst relative error {worst:.3e} over {len(GRAD_PATHS)} loss paths "
        f"(need < 1e-5); runtime {took:.1f}s (budget 10s)",
    )
    assert worst < 1e-5
    assert took < 10.0


N_PROPERTY_CASES = 1000


def test_criterion_7_inference_invariants():
    """Five property families, 1000 randomized cases each, zero failures."""
    rng = np.random.default_rng(20_240_817)
    failures = {name: 0 for name in
                ("simplex", "rescale", "one_hot", "heads_equal", "symmetry")}

    fallback_logger = logging.getLogger("relgen.relations")
    old_level = fallback_logger.level
    fallback_logger.setLevel(logging.ERROR)  # zero rows here are deliberate
    try:
        for case in range(N_PROPERTY_CASES):
            k = int(rng.integers(2, 6))
            row = rng.uniform(0.0, 3.0, size=k)
            if case % 10 == 0:
                row[:] = 0.0
            w = normalize_rows(row)
            if not (abs(w.sum() - 1.0) <= 1e-12 and w.min() >= 0.0):
                failures["simplex"] += 1
    finally:
        fallback_logger.setLevel(old_level)

    model_cache = {}

    def heads_model(k, out):
        if (k, out) not in model_cache:
            model_cache[(k, out)] = constant_model([0.0] * k, task="classification", out=out)
        return model_cache[(k, out)]

    for _ in range(N_PROPERTY_CASES):
        k = int(rng.integers(2, 6))
        out = int(rng.integers(2, 5))
        model = heads_model(k, out)
        for b in model.head_b:
            b[:] = rng.normal(size=out)
        x = rng.normal(size=(3, 2)) ** 2 + 0.1  # keep the relu extractor active
        w = rng.uniform(0.1, 2.0, size=k)
        scale = float(rng.uniform(0.5, 20.0))
        labels = combine_heads(model, w, x).argmax(axis=-1)
        if not np.array_equal(labels, combine_heads(model, scale * w, x).argmax(axis=-1)):
            failures["rescale"] += 1

    for _ in range(N_PROPERTY_CASES):
        k = int(rng.integers(2, 6))
        out = int(rng.integers(2, 5))
        model = heads_model(k, out)
        for b in model.head_b:
            b[:] = rng.normal(size=out)
        x = rng.normal(size=(2, 2)) ** 2 + 0.1
        pick = int(rng.integers(0, k))
        one_hot = np.zeros(k)
        one_hot[pick] = 1.0
        head = Mlp([Layer(model.head_w[pick], model.head_b[pick])])  # the picked head alone
        direct = forward(head, forward(model.extractor, x)[0])[0]
        if not np.array_equal(combine_heads(model, one_hot, x), direct):
            failures["one_hot"] += 1

    for case in range(N_PROPERTY_CASES):
        k = int(rng.integers(2, 6))
        out = int(rng.integers(2, 5))
        space = "logit" if case % 2 == 0 else "prob"
        model = constant_model([0.0] * k, task="classification",
                               combine_space=space, out=out)
        shared = rng.normal(size=out)
        for b in model.head_b:
            b[:] = shared
        n = int(rng.integers(1, 5))
        batch = (
            rng.normal(size=(n, 2)) ** 2 + 0.1,
            rng.integers(0, out, size=n),
            rng.integers(0, k, size=n),
        )
        rel = rng.uniform(0.0, 2.0, size=(k, k))
        rel = (rel + rel.T) / 2.0
        _, lp, lr = loss_terms(model, batch, rel)
        if abs(lr - lp) > 1e-12 * max(1.0, abs(lp)):
            failures["heads_equal"] += 1

    for _ in range(N_PROPERTY_CASES):
        k = int(rng.integers(2, 6))
        meta_dim = int(rng.integers(1, 3))
        metas = rng.normal(size=(k, meta_dim)) + 0.05
        net = RelationNet.init(meta_dim, np.random.default_rng(int(rng.integers(1 << 30))),
                               width=8, n_heads=2)
        for p in net.g.params():
            p += rng.normal(size=p.shape) * 0.3
        fixed = rng.uniform(0.0, 1.0, size=(k, k))
        fixed = (fixed + fixed.T) / 2.0
        beta = float(rng.uniform(0.0, 1.0))
        parts = (fixed, learned_matrix(net, metas)[0], build_matrix(metas, net, beta, fixed))
        for part in parts:
            if np.abs(part - part.T).max() > 1e-12:
                failures["symmetry"] += 1
                break

    total = sum(failures.values())
    ok = total == 0
    emit(
        7,
        ok,
        f"failures per family over {N_PROPERTY_CASES} cases: {failures} (need all zero)",
    )
    assert total == 0


def test_criterion_8_determinism_and_persistence(tmp_path):
    """Identical (config, seed) gives identical reports, and a checkpoint
    round-trip preserves evaluation metrics bit-exactly."""
    cfg = tuned_config(epochs=8, seed=0)
    model_a, hist_a, rep_a = run_relational(gen_dg15(0), cfg)
    model_b, hist_b, rep_b = run_relational(gen_dg15(0), cfg)
    same_reports = rep_a.to_dict() == rep_b.to_dict() and hist_a == hist_b
    same_params = np.array_equal(model_a.flat, model_b.flat)

    ds = gen_dg15(0)
    path = str(tmp_path / "roundtrip.npz")
    save_checkpoint(path, model_a, cfg)
    loaded, _, _ = load_checkpoint(path)
    rep_c, rep_a_again = score([loaded, model_a], ds, [("fused", cfg.beta)] * 2, "test")
    round_trip = rep_c.to_dict() == rep_a_again.to_dict()

    ok = same_reports and same_params and round_trip
    emit(
        8,
        ok,
        f"identical reports {same_reports}, identical parameters {same_params}, "
        f"checkpoint round-trip metrics bit-exact {round_trip}",
    )
    assert same_reports
    assert same_params
    assert round_trip
