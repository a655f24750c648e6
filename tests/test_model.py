"""Multi-head model: loss terms against hand arithmetic, the full gradient
suite against finite differences, training/checkpoint behavior, and the
pooled baseline plus reweighted fine-tuning."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import relgen.model as model_module
import relgen.relations as relations_module
from relgen.data import DomainDataset, gen_dg15, gen_spatial_regression
from relgen.errors import ConfigError, DataError, NumericalError
from relgen.model import (
    ErmModel,
    MultiHeadModel,
    TrainConfig,
    build_erm,
    build_model,
    combine_heads,
    evaluate,
    load_checkpoint,
    plan_step,
    rw_finetune,
    save_checkpoint,
    score,
    split_ids,
    stack_models,
    total_loss_and_grads,
    train,
    train_erm,
)
from relgen.nn import Layer, Mlp, forward, stack_forward
from relgen.relations import RelationNet, mode_fusion, normalize_rows, relation_row

from reference import evaluate_per_domain, grad_check


def constant_model(values, task="regression", combine_space="logit", out=1):
    """Extractor is the identity on positive inputs; each head is constant."""
    extractor = Mlp([Layer(np.eye(2), np.zeros(2), "relu")])
    head_w = np.zeros((len(values), out, 2))
    head_b = np.repeat(np.asarray(values, dtype=np.float64)[:, None], out, axis=1)
    net = RelationNet.init(1, np.random.default_rng(0), width=3, n_heads=2)
    return MultiHeadModel(
        extractor, head_w, head_b, net, [f"d{i}" for i in range(len(values))], task, combine_space
    )


def micro_dataset(seed=0, n_per_domain=4):
    """Five angular domains, 3 train / 1 valid / 1 test, two classes.

    Angles stay away from 0.0: a domain whose meta is exactly zero gives a
    zero relation embedding under the zero-bias init, and the masked cosine
    is not differentiable there.
    """
    rng = np.random.default_rng(seed)
    angles = np.array([0.3, 0.9, 1.7, 0.5, 1.3])
    ids = [f"m{k}" for k in range(5)]
    xs, ys, doms = [], [], []
    for d, t in enumerate(angles):
        key = 2.0 * np.array([np.cos(t), np.sin(t)])
        half = n_per_domain // 2
        xs.append(rng.normal(size=(half, 2)) * 0.3 + key)
        xs.append(rng.normal(size=(half, 2)) * 0.3 - key)
        ys.append(np.concatenate([np.ones(half), np.zeros(half)]))
        doms.append(np.full(2 * half, d))
    return DomainDataset(
        x=np.vstack(xs),
        y=np.concatenate(ys),
        domain=np.concatenate(doms),
        ids=ids,
        meta=angles[:, None],
        split={"m0": "train", "m1": "train", "m2": "train", "m3": "valid", "m4": "test"},
        task="classification",
    )


# -- loss arithmetic ---------------------------------------------------------------


THREE_DOMAIN_BATCH = (
    np.ones((3, 2)),
    np.zeros(3),
    np.array([0, 1, 2]),
)
THREE_DOMAIN_RELATIONS = np.array(
    [[1.0, 0.5, 0.25], [0.5, 1.0, 1.0], [0.25, 1.0, 1.0]]
)


def one_step(model, batch, fixed, metas, lam, beta):
    """total_loss_and_grads of one model on its (n, p) batch, as a one-row stack
    with a plan of its own: (loss, (loss_pred, loss_rel), grad) with scalar
    losses and the model's (P,) gradient."""
    x, y, dom = batch
    stack = model_module._bound_copy(model, model.flat[None].copy())
    grad = np.empty_like(stack.flat)
    plan = plan_step(stack, np.asarray(fixed)[None], np.array([beta]), grad)
    rows = (x[None], model_module._targets(model, y)[None], dom[None])
    loss, (lp, lrel), grad = total_loss_and_grads(
        stack, rows, None if metas is None else metas[None], np.array([lam]), plan
    )
    return loss[0], (lp[0], lrel[0]), grad[0]


def loss_terms(model, batch, relations, lam=0.0):
    """(loss, loss_pred, loss_rel) of total_loss_and_grads with relations as
    the fixed matrix at beta 1: negative entries clamp at zero, as in
    training, and all ones give equal weights. loss_pred reads no relations."""
    loss, (lp, lrel), _ = one_step(model, batch, relations, None, lam, 1.0)
    return loss, lp, lrel


def test_loss_pred_hand_computed():
    model = constant_model([1.0, 2.0, 4.0])
    # own-head squared errors against zero targets: 1, 4, 16
    assert loss_terms(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS)[1] == pytest.approx(
        7.0, abs=1e-14
    )


def test_loss_rel_hand_computed():
    model = constant_model([1.0, 2.0, 4.0])
    # domain 0: weights (.5,.25)->(2/3,1/3), mix 8/3, se 64/9
    # domain 1: weights (.5,1)->(1/3,2/3),  mix 3,   se 9
    # domain 2: weights (.25,1)->(.2,.8),   mix 1.8, se 81/25
    expect = (64.0 / 9.0 + 9.0 + 81.0 / 25.0) / 3.0
    got = loss_terms(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS)[2]
    assert got == pytest.approx(expect, abs=1e-14)


def test_total_loss_is_affine_in_lambda():
    model = constant_model([1.0, 2.0, 4.0])
    _, lp, lr = loss_terms(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS)
    for lam in (0.0, 0.3, 1.0, 2.5):
        got = loss_terms(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS, lam)[0]
        assert got == pytest.approx(lp + lam * lr, abs=1e-12)
    with pytest.raises(ConfigError):
        TrainConfig(lam=-0.1).validate()


def test_consistency_ignores_self_relations():
    model = constant_model([1.0, 2.0, 4.0])
    base = loss_terms(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS)[2]
    boosted = THREE_DOMAIN_RELATIONS.copy()
    np.fill_diagonal(boosted, 1e6)
    assert loss_terms(model, THREE_DOMAIN_BATCH, boosted)[2] == pytest.approx(base, abs=1e-12)


def test_unrelated_row_falls_back_to_uniform_over_others():
    model = constant_model([1.0, 2.0, 4.0])
    lonely = np.eye(3)  # every row all-zero once self is excluded
    got = loss_terms(model, THREE_DOMAIN_BATCH, lonely)[2]
    want = loss_terms(model, THREE_DOMAIN_BATCH, np.ones((3, 3)))[2]
    assert got == pytest.approx(want, abs=1e-14)
    # uniform mixes: dom0 (2+4)/2=3, dom1 (1+4)/2=2.5, dom2 (1+2)/2=1.5
    assert want == pytest.approx((9.0 + 6.25 + 2.25) / 3.0, abs=1e-14)


def test_equal_heads_make_both_losses_agree():
    for space in ("logit", "prob"):
        model = constant_model([1.3, 1.3, 1.3], task="classification", combine_space=space, out=2)
        batch = (np.ones((3, 2)), np.array([0, 1, 0]), np.array([0, 1, 2]))
        rel = np.random.default_rng(3).uniform(0.1, 1.0, size=(3, 3))
        rel = (rel + rel.T) / 2
        _, lp, lr = loss_terms(model, batch, rel)
        assert lr == pytest.approx(lp, abs=1e-12)


def test_loss_rel_rejects_bad_relations():
    model = constant_model([1.0, 2.0, 4.0])
    for bad in (np.eye(4), np.eye(2)):
        with pytest.raises(ValueError, match=r"expected a \(3, 3\) relation matrix"):
            loss_terms(model, THREE_DOMAIN_BATCH, bad)


def test_prob_space_mixture_floor_keeps_loss_finite():
    model = constant_model([0.0, 0.0, 0.0], task="classification", combine_space="prob", out=2)
    # make head outputs extreme and opposed so the mixed probability of the
    # true label underflows to the floor
    model.head_b[0] = [800.0, -800.0]
    model.head_b[1] = [800.0, -800.0]
    model.head_b[2] = [800.0, -800.0]
    batch = (np.ones((3, 2)), np.array([1, 1, 1]), np.array([0, 1, 2]))
    val = loss_terms(model, batch, np.ones((3, 3)))[2]
    assert np.isfinite(val)
    assert val == pytest.approx(-math.log(1e-12), rel=1e-6)


# -- gradients ----------------------------------------------------------------------


def micro_regression(seed=0, n_per_domain=4):
    """Angular regression twin of micro_dataset (metas off zero, see above)."""
    rng = np.random.default_rng(seed)
    angles = np.array([0.3, 0.9, 1.7, 0.5, 1.3])
    ids = [f"r{k}" for k in range(5)]
    xs, ys, doms = [], [], []
    for d, t in enumerate(angles):
        x = rng.normal(size=(n_per_domain, 2))
        xs.append(x)
        ys.append(np.cos(t) * x[:, 0] + np.sin(t) * x[:, 1] + 0.1 * rng.normal(size=n_per_domain))
        doms.append(np.full(n_per_domain, d))
    return DomainDataset(
        x=np.vstack(xs),
        y=np.concatenate(ys),
        domain=np.concatenate(doms),
        ids=ids,
        meta=angles[:, None],
        split={"r0": "train", "r1": "train", "r2": "train", "r3": "valid", "r4": "test"},
        task="regression",
    )


def _grad_case(task, combine_space, lam, beta, relation_mode):
    ds = micro_dataset() if task == "classification" else micro_regression()
    cfg = TrainConfig(
        lam=lam,
        beta=beta,
        hidden_width=3,
        relation_width=3,
        relation_heads=2,
        combine_space=combine_space,
        relation_mode=relation_mode,
        seed=1,
    )
    model = build_model(ds, cfg)
    train_ids = ds.ids_for_split("train")
    x, y, dom = ds.arrays_for(train_ids)
    x, y, dom = x[:6], y[:6], dom[:6]
    metas = ds.meta_for(train_ids)
    k = len(train_ids)
    fixed, beta = mode_fusion(relation_mode, beta, lambda: ds.fixed_between(train_ids, train_ids),
                              (k, k))

    def fn(params):
        np.copyto(model.flat, params[0])
        loss, _, grad = one_step(model, (x, y, dom), fixed, metas, lam, beta)
        return loss, [grad]

    return fn, [model.flat.copy()]


@pytest.mark.parametrize(
    "task,combine_space,lam,beta,relation_mode",
    [
        ("classification", "logit", 0.5, 0.8, "fused"),
        ("classification", "prob", 0.5, 0.8, "fused"),
        ("classification", "logit", 0.5, 0.0, "fused"),
        ("classification", "logit", 0.5, 1.0, "fused"),
        ("classification", "logit", 0.0, 0.8, "fused"),
        ("classification", "logit", 2.0, 0.8, "uniform"),
        ("regression", "logit", 0.5, 0.8, "fused"),
    ],
)
def test_full_gradient_against_finite_differences(task, combine_space, lam, beta, relation_mode):
    fn, params = _grad_case(task, combine_space, lam, beta, relation_mode)
    assert grad_check(fn, params) < 1e-5


def test_loss_value_matches_loss_functions():
    ds = micro_dataset()
    cfg = TrainConfig(hidden_width=3, relation_width=3, relation_heads=2, seed=2)
    model = build_model(ds, cfg)
    train_ids = ds.ids_for_split("train")
    x, y, dom = ds.arrays_for(train_ids)
    metas = ds.meta_for(train_ids)
    fixed = ds.fixed_between(train_ids, train_ids)
    loss, (lp, lrel), _ = one_step(model, (x, y, dom), fixed, metas, 0.5, 1.0)
    assert lp == pytest.approx(loss_terms(model, (x, y, dom), np.ones((3, 3)))[1], abs=1e-12)
    assert lrel == pytest.approx(loss_terms(model, (x, y, dom), np.maximum(fixed, 0.0))[2], abs=1e-12)
    assert loss == pytest.approx(lp + 0.5 * lrel, abs=1e-12)


# -- inference ----------------------------------------------------------------------


def decide(model, weights, x):
    """Argmax labels or first-column values of the heads mixed under normalized weights."""
    return model_module._decide(combine_heads(model, normalize_rows(weights), x), model.task)


def test_one_hot_weights_pick_a_single_head():
    model = constant_model([1.0, 2.0, 4.0])
    x = np.ones((3, 2))
    out = combine_heads(model, [0.0, 1.0, 0.0], x)
    assert np.allclose(out, 2.0)
    own = stack_forward(model.head_w, model.head_b, forward(model.extractor, x)[0])[1]
    assert np.array_equal(out, own)


def test_zero_weights_fall_back_to_uniform(caplog):
    model = constant_model([1.0, 2.0, 4.0])
    with caplog.at_level("WARNING", logger="relgen.relations"):
        out = combine_heads(model, normalize_rows([0.0, 0.0, 0.0]), np.ones((1, 2)))
    assert out[0, 0] == pytest.approx((1.0 + 2.0 + 4.0) / 3.0, abs=1e-14)
    assert any("all-zero" in r.message for r in caplog.records)


def test_weights_are_scale_invariant():
    model = constant_model([1.0, 2.0, 4.0])
    a = combine_heads(model, normalize_rows([1.0, 2.0, 1.0]), np.ones((1, 2)))
    b = combine_heads(model, normalize_rows([10.0, 20.0, 10.0]), np.ones((1, 2)))
    assert np.array_equal(a, b)


def test_argmax_invariant_under_logit_rescale():
    rng = np.random.default_rng(9)
    model = constant_model([0.0, 0.0], task="classification", out=3)
    for b in model.head_b:
        b[:] = rng.normal(size=3)
    x = np.ones((4, 2))
    w = [0.3, 0.7]
    before = decide(model, w, x)
    for b in model.head_b:
        b *= 5.5
    after = decide(model, w, x)
    assert np.array_equal(before, after)


def test_infer_uniform_equals_equal_weights():
    model = constant_model([1.0, 2.0, 4.0])
    x = np.ones((2, 2))
    assert np.array_equal(decide(model, np.ones(3), x), decide(model, [5.0, 5.0, 5.0], x))


def test_infer_returns_scalar_for_single_example():
    # a single example is the one-row batch x[None]; its one output is read with .item()
    model = constant_model([1.0, 3.0])
    assert combine_heads(model, [1.0, 1.0], np.ones((1, 2))).shape == (1, 1)  # one output row
    out = decide(model, [1.0, 1.0], np.ones((1, 2)))
    assert out.shape == (1,)
    assert out.item() == pytest.approx(2.0)
    cls = constant_model([0.0, 0.0], task="classification", out=2)
    cls.head_b[0] = [0.0, 1.0]
    cls.head_b[1] = [0.0, 1.0]
    assert decide(cls, [1.0, 1.0], np.ones((1, 2))).item() == 1
    with pytest.raises(ValueError, match="batch of rows"):
        combine_heads(model, [1.0, 1.0], np.ones(2))


def test_prob_space_combination_is_a_distribution():
    model = constant_model([0.0, 0.0], task="classification", combine_space="prob", out=3)
    model.head_b[0] = [5.0, 0.0, -5.0]
    model.head_b[1] = [-5.0, 0.0, 5.0]
    out = combine_heads(model, [0.5, 0.5], np.ones((3, 2)))
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("space", ["logit", "prob"])
def test_combine_heads_with_a_seed_axis_matches_each_model(space, caplog):
    """(S, K) normalized weights on a stacked model: each row the bits of its own call."""
    ds = gen_dg15(0, n_per_class=10)
    models = [build_model(ds, TrainConfig(seed=s, combine_space=space)) for s in (1, 2, 3)]
    stack = stack_models(models)
    weights = np.random.default_rng(5).uniform(size=(3, len(models[0].head_domains)))
    weights[1] = 0.0  # falls back to uniform weights, with a warning
    x, _ = ds.domain_arrays(ds.ids_for_split("test")[0])
    with caplog.at_level("WARNING", logger="relgen.relations"):
        weights = normalize_rows(weights)
    assert sum("all-zero" in r.message for r in caplog.records) == 1
    got = combine_heads(stack, weights, x)
    assert got.shape == (3, len(x), 2)
    for s, m in enumerate(models):
        assert got[s].tobytes() == combine_heads(m, weights[s], x).tobytes()
    with pytest.raises(ValueError, match="one weight per head"):
        combine_heads(stack, weights[0], x)


def test_relational_predictor_modes():
    ds = micro_dataset()
    cfg = TrainConfig(hidden_width=3, relation_width=3, relation_heads=2, seed=3)
    model = build_model(ds, cfg)
    modes = [("uniform", 0.8), ("fused", 0.8), ("fixed", 0.8), ("learned", 0.8)]
    reports = score([model] * len(modes), ds, modes, "test")
    equal = evaluate_per_domain(
        lambda d, x: decide(model, np.ones(len(model.head_domains)), x), ds, "test"
    )
    assert reports[0].to_dict() == equal.to_dict()
    for rep, mode in zip(reports, modes):
        assert rep.to_dict() == reference_report(model, ds, mode, "test").to_dict()
        assert rep.n_examples == {"m4": len(ds.domain_arrays("m4")[1])}
    with pytest.raises(ConfigError):
        score([model], ds, [("nearest", 0.8)], "test")


def test_score_rejects_heads_of_unknown_domains():
    model = constant_model([1.0, 2.0])  # heads d0 and d1
    with pytest.raises(DataError, match="unknown domain id 'd0'"):
        score([model], micro_regression(), [("fused", 0.8)], "test")


# -- config -------------------------------------------------------------------------


def test_config_round_trip_and_validation():
    cfg = TrainConfig(lr=1e-3, lam=0.25)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError, match="unknown config keys"):
        TrainConfig.from_dict({"learning_rate": 0.1})
    bad = [
        {"lam": -1.0},
        {"beta": 1.5},
        {"lr": 0.0},
        {"weight_decay": -0.1},
        {"batch_size": 0},
        {"epochs": -1},
        {"seed": -1},
        {"hidden_width": 0},
        {"combine_space": "log-prob"},
        {"relation_mode": "cosine"},
        {"relation_mode": "fixed"},  # an inference mode: it trains as fused at beta 1
        {"finetune_epochs": -2},
        {"eval_every": 0},
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()


# -- training -----------------------------------------------------------------------


def test_zero_epochs_leave_parameters_untouched():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=0, hidden_width=3, relation_width=3, relation_heads=2)
    model = build_model(ds, cfg)
    before = model.flat.copy()
    history = train(model, ds, cfg)
    assert history == []
    assert np.array_equal(model.flat, before)


def test_training_reduces_the_loss():
    ds = micro_dataset(n_per_domain=8)
    cfg = TrainConfig(
        epochs=12, lr=5e-3, hidden_width=8, relation_width=3, relation_heads=2, select_best=False
    )
    model = build_model(ds, cfg)
    history = train(model, ds, cfg)
    assert len(history) == 12
    assert history[-1]["loss"] < history[0]["loss"]
    assert all(np.isfinite(h["loss"]) for h in history)


def test_select_best_restores_the_best_valid_epoch():
    ds = micro_dataset(n_per_domain=8)
    cfg = TrainConfig(epochs=8, lr=5e-3, hidden_width=8, relation_width=3, relation_heads=2)
    model = build_model(ds, cfg)
    history = train(model, ds, cfg)
    final = score([model], ds, [("fused", cfg.beta)], "valid")[0]
    assert final.mean == pytest.approx(max(h["valid"] for h in history), abs=1e-12)


def test_training_is_deterministic_per_seed():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=3, lr=1e-3, hidden_width=4, relation_width=3, relation_heads=2, seed=5)
    m1 = build_model(ds, cfg)
    h1 = train(m1, ds, cfg)
    m2 = build_model(ds, cfg)
    h2 = train(m2, ds, cfg)
    assert h1 == h2
    assert np.array_equal(m1.flat, m2.flat)
    cfg2 = TrainConfig(epochs=3, lr=1e-3, hidden_width=4, relation_width=3, relation_heads=2, seed=6)
    m3 = build_model(ds, cfg2)
    train(m3, ds, cfg2)
    assert not np.array_equal(m1.flat, m3.flat)


def test_domain_balanced_sampling_runs():
    ds = micro_dataset()
    cfg = TrainConfig(
        epochs=2, lr=1e-3, hidden_width=4, relation_width=3, relation_heads=2,
        domain_balanced_sampling=True,
    )
    model = build_model(ds, cfg)
    history = train(model, ds, cfg)
    assert len(history) == 2


def test_train_rejects_mismatched_model():
    ds = micro_dataset()
    cfg = TrainConfig(hidden_width=3, relation_width=3, relation_heads=2)
    model = build_model(ds, cfg)
    other = DomainDataset(
        x=ds.x, y=ds.y, domain=ds.domain, ids=ds.ids, meta=ds.meta,
        split={"m0": "train", "m1": "train", "m2": "valid", "m3": "train", "m4": "test"},
        task="classification",
    )
    with pytest.raises(ValueError, match="training domains"):
        train(model, other, cfg)


def test_build_model_needs_two_training_domains():
    ds = micro_dataset()
    lonely = DomainDataset(
        x=ds.x, y=ds.y, domain=ds.domain, ids=ds.ids, meta=ds.meta,
        split={"m0": "train", "m1": "valid", "m2": "valid", "m3": "valid", "m4": "test"},
        task="classification",
    )
    with pytest.raises(ConfigError, match="two training domains"):
        build_model(lonely, TrainConfig())


# -- evaluation ---------------------------------------------------------------------


def test_evaluate_perfect_and_constant_predictors():
    ds = micro_dataset()
    truth = {d: ds.domain_arrays(d)[1] for d in ds.ids}
    perfect = evaluate_per_domain(lambda d, x: truth[d], ds, "test")
    assert perfect.mean == 1.0 and perfect.worst == 1.0
    assert perfect.metric == "accuracy"
    zeros = evaluate_per_domain(lambda d, x: np.zeros(len(x)), ds, "train")
    assert zeros.mean == pytest.approx(0.5)  # labels are balanced
    report = perfect.to_dict()
    assert report["split"] == "test" and report["n_examples"] == {"m4": 4}


def test_evaluate_regression_worst_is_the_max_error():
    ds = gen_spatial_regression(0, n_rows=3, n_cols=3, n_per_domain=6, noise=0.0)
    rep = evaluate_per_domain(lambda d, x: np.zeros(len(x)), ds, "test")
    assert rep.metric == "mse"
    assert rep.worst == pytest.approx(max(rep.per_domain.values()))
    truth = {d: ds.domain_arrays(d)[1] for d in ds.ids}
    exact = evaluate_per_domain(lambda d, x: truth[d], ds, "test")
    assert exact.mean == 0.0


def test_evaluate_requires_a_populated_split():
    ds = micro_dataset()
    none_valid = DomainDataset(
        x=ds.x, y=ds.y, domain=ds.domain, ids=ds.ids, meta=ds.meta,
        split={"m0": "train", "m1": "train", "m2": "train", "m3": "train", "m4": "test"},
        task="classification",
    )
    with pytest.raises(DataError, match="no domains in split 'valid'"):
        split_ids(none_valid, "valid")
    cfg = TrainConfig(epochs=0, hidden_width=4)
    with pytest.raises(DataError, match="no domains in split 'valid'"):
        evaluate(build_erm(none_valid, cfg), none_valid, cfg, "valid")


# -- pooled baseline and fine-tuning ---------------------------------------------------


def test_erm_training_and_prediction_shapes():
    ds = micro_dataset(n_per_domain=8)
    cfg = TrainConfig(epochs=6, lr=5e-3, hidden_width=8)
    model, history = train_erm(ds, cfg)
    assert len(history) == 6
    rep = score([model], ds, [None], "test")[0]
    assert 0.0 <= rep.mean <= 1.0
    assert model.extractor.in_dim == ds.n_features + ds.meta_dim


def test_erm_resume_continues_in_place():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=2, lr=1e-3, hidden_width=4)
    model, _ = train_erm(ds, cfg)
    before = [p.copy() for p in model.params()]
    again, _ = train_erm(ds, TrainConfig(epochs=0, hidden_width=4), model=model)
    assert again is model
    for p, q in zip(model.params(), before):
        assert np.array_equal(p, q)
    bad = ErmModel(
        extractor=Mlp.init([7, 4], ["relu"], np.random.default_rng(0)),
        head=Mlp.init([4, 2], ["identity"], np.random.default_rng(1)),
        task="classification",
        meta_dim=1,
    )
    with pytest.raises(ConfigError, match="input features"):
        train_erm(ds, cfg, model=bad)


def test_rw_finetune_zero_epochs_is_identity():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=2, lr=1e-3, hidden_width=4, finetune_epochs=0)
    model, _ = train_erm(ds, cfg)
    (tuned,) = rw_finetune(model, ds, np.ones((1, 3)), cfg, ["m4"])
    for p, q in zip(tuned.params(), model.params()):
        assert np.array_equal(p, q)


def test_rw_finetune_weights_are_scale_invariant():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=2, lr=1e-3, hidden_width=4, finetune_epochs=2)
    model, _ = train_erm(ds, cfg)
    (t1,) = rw_finetune(model, ds, np.array([[1.0, 2.0, 1.0]]), cfg, ["m4"])
    (t2,) = rw_finetune(model, ds, np.array([[10.0, 20.0, 10.0]]), cfg, ["m4"])
    for p, q in zip(t1.params(), t2.params()):
        assert np.array_equal(p, q)
    for rows, targets in ((np.ones((1, 4)), ["m4"]), (np.ones(3), ["m4"]), (np.ones((2, 3)), ["m4"])):
        with pytest.raises(ValueError, match="one row of relation weights per target"):
            rw_finetune(model, ds, rows, cfg, targets)


def test_rwft_predictor_runs_per_domain():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=2, lr=1e-3, hidden_width=4, finetune_epochs=1)
    model, _ = train_erm(ds, cfg)
    rep = evaluate(model, ds, cfg, "test")
    assert 0.0 <= rep.mean <= 1.0
    assert list(rep.per_domain) == ds.ids_for_split("test")


# -- checkpoints ------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    ds = micro_dataset()
    cfg = TrainConfig(epochs=2, lr=1e-3, hidden_width=4, relation_width=3, relation_heads=2)
    model = build_model(ds, cfg)
    train(model, ds, cfg)
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, model, cfg, extra={"note": "roundtrip"})
    loaded, header = load_checkpoint(path)
    assert header["kind"] == "multi_head"
    assert header["config"] == cfg.to_dict()
    assert header["extra"] == {"note": "roundtrip"}
    assert loaded.head_domains == model.head_domains
    assert np.array_equal(loaded.flat, model.flat)
    a, b = score([model, loaded], ds, [("fused", cfg.beta)] * 2, "test")
    assert a.to_dict() == b.to_dict()


def test_erm_checkpoint_round_trip(tmp_path):
    ds = micro_dataset()
    cfg = TrainConfig(epochs=1, lr=1e-3, hidden_width=4)
    model, _ = train_erm(ds, cfg)
    path = str(tmp_path / "erm.npz")
    save_checkpoint(path, model, cfg)
    loaded, header = load_checkpoint(path)
    assert header["kind"] == "erm"
    assert loaded.meta_dim == 1
    a, b = score([model, loaded], ds, [None, None], "test")
    assert a.to_dict() == b.to_dict()


def test_checkpoint_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_checkpoint(str(tmp_path / "missing.npz"))
    stray = tmp_path / "stray.npz"
    np.savez(stray, a=np.ones(3))
    with pytest.raises(DataError, match="missing header"):
        load_checkpoint(str(stray))
    with pytest.raises(ValueError, match="cannot checkpoint"):
        save_checkpoint(str(tmp_path / "x.npz"), object(), TrainConfig())


def test_a_failed_checkpoint_write_leaves_no_trace(tmp_path, monkeypatch):
    ds = micro_dataset()
    cfg = TrainConfig(epochs=0, hidden_width=4, relation_width=3, relation_heads=2)
    model = build_model(ds, cfg)
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model, cfg)
    before = path.read_bytes()

    def broken_savez(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(model_module.np, "savez", broken_savez)
    for target in (path, tmp_path / "fresh.npz"):
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(target), model, cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
    assert path.read_bytes() == before


def test_non_finite_outputs_are_numerical_errors_naming_the_domain():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=0, hidden_width=4, relation_width=3, relation_heads=2)
    model = build_model(ds, cfg)
    model.head_b[...] = np.nan
    with pytest.raises(NumericalError, match="non-finite model outputs .* test domain 'm4'"):
        score([model], ds, [("fused", cfg.beta)], "test")
    erm = build_erm(ds, cfg)
    erm.head.layers[-1].b[...] = np.inf
    with pytest.raises(NumericalError, match="valid domain 'm3'"):
        evaluate(erm, ds, replace(cfg, finetune_epochs=0), "valid")
    # score names the split and the first bad model's domain
    fine = build_model(ds, cfg)
    with pytest.raises(NumericalError, match=r"^non-finite model outputs \(NaN or inf\) on test domain 'm4'$"):
        score([fine, model], ds, [("fused", cfg.beta)] * 2, "test")
    with pytest.raises(NumericalError, match="on valid domain 'm3'"):
        score([erm], ds, [None], "valid")


def _rewrite_checkpoint(src, dst, edit):
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    edit(arrays)
    np.savez(dst, **arrays)


def test_damaged_checkpoints_are_data_errors(tmp_path):
    ds = micro_dataset()
    cfg = TrainConfig(epochs=0, hidden_width=4, relation_width=3, relation_heads=2)
    good = str(tmp_path / "good.npz")
    save_checkpoint(good, build_model(ds, cfg), cfg)
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(open(good, "rb").read()[:300])
    with pytest.raises(DataError, match="truncated.npz"):
        load_checkpoint(str(truncated))

    def drop_head(arrays):
        del arrays["head/2/0/w"], arrays["head/2/0/b"]

    def drop_extractor_bias(arrays):
        del arrays["extractor/0/b"]

    def widen_head(arrays):
        arrays["head/1/0/w"] = np.zeros((2, 5))

    def poison(arrays):
        arrays["relation/w"][0, 0] = np.nan

    for edit in (drop_head, drop_extractor_bias, widen_head, poison):
        path = str(tmp_path / f"{edit.__name__}.npz")
        _rewrite_checkpoint(good, path, edit)
        with pytest.raises(DataError, match=f"{edit.__name__}.npz"):
            load_checkpoint(path)


# -- parameter buffer ---------------------------------------------------------------


def _live_params(model):
    """The arrays the model computes with, each head as its own (w, b) pair."""
    if isinstance(model, ErmModel):
        return model.params()
    heads = [a for w, b in zip(model.head_w, model.head_b) for a in (w, b)]
    return model.extractor.params() + heads + model.relation_net.params()


def _assert_tiles(model):
    """The live parameter arrays are views laid end to end over model.flat, in order."""
    start = 0
    for p in _live_params(model):
        assert np.shares_memory(p, model.flat)
        block = model.flat[start : start + p.size]
        assert np.array_equal(p.ravel(), block)
        p.ravel()[0] += 1.0  # a write through the view lands at its own offset
        assert block[0] == p.ravel()[0]
        start += p.size
    assert start == model.flat.size


def test_params_tile_the_flat_buffer():
    ds = micro_dataset()
    cfg = TrainConfig(hidden_width=4, relation_width=3, relation_heads=2)
    model = build_model(ds, cfg)
    assert model.head_w.shape == (3, 2, 4) and model.head_b.shape == (3, 2)
    assert np.shares_memory(model.head_w, model.flat)
    _assert_tiles(model)
    erm, _ = train_erm(ds, TrainConfig(epochs=0, hidden_width=4))
    _assert_tiles(erm)


def test_copy_owns_a_separate_buffer():
    ds = micro_dataset()
    model = build_model(ds, TrainConfig(hidden_width=4, relation_width=3, relation_heads=2))
    erm, _ = train_erm(ds, TrainConfig(epochs=0, hidden_width=4))
    for original in (model, erm):
        twin = model_module._bound_copy(original, original.flat.copy())
        assert np.array_equal(twin.flat, original.flat)
        assert not np.shares_memory(twin.flat, original.flat)
        twin.flat += 1.0
        assert not np.array_equal(twin.flat, original.flat)
        _assert_tiles(twin)


def test_head_tensor_shape_is_checked():
    extractor = Mlp([Layer(np.eye(2), np.zeros(2), "relu")])
    net = RelationNet.init(1, np.random.default_rng(0), width=3, n_heads=2)
    with pytest.raises(ValueError, match="one head per training domain"):
        MultiHeadModel(extractor, np.zeros((2, 1, 2)), np.zeros((2, 1)), net, ["a", "b", "c"], "regression")
    with pytest.raises(ValueError, match="extractor output"):
        MultiHeadModel(extractor, np.zeros((2, 1, 3)), np.zeros((2, 1)), net, ["a", "b"], "regression")


def test_stacked_model_rows_are_the_models():
    ds = micro_dataset()
    cfgs = [TrainConfig(hidden_width=4, relation_width=3, relation_heads=2, seed=s) for s in (1, 2)]
    models = [build_model(ds, c) for c in cfgs]
    before = [m.flat.copy() for m in models]
    stack = stack_models(models)
    assert stack.flat.shape == (2, models[0].flat.size)
    assert stack.head_w.shape == (2, 3, 2, 4)
    for j, m in enumerate(models):
        assert np.array_equal(m.flat, before[j])
        assert np.shares_memory(m.flat, stack.flat[j])
        _assert_tiles(m)
    other = build_model(micro_regression(), TrainConfig(hidden_width=4))
    with pytest.raises(ValueError, match="same structure"):
        stack_models([models[0], other])


# -- seeds in lockstep ----------------------------------------------------------------

LOCKSTEP_CASES = [
    (data, case)
    for data in ("dg15", "grid")
    for case in ("fused", "uniform", "beta1", "balanced")
] + [("dg15", "prob"), ("mixed", "mixed")]
LOCKSTEP_CONFIGS = {
    "fused": {},
    "uniform": {"relation_mode": "uniform"},
    "beta1": {"beta": 1.0},
    "balanced": {"domain_balanced_sampling": True},
    "prob": {"combine_space": "prob"},
}


# the mixed case: three dg15 worlds, each under every one of these variants
MIXED_VARIANTS = {
    "fused": {},
    "uniform": {"relation_mode": "uniform"},
    "beta1": {"beta": 1.0},
    "beta0": {"beta": 0.0},
    "lam0": {"lam": 0.0},
}


def _lockstep_setup(data, case, seeds=(4, 5, 6)):
    if data == "dg15":
        ds = gen_dg15(0, n_per_class=10)
    else:
        ds = gen_spatial_regression(0, n_rows=3, n_cols=3, n_per_domain=12)
    base = TrainConfig(lr=1e-3, epochs=3, **LOCKSTEP_CONFIGS[case])
    return ds, [replace(base, seed=s) for s in seeds]


def _rows_setup(data, case="fused", seeds=(4, 5, 6)):
    """(one dataset per row, one config per row) of a lockstep case."""
    if data != "mixed":
        ds, cfgs = _lockstep_setup(data, case, seeds)
        return [ds] * len(cfgs), cfgs
    worlds = [gen_dg15(w, n_per_class=10) for w in range(len(seeds))]
    base = TrainConfig(lr=1e-3, epochs=3)
    cfgs = [replace(base, seed=s, **over) for over in MIXED_VARIANTS.values() for s in seeds]
    return worlds * len(MIXED_VARIANTS), cfgs


@pytest.mark.parametrize("data,case", LOCKSTEP_CASES)
def test_lockstep_seeds_match_separate_runs(data, case):
    """S rows trained together end bit for bit where S separate runs do."""
    datasets, cfgs = _rows_setup(data, case)
    alone = [build_model(d, c) for d, c in zip(datasets, cfgs)]
    alone_histories = [train(m, d, c) for m, d, c in zip(alone, datasets, cfgs)]
    together = [build_model(d, c) for d, c in zip(datasets, cfgs)]
    histories = train(together, datasets, cfgs)
    assert len(histories) == len(cfgs)
    for a, t, ha, ht, d, c in zip(alone, together, alone_histories, histories, datasets, cfgs):
        assert a.flat.tobytes() == t.flat.tobytes()
        assert ha == ht
        assert not np.array_equal(t.flat, build_model(d, c).flat)  # it did train


VALID_PASS_VARIANTS = {k: MIXED_VARIANTS[k] for k in ("fused", "uniform", "beta1", "beta0")}


def reference_report(model, dataset, mode, split):
    """The split's report, one domain at a time, under mode (relation mode, beta).

    A MultiHeadModel weights its heads by the domain's normalized
    relation_row and mixes them with combine_heads; an ErmModel reads its
    features with the domain's meta-data row appended. Then the argmax or
    first-column decision.
    """
    if not isinstance(model, MultiHeadModel):
        def pooled(d, x):
            feats = np.hstack([x, np.tile(dataset.meta_for([d]), (len(x), 1))])
            return model_module._decide(model_module._pooled_outputs(model, feats), model.task)

        return evaluate_per_domain(pooled, dataset, split)
    train_ids = model.head_domains

    def predict(d, x):
        fixed_row, beta = mode_fusion(
            *mode, lambda: dataset.fixed_between([d], train_ids)[0], len(train_ids)
        )
        w = relation_row(
            model.relation_net, dataset.meta_for([d])[0], dataset.meta_for(train_ids), fixed_row, beta
        )
        return decide(model, w, x)

    return evaluate_per_domain(predict, dataset, split)


@pytest.mark.parametrize("kind", ["relational", "erm"])
@pytest.mark.parametrize(
    "data,space,variants",
    [("dg15", "logit", "seeds"), ("dg15", "logit", "all"), ("dg15", "prob", "all"),
     ("grid", "logit", "seeds"), ("grid", "logit", "all"), ("mixed", "logit", "all"),
     ("mixed", "prob", "all")],
)
def test_valid_pass_equals_evaluate_at_every_epoch(monkeypatch, kind, data, space, variants):
    """Each row's batched valid metric has the bits of evaluate on its own predictor.

    "seeds" rows differ only in seed, so one group holds the whole stack;
    "all" rows also run fused, uniform, beta 1 and beta 0, one group each,
    on one dataset or, "mixed", on three dg15 worlds.
    """
    seeds = (4, 5)
    if data == "mixed":
        datasets = [gen_dg15(w, n_per_class=10) for w in range(len(seeds))]
    elif data == "grid":  # 18 heads: enough weight rows that a rounding change shows
        datasets = [gen_spatial_regression(0, n_rows=6, n_cols=6, n_per_domain=6)] * len(seeds)
    else:
        datasets = [gen_dg15(0, n_per_class=10)] * len(seeds)
    base = TrainConfig(lr=1e-3, epochs=3, combine_space=space)
    overs = VALID_PASS_VARIANTS.values() if variants == "all" else [{}]
    cfgs = [replace(base, seed=s, **over) for over in overs for s in seeds]
    datasets = datasets * len(overs)
    real = model_module._valid_pass
    checked = []

    def checking(models, sets, configs, names):
        valid = real(models, sets, configs, names)

        def scored(stack, epoch):
            got = valid(stack, epoch)
            for j, (m, d, c) in enumerate(zip(models, sets, configs)):
                want = reference_report(m, d, (c.relation_mode, c.beta), "valid").mean
                assert got[j].hex() == want.hex(), (j, epoch)
                checked.append((j, epoch))
            return got

        return scored

    monkeypatch.setattr(model_module, "_valid_pass", checking)
    build = build_model if kind == "relational" else build_erm
    histories = train([build(d, c) for d, c in zip(datasets, cfgs)], datasets, cfgs)
    assert sorted(checked) == [(j, e) for j in range(len(cfgs)) for e in range(3)]
    assert all("valid" in entry for h in histories for entry in h)


# every relation mode at the training beta, and a beta override
SCORE_MODES = [("fused", 0.8), ("fixed", 0.8), ("learned", 0.8), ("uniform", 0.8), ("fused", 0.3)]


@pytest.mark.parametrize("kind", ["relational", "erm"])
@pytest.mark.parametrize(
    "data,space", [("dg15", "logit"), ("dg15", "prob"), ("grid", "logit"), ("mixed", "logit"),
                   ("mixed", "prob")],
)
def test_score_equals_evaluate_on_every_split(kind, data, space):
    """score's reports have the bits of evaluate on each model's own predictor.

    One call scores two trained models under every mode of SCORE_MODES, so
    its groups hold two rows of one dataset or, "mixed", one row of each of
    two dg15 worlds; an erm model reads no mode.
    """
    seeds = (4, 5)
    if data == "mixed":
        datasets = [gen_dg15(w, n_per_class=10) for w in range(len(seeds))]
    elif data == "grid":
        datasets = [gen_spatial_regression(0, n_rows=6, n_cols=6, n_per_domain=6)] * len(seeds)
    else:
        datasets = [gen_dg15(0, n_per_class=10)] * len(seeds)
    cfgs = [TrainConfig(lr=1e-3, epochs=2, seed=s, combine_space=space) for s in seeds]
    build = build_model if kind == "relational" else build_erm
    trained = [build(d, c) for d, c in zip(datasets, cfgs)]
    train(trained, datasets, cfgs)
    modes = SCORE_MODES if kind == "relational" else [None]
    rows = [(m, d, mode) for mode in modes for m, d in zip(trained, datasets)]
    models, sets, row_modes = (list(v) for v in zip(*rows))
    before = [m.flat.copy() for m in trained]
    for split in ("valid", "test"):
        got = score(models, sets, row_modes, split)
        assert len(got) == len(rows)
        for rep, (m, d, mode) in zip(got, rows):
            want = reference_report(m, d, mode, split)
            assert (rep.metric, rep.split, list(rep.per_domain)) == (want.metric, split,
                                                                     list(want.per_domain))
            assert [v.hex() for v in rep.per_domain.values()] == [
                v.hex() for v in want.per_domain.values()
            ]
            assert (rep.mean.hex(), rep.worst.hex()) == (want.mean.hex(), want.worst.hex())
            per = list(rep.per_domain.values())
            assert rep.worst == (min(per) if rep.metric == "accuracy" else max(per))
            assert rep.n_examples == want.n_examples == {
                i: len(d.domain_arrays(i)[1]) for i in d.ids_for_split(split)
            }
    assert all(np.array_equal(m.flat, b) for m, b in zip(trained, before))


def test_score_weights_each_group_through_one_relation_row_call(monkeypatch):
    """One learned_matrix call per relational group of a score call, through relation_row,
    and one combine_heads call per domain of each group."""
    calls = dict.fromkeys(["learned_matrix", "relation_row", "combine_heads"], 0)
    for module, name in [(relations_module, "learned_matrix"), (model_module, "relation_row"),
                         (model_module, "combine_heads")]:
        def counting(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    worlds = [gen_dg15(w, n_per_class=10) for w in (0, 1)]
    a, b = (build_model(worlds[0], TrainConfig(seed=s)) for s in (4, 5))
    c = build_model(worlds[1], TrainConfig(seed=6))
    # four groups: world 0 fused (rows a and b), world 1 fused, and each world uniform
    rows = [(a, worlds[0], ("fused", 0.8)), (b, worlds[0], ("fused", 0.8)),
            (c, worlds[1], ("fused", 0.8)), (a, worlds[0], ("uniform", 0.8)),
            (c, worlds[1], ("uniform", 0.8))]
    models, sets, modes = (list(v) for v in zip(*rows))
    reports = score(models, sets, modes, "test")
    assert len(reports) == 5
    per_world = [len(d.ids_for_split("test")) for d in worlds]
    assert calls == {"learned_matrix": 4, "relation_row": 4,
                     "combine_heads": 2 * per_world[0] + 2 * per_world[1]}


def test_score_checks_its_modes_and_splits():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=0, hidden_width=4, relation_width=3, relation_heads=2)
    model = build_model(ds, cfg)
    with pytest.raises(ConfigError, match="unknown relation mode 'nearest'"):
        score([model], ds, [("nearest", 0.8)], "test")
    with pytest.raises(ConfigError, match="beta must lie in"):
        score([model], ds, [("uniform", 1.5)], "test")
    with pytest.raises(DataError, match="no domains in split 'valid'"):
        score([model], replace(ds, split={**ds.split, "m3": "test"}), [("fused", 0.8)], "valid")


def test_score_warns_once_per_group_about_its_fallback_rows(caplog):
    """On a 6x6 grid at beta 1, 6 of the 9 test cells have no adjacent training cell;
    one score call logs them, for all its rows, in one warning that names them."""
    ds = gen_spatial_regression(0, n_rows=6, n_cols=6, n_per_domain=6)
    models = [build_model(ds, TrainConfig(seed=s)) for s in (4, 5)]
    cells = "r4c1, r4c3, r4c5, r5c1, r5c3, r5c5"
    for rows, count in (([models[0]], "6 of 9"), (models, "12 of 18")):
        caplog.clear()
        with caplog.at_level("WARNING", logger="relgen.relations"):
            score(rows, ds, [("fused", 1.0)] * len(rows), "test")
        assert [r.getMessage() for r in caplog.records] == [
            f"all-zero relation rows: {count} ({cells}); falling back to uniform weights"
        ]


def test_valid_pass_warning_names_exactly_its_fallback_cells(caplog):
    """Training at beta 1 on a 6x6 grid: each epoch's valid pass warns once and names
    the 6 valid cells that no training cell is adjacent to, and no other."""
    ds = gen_spatial_regression(0, n_rows=6, n_cols=6, n_per_domain=6)
    valid_ids = ds.ids_for_split("valid")
    rows = ds.fixed_between(valid_ids, ds.ids_for_split("train"))
    lonely = [d for d, row in zip(valid_ids, rows) if not row.any()]
    assert lonely == ["r4c0", "r4c2", "r4c4", "r5c0", "r5c2", "r5c4"]
    cfg = TrainConfig(beta=1.0, epochs=2, lr=1e-3)
    with caplog.at_level("WARNING", logger="relgen.relations"):
        train(build_model(ds, cfg), ds, cfg)
    assert [r.getMessage() for r in caplog.records] == [
        f"all-zero relation rows: 6 of 9 ({', '.join(lonely)}); falling back to uniform weights"
    ] * 2


@pytest.mark.parametrize("data,case", LOCKSTEP_CASES)
def test_lockstep_gradient_writes_every_slice(data, case):
    """One stacked step fills a NaN-filled buffer with each row's own gradient."""
    datasets, cfgs = _rows_setup(data, case)
    models = [build_model(d, c) for d, c in zip(datasets, cfgs)]
    singles = [model_module._bound_copy(m, m.flat.copy()) for m in models]
    stack = stack_models(models)
    rng = np.random.default_rng(3)
    rows = []  # each row's batch, fixed relations, metas, lam and beta
    for d, c in zip(datasets, cfgs):
        ids = d.ids_for_split("train")
        x, y, dom = d.arrays_for(ids)
        k = len(ids)
        fixed, beta = mode_fusion(c.relation_mode, c.beta, lambda: d.fixed_between(ids, ids), (k, k))
        b = rng.permutation(len(y))[:10]
        rows.append(((x[b], y[b], dom[b]), fixed, d.meta_for(ids), c.lam, beta))
    batches, fixed, metas, lam, beta = zip(*rows)
    batch = tuple(np.stack(v) for v in zip(*batches))
    # as train passes them: one row per model
    fixed, metas, lam, beta = (np.stack(v) for v in (fixed, metas, lam, beta))
    grad = np.full_like(stack.flat, np.nan)
    batch = (batch[0], model_module._targets(stack, batch[1]), batch[2])
    plan = plan_step(stack, fixed, beta, grad)
    loss, (lp, lrel), out = total_loss_and_grads(stack, batch, metas, lam, plan)
    assert out is grad and np.isfinite(grad).all()
    net_grads = stack.views(grad)[3]
    for j, (m, row, c) in enumerate(zip(singles, rows, cfgs)):
        one = one_step(m, *row)
        assert (one[0], one[1]) == (loss[j], (lp[j], lrel[j]))
        assert one[2].tobytes() == grad[j].tobytes()
        # uniform and beta-1 rows read no learned relations, and lam 0 sends
        # no gradient through the consistency term
        no_net = c.relation_mode == "uniform" or c.beta == 1.0 or c.lam == 0.0
        assert all((g[j] == 0.0).all() for g in net_grads) == no_net  # zeroed, not left stale


def test_lockstep_training_keeps_its_recorded_bits():
    # recorded before the step was planned once per train call and the valid
    # split was scored in one pass; a change to the order of the step's ops,
    # to a loss or to the valid metric moves these bits
    ds = gen_dg15(0)
    cfgs = [TrainConfig(lr=1e-3, epochs=2, seed=s) for s in (0, 1, 2)]
    models = [build_model(ds, c) for c in cfgs]
    histories = train(models, ds, cfgs)
    assert [hashlib.sha256(m.flat.tobytes()).hexdigest() for m in models] == [
        "6d42e395f34e3f2a36282707e17de3be87685c061e8090ea5c86e09fb27096fa",
        "41ea8388e694c71b40f9592f0d926c3c6e2a0f8ddc31da0cb979456e256722b6",
        "67878b3a471dcf4349df54b0a139ff598c2455a8c487f4cf38b2608275a9cccd",
    ]
    got = [[[e[k].hex() for k in ("loss", "loss_pred", "loss_rel", "valid")] for e in h]
           for h in histories]
    assert got == [
        [["0x1.219e2dc521b84p-1", "0x1.55309a8a742a0p-2", "0x1.dc1781ff9e8d0p-2",
          "0x1.2f1a9fbe76c8bp-1"],
         ["0x1.5af548c1dcdd1p-3", "0x1.675f57cd332dap-4", "0x1.4e8b39b6868c4p-3",
          "0x1.28f5c28f5c28fp-1"]],
        [["0x1.326fbaf55a0c8p-1", "0x1.7f742e61932b3p-2", "0x1.cad68f1241db8p-2",
          "0x1.20c49ba5e353fp-1"],
         ["0x1.7c406858bb5eep-3", "0x1.93af947b9d9abp-4", "0x1.64d13c35d9233p-3",
          "0x1.24dd2f1a9fbe7p-1"]],
        [["0x1.3e61b3f4d1e5ep-1", "0x1.a8177273ce39fp-2", "0x1.a957eaebab23cp-2",
          "0x1.126e978d4fdf3p-1"],
         ["0x1.94ed639191964p-3", "0x1.de7216d21ea38p-4", "0x1.4b68b05104891p-3",
          "0x1.26e978d4fdf3bp-1"]],
    ]


def test_lockstep_regression_training_keeps_its_recorded_bits():
    # one-output heads on a 6x6 grid, recorded before the step's head input
    # gradient and Adam's update were rewritten; the c = 1 head path, the
    # adjacency relations and the MSE loss must keep these bits
    ds = gen_spatial_regression(0, n_rows=6, n_cols=6)
    cfgs = [TrainConfig(lr=1e-3, epochs=2, seed=s) for s in (0, 1)]
    models = [build_model(ds, c) for c in cfgs]
    histories = train(models, ds, cfgs)
    assert [hashlib.sha256(m.flat.tobytes()).hexdigest() for m in models] == [
        "c0e60b1459731560225e92cd18c33f10870fe776ec7e32bcd16408805298850e",
        "bc27947946059fc745cd3ea7f6b6ab27adc22e193742c0f164a152053c0513b8",
    ]
    got = [[[e[k].hex() for k in ("loss", "loss_pred", "loss_rel", "valid")] for e in h]
           for h in histories]
    assert got == [
        [["0x1.0a5ebc1335b4dp+2", "0x1.62dde479fbed6p+1", "0x1.63bf2758def90p+1",
          "0x1.03bde9546ce02p+3"],
         ["0x1.51c200fc09de9p+1", "0x1.be4f1e92fd804p+0", "0x1.ca69c6ca2c79cp+0",
          "0x1.aeb9200c154dcp+2"]],
        [["0x1.1384908097309p+2", "0x1.6e760890eec9ap+1", "0x1.712630e07f2f2p+1",
          "0x1.06091d116a456p+3"],
         ["0x1.60cb9490a8e29p+1", "0x1.d3f4e61b29689p+0", "0x1.db44860c50b90p+0",
          "0x1.87edac0774d30p+2"]],
    ]


def test_pooled_training_and_fine_tunes_keep_their_recorded_bits():
    # three pooled seeds, then a (T, K) block of fine-tunes of the first one,
    # recorded before the pooled step and Adam's update were rewritten
    ds = gen_dg15(0)
    cfgs = [TrainConfig(lr=1e-3, epochs=2, seed=s, finetune_epochs=2) for s in (0, 1, 2)]
    models = [build_erm(ds, c) for c in cfgs]
    histories = train(models, ds, cfgs)
    assert [hashlib.sha256(m.flat.tobytes()).hexdigest() for m in models] == [
        "bb1a5f250b3a100353b67473171830cf70e4ac0a0209474679599f22d9e1ed41",
        "8c2c15834510e949f0b71e0104bf2a0196b8b97b1cae8e124a50f33cbd28fba4",
        "0bf195958411e5bb0bf9263e069d075852174b6026f14fd3c59673d9cb111194",
    ]
    got = [[[e[k].hex() for k in ("loss", "valid")] for e in h] for h in histories]
    assert got == [
        [["0x1.5236e0a04abb2p-1", "0x1.916872b020c4ap-2"],
         ["0x1.9cc59fb98183ep-2", "0x1.b020c49ba5e35p-2"]],
        [["0x1.3ba17f2ee4ae5p-1", "0x1.b020c49ba5e33p-2"],
         ["0x1.9ed588bc5ff76p-2", "0x1.d916872b020c3p-2"]],
        [["0x1.4306be6320982p-1", "0x1.be76c8b439580p-2"],
         ["0x1.6f2db5f5955cep-2", "0x1.c6a7ef9db22d0p-2"]],
    ]
    test_ids = ds.ids_for_split("test")
    rows = ds.fixed_between(test_ids, ds.ids_for_split("train"))
    tuned = rw_finetune(models[0], ds, rows, cfgs[0], targets=test_ids)
    assert [hashlib.sha256(m.flat.tobytes()).hexdigest() for m in tuned] == [
        "3f62e733ea6d785f424ee10de93d42d26da06c7c9dbbf8aeaedd388a856010b4",
        "c20e6ac30eb424b79d3bed18a47514834909c4035775ed3b098734efc55924da",
        "ed4d1fad581b54fd42406286ad1ac9d287ac081dd3333d42c8cdd3706ce94589",
        "c035cd21eb7137850e754ab22322900f38d32cade6a823b15d01150b9df22db0",
        "62111a4a46239cbe02559c561093e407a6ad7c041e5feac1624c6c13c5471a0c",
    ]


def test_a_diverging_seed_is_named():
    ds, cfgs = _lockstep_setup("dg15", "fused")
    models = [build_model(ds, c) for c in cfgs]
    models[1].head_w[...] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="seed 5 at epoch 0"):
        train(models, ds, cfgs)
    # in a mixed call the name adds each field in which the rows differ
    cfgs = [replace(c, lam=lam) for c, lam in zip(cfgs, (0.5, 0.0, 0.5))]
    models = [build_model(ds, c) for c in cfgs]
    models[1].head_w[...] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="seed 5, lam 0 at epoch 0"):
        train(models, ds, cfgs)


def test_lockstep_configs_must_differ_only_in_seed():
    """Rows may differ in seed, lam, beta, relation mode and dataset; not in lr, epochs or shape."""
    ds, cfgs = _lockstep_setup("dg15", "fused", seeds=(1, 2))
    models = [build_model(ds, c) for c in cfgs]
    for other in (replace(cfgs[1], lr=0.1), replace(cfgs[1], epochs=1)):
        with pytest.raises(ConfigError, match="only in dataset, seed, lam, beta, relation_mode"):
            train(models, ds, [cfgs[0], other])
    bigger = gen_dg15(1, n_per_class=12)
    with pytest.raises(ConfigError, match="training sets of one shape"):
        train([models[0], build_model(bigger, cfgs[1])], [ds, bigger], cfgs)


# -- pooled models and fine-tunes in lockstep ------------------------------------------


@pytest.mark.parametrize("data", ["dg15", "grid", "mixed"])
@pytest.mark.parametrize("case", ["plain", "balanced"])
def test_lockstep_erm_matches_separate_runs(data, case):
    """S pooled rows trained together end bit for bit where S train_erm runs do."""
    datasets, cfgs = _rows_setup(data)
    if case == "balanced":
        cfgs = [replace(c, domain_balanced_sampling=True) for c in cfgs]
    alone = [train_erm(d, c) for d, c in zip(datasets, cfgs)]
    together = [build_erm(d, c) for d, c in zip(datasets, cfgs)]
    histories = train(together, datasets, cfgs)
    assert len(histories) == len(cfgs)
    for (a, ha), t, ht, d, c in zip(alone, together, histories, datasets, cfgs):
        assert a.flat.tobytes() == t.flat.tobytes()
        assert ha == ht
        assert "valid" in ht[-1]
        assert not np.array_equal(t.flat, build_erm(d, c).flat)  # it did train


def test_stacked_erm_rows_are_the_models():
    ds = micro_dataset()
    models = [build_erm(ds, TrainConfig(hidden_width=4, seed=s)) for s in (1, 2, 3)]
    before = [m.flat.copy() for m in models]
    stack = stack_models(models)
    assert stack.flat.shape == (3, models[0].flat.size)
    assert stack.extractor.layers[0].w.shape == (3, 4, 3)
    for j, m in enumerate(models):
        assert np.array_equal(m.flat, before[j])
        assert np.shares_memory(m.flat, stack.flat[j])
        _assert_tiles(m)
    with pytest.raises(ValueError, match="same structure"):
        stack_models([models[0], build_model(ds, TrainConfig(hidden_width=4))])
    with pytest.raises(ValueError, match="same structure"):
        stack_models([models[0], build_erm(ds, TrainConfig(hidden_width=5))])


@pytest.mark.parametrize("data", ["dg15", "grid"])
@pytest.mark.parametrize("finetune_epochs", [0, 3])
def test_lockstep_rw_finetune_equals_one_call_per_row(data, finetune_epochs):
    ds, cfgs = _lockstep_setup(data, "fused")
    cfg = replace(cfgs[0], finetune_epochs=finetune_epochs)
    erm, _ = train_erm(ds, cfg)
    k = len(ds.ids_for_split("train"))
    rows = np.random.default_rng(2).uniform(size=(4, k))
    rows[1] = 0.0  # falls back to uniform weights
    rows[3, ::2] = 0.0
    targets = [f"t{j}" for j in range(len(rows))]
    tuned = rw_finetune(erm, ds, rows, cfg, targets)
    assert len(tuned) == len(rows)
    for row, target, t in zip(rows, targets, tuned):
        (one,) = rw_finetune(erm, ds, row[None], cfg, [target])
        assert isinstance(one, ErmModel)
        assert one.flat.tobytes() == t.flat.tobytes()
    assert (tuned[0].flat.tobytes() == erm.flat.tobytes()) == (finetune_epochs == 0)


def test_rw_finetune_trains_each_distinct_row_once(monkeypatch):
    """On a 6x6 grid's test split, 6 of the 9 fixed relation rows fall back to uniform
    weights and 4 rows are distinct: 4 fine-tunes train, and every target gets an
    independent model with the bits of its own one-row call."""
    ds = gen_spatial_regression(0, n_rows=6, n_cols=6, n_per_domain=6)
    cfg = TrainConfig(lr=1e-3, epochs=1, finetune_epochs=2)
    erm, _ = train_erm(ds, cfg)
    ids = ds.ids_for_split("test")
    rows = ds.fixed_between(ids, ds.ids_for_split("train"))
    assert len(ids) == 9 and len(np.unique(normalize_rows(rows), axis=0)) == 4
    trained = []
    real_loop = model_module._train_loop

    def loop(models, *args):
        trained.append(len(models))
        return real_loop(models, *args)

    monkeypatch.setattr(model_module, "_train_loop", loop)
    tuned = rw_finetune(erm, ds, rows, cfg, ids)
    assert trained == [4]
    assert len(tuned) == 9
    for j, (row, d, t) in enumerate(zip(rows, ids, tuned)):
        (one,) = rw_finetune(erm, ds, row[None], cfg, [d])
        assert one.flat.tobytes() == t.flat.tobytes()
        assert not any(np.shares_memory(t.flat, u.flat) for u in tuned[:j])
    assert trained == [4] + [1] * 9


def test_rwft_predictor_tunes_a_split_in_one_call(monkeypatch):
    """evaluate tunes a split's copies in one rw_finetune call and scores each on its own
    domain, calling no score; each domain's value has the bits of its own copy tuned and
    scored alone."""
    ds = gen_dg15(0, n_per_class=10)
    cfg = TrainConfig(lr=1e-3, epochs=2, finetune_epochs=2)
    erm, _ = train_erm(ds, cfg)
    calls = []
    real_tune, real_score = model_module.rw_finetune, model_module.score

    def tuning(*args):
        calls.append(("rw_finetune", np.shape(args[2])))
        return real_tune(*args)

    def scoring(*args):
        calls.append(("score", len(args[0])))
        return real_score(*args)

    monkeypatch.setattr(model_module, "rw_finetune", tuning)
    monkeypatch.setattr(model_module, "score", scoring)
    train_ids = ds.ids_for_split("train")
    for split in ("test", "valid"):
        ids = ds.ids_for_split(split)
        calls.clear()
        rep = evaluate(erm, ds, cfg, split)
        assert calls == [("rw_finetune", (len(ids), len(train_ids)))]
        assert list(rep.per_domain) == ids
        for d in ids:
            (one,) = real_tune(erm, ds, ds.fixed_between([d], train_ids), cfg, [d])
            want = real_score([one], ds, [None], split)[0].per_domain[d]
            assert rep.per_domain[d].hex() == want.hex()


def test_a_fine_tune_is_scored_on_its_own_domain_only(monkeypatch):
    """A fine-tune whose outputs are non-finite on another domain of the split does not
    stop the eval: each copy is read on its own domain alone."""
    ds = gen_dg15(0, n_per_class=10)
    cfg = TrainConfig(lr=1e-3, epochs=1, finetune_epochs=1)
    erm, _ = train_erm(ds, cfg)
    ids = ds.ids_for_split("test")
    metas = ds.meta_for(ids)[:, 0]
    assert metas[0] < 0.0 < 1.0 < metas.max()
    real_tune = model_module.rw_finetune
    tuned = []

    def tuning(*args):
        tuned[:] = real_tune(*args)
        # hidden unit 0 reads the meta-data alone: 0 on the first copy's own (negative
        # angle) domain, inf on the split's domain of largest angle
        ext, head = tuned[0].extractor.layers[0], tuned[0].head.layers[0]
        ext.w[0], ext.b[0], head.w[:, 0] = 0.0, 0.0, 1e-3
        ext.w[0, -1] = 1e308
        return tuned

    monkeypatch.setattr(model_module, "rw_finetune", tuning)
    rep = evaluate(erm, ds, cfg, "test")
    far = ids[int(np.argmax(metas))]
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match=f"test domain {far!r}"):
        score(tuned[:1], ds, [None], "test")
    assert list(rep.per_domain) == ids
    assert all(0.0 <= v <= 1.0 for v in rep.per_domain.values())


def test_a_diverging_erm_seed_or_fine_tune_is_named():
    ds, cfgs = _lockstep_setup("dg15", "fused")
    models = [build_erm(ds, c) for c in cfgs]
    models[2].head.layers[0].w[...] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="seed 6 at epoch 0, batch 0"):
        train(models, ds, cfgs)
    erm = build_erm(ds, cfgs[0])
    erm.head.layers[0].w[...] = 1e308  # finite, but the logits overflow
    rows = np.ones((2, len(ds.ids_for_split("train"))))
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="domain 'd01' at epoch 0"):
        rw_finetune(erm, ds, rows, cfgs[0], targets=["d01", "d02"])
    # a non-finite pooled model is named the same way, not refused by a copy's constructor
    erm = build_erm(ds, cfgs[0])
    erm.flat[0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(
        NumericalError, match="for the fine-tune for domain 'd01' at epoch 0, batch 0"
    ):
        rw_finetune(erm, ds, rows, cfgs[0], targets=["d01", "d02"])


@pytest.mark.parametrize("build", [build_erm, build_model])
def test_a_non_finite_parameter_in_the_first_row_is_named(build):
    """Row 0 gets the same NumericalError as any other row, not the constructor's ValueError."""
    ds, cfgs = _lockstep_setup("dg15", "fused")
    models = [build(ds, c) for c in cfgs]
    models[0].flat[0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="seed 4 at epoch 0, batch 0"):
        train(models, ds, cfgs)


def test_a_non_finite_gradient_under_a_finite_loss_is_named():
    ds, cfgs = _lockstep_setup("dg15", "fused", seeds=(4, 5))
    models = [build_erm(ds, c) for c in cfgs]
    # tiny extractor weights keep the logits finite; the huge head overflows the
    # extractor's gradient
    models[1].extractor.layers[0].w[...] *= 1e-309
    models[1].head.layers[0].w[...] = [[1.7e308], [-1.7e308]]
    with np.errstate(all="ignore"), pytest.raises(
        NumericalError, match="non-finite gradient for seed 5 at epoch 0, batch 0"
    ):
        train(models, ds, cfgs)


# -- end-to-end sanity on the benchmark ---------------------------------------------


def test_small_benchmark_end_to_end():
    ds = gen_dg15(0, n_per_class=6)
    cfg = TrainConfig(epochs=4, lr=1e-3)
    model = build_model(ds, cfg)
    train(model, ds, cfg)
    rep = score([model], ds, [("fused", cfg.beta)], "test")[0]
    assert set(rep.per_domain) == set(ds.ids_for_split("test"))
    assert 0.0 <= rep.mean <= 1.0
