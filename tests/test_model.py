"""Multi-head model: loss terms against hand arithmetic, the full gradient
suite against finite differences, training/checkpoint behavior, and the
pooled baseline plus reweighted fine-tuning."""

import math
from dataclasses import replace

import numpy as np
import pytest

from relgen.data import DomainDataset, gen_dg15, gen_spatial_regression
from relgen.errors import ConfigError, DataError, NumericalError
from relgen.model import (
    ErmModel,
    MultiHeadModel,
    TrainConfig,
    build_model,
    combine_heads,
    erm_predictor,
    evaluate,
    infer,
    infer_uniform,
    load_checkpoint,
    loss_pred,
    loss_rel,
    predict_head,
    relational_predictor,
    rw_finetune,
    rwft_predictor,
    save_checkpoint,
    stack_models,
    total_loss,
    total_loss_and_grads,
    train,
    train_erm,
)
from relgen.nn import Layer, Mlp, grad_check
from relgen.relations import RelationNet


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


def test_loss_pred_hand_computed():
    model = constant_model([1.0, 2.0, 4.0])
    # own-head squared errors against zero targets: 1, 4, 16
    assert loss_pred(model, THREE_DOMAIN_BATCH) == pytest.approx(7.0, abs=1e-14)


def test_loss_rel_hand_computed():
    model = constant_model([1.0, 2.0, 4.0])
    # domain 0: weights (.5,.25)->(2/3,1/3), mix 8/3, se 64/9
    # domain 1: weights (.5,1)->(1/3,2/3),  mix 3,   se 9
    # domain 2: weights (.25,1)->(.2,.8),   mix 1.8, se 81/25
    expect = (64.0 / 9.0 + 9.0 + 81.0 / 25.0) / 3.0
    got = loss_rel(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS)
    assert got == pytest.approx(expect, abs=1e-14)


def test_total_loss_is_affine_in_lambda():
    model = constant_model([1.0, 2.0, 4.0])
    lp = loss_pred(model, THREE_DOMAIN_BATCH)
    lr = loss_rel(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS)
    for lam in (0.0, 0.3, 1.0, 2.5):
        got = total_loss(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS, lam)
        assert got == pytest.approx(lp + lam * lr, abs=1e-12)
    with pytest.raises(ConfigError):
        total_loss(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS, -0.1)


def test_consistency_ignores_self_relations():
    model = constant_model([1.0, 2.0, 4.0])
    base = loss_rel(model, THREE_DOMAIN_BATCH, THREE_DOMAIN_RELATIONS)
    boosted = THREE_DOMAIN_RELATIONS.copy()
    np.fill_diagonal(boosted, 1e6)
    assert loss_rel(model, THREE_DOMAIN_BATCH, boosted) == pytest.approx(base, abs=1e-12)


def test_unrelated_row_falls_back_to_uniform_over_others():
    model = constant_model([1.0, 2.0, 4.0])
    lonely = np.eye(3)  # every row all-zero once self is excluded
    got = loss_rel(model, THREE_DOMAIN_BATCH, lonely)
    want = loss_rel(model, THREE_DOMAIN_BATCH, "uniform")
    assert got == pytest.approx(want, abs=1e-14)
    # uniform mixes: dom0 (2+4)/2=3, dom1 (1+4)/2=2.5, dom2 (1+2)/2=1.5
    assert want == pytest.approx((9.0 + 6.25 + 2.25) / 3.0, abs=1e-14)


def test_equal_heads_make_both_losses_agree():
    for space in ("logit", "prob"):
        model = constant_model([1.3, 1.3, 1.3], task="classification", combine_space=space, out=2)
        batch = (np.ones((3, 2)), np.array([0, 1, 0]), np.array([0, 1, 2]))
        rel = np.random.default_rng(3).uniform(0.1, 1.0, size=(3, 3))
        rel = (rel + rel.T) / 2
        lp = loss_pred(model, batch)
        lr = loss_rel(model, batch, rel)
        assert lr == pytest.approx(lp, abs=1e-12)


def test_loss_rel_rejects_bad_relations():
    model = constant_model([1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="relation matrix"):
        loss_rel(model, THREE_DOMAIN_BATCH, np.eye(4))


def test_prob_space_mixture_floor_keeps_loss_finite():
    model = constant_model([0.0, 0.0, 0.0], task="classification", combine_space="prob", out=2)
    # make head outputs extreme and opposed so the mixed probability of the
    # true label underflows to the floor
    model.head_b[0] = [800.0, -800.0]
    model.head_b[1] = [800.0, -800.0]
    model.head_b[2] = [800.0, -800.0]
    batch = (np.ones((3, 2)), np.array([1, 1, 1]), np.array([0, 1, 2]))
    val = loss_rel(model, batch, "uniform")
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
    fixed = ds.fixed_matrix(train_ids)

    def fn(params):
        np.copyto(model.flat, params[0])
        loss, _, grad = total_loss_and_grads(
            model, (x, y, dom), fixed, metas, lam, beta, relation_mode
        )
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
    fixed = ds.fixed_matrix(train_ids)
    loss, (lp, lrel), _ = total_loss_and_grads(model, (x, y, dom), fixed, metas, 0.5, 1.0)
    assert lp == pytest.approx(loss_pred(model, (x, y, dom)), abs=1e-12)
    assert lrel == pytest.approx(loss_rel(model, (x, y, dom), np.maximum(fixed, 0.0)), abs=1e-12)
    assert loss == pytest.approx(lp + 0.5 * lrel, abs=1e-12)


# -- inference ----------------------------------------------------------------------


def test_one_hot_weights_pick_a_single_head():
    model = constant_model([1.0, 2.0, 4.0])
    x = np.ones((3, 2))
    out = combine_heads(model, [0.0, 1.0, 0.0], x)
    assert np.allclose(out, 2.0)
    assert predict_head(model, "d1", x) == pytest.approx(out)


def test_zero_weights_fall_back_to_uniform(caplog):
    model = constant_model([1.0, 2.0, 4.0])
    with caplog.at_level("WARNING", logger="relgen.relations"):
        out = combine_heads(model, [0.0, 0.0, 0.0], np.ones(2))
    assert out[0] == pytest.approx((1.0 + 2.0 + 4.0) / 3.0, abs=1e-14)
    assert any("all-zero" in r.message for r in caplog.records)


def test_weights_are_scale_invariant():
    model = constant_model([1.0, 2.0, 4.0])
    a = combine_heads(model, [1.0, 2.0, 1.0], np.ones(2))
    b = combine_heads(model, [10.0, 20.0, 10.0], np.ones(2))
    assert np.array_equal(a, b)


def test_argmax_invariant_under_logit_rescale():
    rng = np.random.default_rng(9)
    model = constant_model([0.0, 0.0], task="classification", out=3)
    for b in model.head_b:
        b[:] = rng.normal(size=3)
    x = np.ones((4, 2))
    w = [0.3, 0.7]
    before = infer(model, w, x)
    for b in model.head_b:
        b *= 5.5
    after = infer(model, w, x)
    assert np.array_equal(before, after)


def test_infer_uniform_equals_equal_weights():
    model = constant_model([1.0, 2.0, 4.0])
    x = np.ones((2, 2))
    assert np.array_equal(infer_uniform(model, x), infer(model, np.ones(3), x))


def test_infer_returns_scalar_for_single_example():
    model = constant_model([1.0, 3.0])
    out = infer(model, [1.0, 1.0], np.ones(2))
    assert isinstance(out, float)
    assert out == pytest.approx(2.0)
    cls = constant_model([0.0, 0.0], task="classification", out=2)
    cls.head_b[0] = [0.0, 1.0]
    cls.head_b[1] = [0.0, 1.0]
    assert infer(cls, [1.0, 1.0], np.ones(2)) == 1


def test_prob_space_combination_is_a_distribution():
    model = constant_model([0.0, 0.0], task="classification", combine_space="prob", out=3)
    model.head_b[0] = [5.0, 0.0, -5.0]
    model.head_b[1] = [-5.0, 0.0, 5.0]
    out = combine_heads(model, [0.5, 0.5], np.ones((3, 2)))
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_relational_predictor_modes():
    ds = micro_dataset()
    cfg = TrainConfig(hidden_width=3, relation_width=3, relation_heads=2, seed=3)
    model = build_model(ds, cfg)
    x, _ = ds.domain_arrays("m4")
    uni = relational_predictor(model, ds, 0.8, "uniform")("m4", x)
    assert np.array_equal(uni, infer_uniform(model, x))
    for mode in ("fused", "fixed", "learned"):
        out = relational_predictor(model, ds, 0.8, mode)("m4", x)
        assert out.shape == (x.shape[0],)
    with pytest.raises(ConfigError):
        relational_predictor(model, ds, 0.8, "nearest")


def test_predict_head_rejects_unknown_domain():
    model = constant_model([1.0, 2.0])
    with pytest.raises(ValueError, match="unknown training domain"):
        predict_head(model, "nope", np.ones(2))


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
    before = [p.copy() for p in model.params()]
    history = train(model, ds, cfg)
    assert history == []
    for p, q in zip(model.params(), before):
        assert np.array_equal(p, q)


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
    final = evaluate(relational_predictor(model, ds, cfg.beta, "fused"), ds, "valid")
    assert final.mean == pytest.approx(max(h["valid"] for h in history), abs=1e-12)


def test_training_is_deterministic_per_seed():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=3, lr=1e-3, hidden_width=4, relation_width=3, relation_heads=2, seed=5)
    m1 = build_model(ds, cfg)
    h1 = train(m1, ds, cfg)
    m2 = build_model(ds, cfg)
    h2 = train(m2, ds, cfg)
    assert h1 == h2
    for p, q in zip(m1.params(), m2.params()):
        assert np.array_equal(p, q)
    cfg2 = TrainConfig(epochs=3, lr=1e-3, hidden_width=4, relation_width=3, relation_heads=2, seed=6)
    m3 = build_model(ds, cfg2)
    train(m3, ds, cfg2)
    assert any(not np.array_equal(p, q) for p, q in zip(m1.params(), m3.params()))


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
    perfect = evaluate(lambda d, x: truth[d], ds, "test")
    assert perfect.mean == 1.0 and perfect.worst == 1.0
    assert perfect.metric == "accuracy"
    zeros = evaluate(lambda d, x: np.zeros(len(x)), ds, "train")
    assert zeros.mean == pytest.approx(0.5)  # labels are balanced
    report = perfect.to_dict()
    assert report["split"] == "test" and report["n_examples"] == {"m4": 4}


def test_evaluate_regression_worst_is_the_max_error():
    ds = gen_spatial_regression(0, n_rows=3, n_cols=3, n_per_domain=6, noise=0.0)
    rep = evaluate(lambda d, x: np.zeros(len(x)), ds, "test")
    assert rep.metric == "mse"
    assert rep.worst == pytest.approx(max(rep.per_domain.values()))
    truth = {d: ds.domain_arrays(d)[1] for d in ds.ids}
    exact = evaluate(lambda d, x: truth[d], ds, "test")
    assert exact.mean == 0.0


def test_evaluate_requires_a_populated_split():
    ds = micro_dataset()
    none_valid = DomainDataset(
        x=ds.x, y=ds.y, domain=ds.domain, ids=ds.ids, meta=ds.meta,
        split={"m0": "train", "m1": "train", "m2": "train", "m3": "train", "m4": "test"},
        task="classification",
    )
    with pytest.raises(DataError, match="no domains"):
        evaluate(lambda d, x: np.zeros(len(x)), none_valid, "valid")


# -- pooled baseline and fine-tuning ---------------------------------------------------


def test_erm_training_and_prediction_shapes():
    ds = micro_dataset(n_per_domain=8)
    cfg = TrainConfig(epochs=6, lr=5e-3, hidden_width=8)
    model, history = train_erm(ds, cfg)
    assert len(history) == 6
    rep = evaluate(erm_predictor(model, ds), ds, "test")
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
    tuned = rw_finetune(model, ds, np.ones(3), cfg)
    for p, q in zip(tuned.params(), model.params()):
        assert np.array_equal(p, q)


def test_rw_finetune_weights_are_scale_invariant():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=2, lr=1e-3, hidden_width=4, finetune_epochs=2)
    model, _ = train_erm(ds, cfg)
    t1 = rw_finetune(model, ds, np.array([1.0, 2.0, 1.0]), cfg)
    t2 = rw_finetune(model, ds, np.array([10.0, 20.0, 10.0]), cfg)
    for p, q in zip(t1.params(), t2.params()):
        assert np.array_equal(p, q)
    with pytest.raises(ValueError, match="one relation weight"):
        rw_finetune(model, ds, np.ones(4), cfg)


def test_rwft_predictor_runs_per_domain():
    ds = micro_dataset()
    cfg = TrainConfig(epochs=2, lr=1e-3, hidden_width=4, finetune_epochs=1)
    model, _ = train_erm(ds, cfg)
    rep = evaluate(rwft_predictor(model, ds, cfg), ds, "test")
    assert 0.0 <= rep.mean <= 1.0


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
    for p, q in zip(loaded.params(), model.params()):
        assert np.array_equal(p, q)
    a = evaluate(relational_predictor(model, ds, cfg.beta, "fused"), ds, "test")
    b = evaluate(relational_predictor(loaded, ds, cfg.beta, "fused"), ds, "test")
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
    a = evaluate(erm_predictor(model, ds), ds, "test")
    b = evaluate(erm_predictor(loaded, ds), ds, "test")
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


def _assert_tiles(model):
    """params() are views laid end to end over model.flat, in order."""
    start = 0
    for p in model.params():
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
        twin = original.copy()
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
] + [("dg15", "prob")]
LOCKSTEP_CONFIGS = {
    "fused": {},
    "uniform": {"relation_mode": "uniform"},
    "beta1": {"beta": 1.0},
    "balanced": {"domain_balanced_sampling": True},
    "prob": {"combine_space": "prob"},
}


def _lockstep_setup(data, case, seeds=(4, 5, 6)):
    if data == "dg15":
        ds = gen_dg15(0, n_per_class=10)
    else:
        ds = gen_spatial_regression(0, n_rows=3, n_cols=3, n_per_domain=12)
    base = TrainConfig(lr=1e-3, epochs=3, **LOCKSTEP_CONFIGS[case])
    return ds, [replace(base, seed=s) for s in seeds]


@pytest.mark.parametrize("data,case", LOCKSTEP_CASES)
def test_lockstep_seeds_match_separate_runs(data, case):
    """S seeds trained together end bit for bit where S separate runs do."""
    ds, cfgs = _lockstep_setup(data, case)
    alone = [build_model(ds, c) for c in cfgs]
    alone_histories = [train(m, ds, c) for m, c in zip(alone, cfgs)]
    together = [build_model(ds, c) for c in cfgs]
    histories = train(together, ds, cfgs)
    assert len(histories) == len(cfgs)
    for a, t, ha, ht in zip(alone, together, alone_histories, histories):
        assert a.flat.tobytes() == t.flat.tobytes()
        assert ha == ht
        assert not np.array_equal(t.flat, build_model(ds, cfgs[0]).flat)  # it did train


@pytest.mark.parametrize("data,case", LOCKSTEP_CASES)
def test_lockstep_gradient_writes_every_slice(data, case):
    """One stacked step fills a NaN-filled buffer with each seed's own gradient."""
    ds, cfgs = _lockstep_setup(data, case)
    cfg = cfgs[0]
    models = [build_model(ds, c) for c in cfgs]
    singles = [m.copy() for m in models]
    stack = stack_models(models)
    ids = ds.ids_for_split("train")
    x, y, dom = ds.arrays_for(ids)
    metas, fixed = ds.meta_for(ids), ds.fixed_matrix(ids)
    rng = np.random.default_rng(3)
    b = np.stack([rng.permutation(len(y))[:10] for _ in cfgs])
    grad = np.full_like(stack.flat, np.nan)
    loss, (lp, lrel), out = total_loss_and_grads(
        stack, (x[b], y[b], dom[b]), fixed, metas, cfg.lam, cfg.beta, cfg.relation_mode, grad
    )
    assert out is grad and np.isfinite(grad).all()
    for j, m in enumerate(singles):
        one = total_loss_and_grads(
            m, (x[b[j]], y[b[j]], dom[b[j]]), fixed, metas, cfg.lam, cfg.beta, cfg.relation_mode
        )
        assert (one[0], one[1]) == (loss[j], (lp[j], lrel[j]))
        assert one[2].tobytes() == grad[j].tobytes()
    net_grads = stack.views(grad)[3]
    if case in ("uniform", "beta1"):
        assert all((g == 0.0).all() for g in net_grads)  # zeroed, not left stale
    else:
        assert any((g != 0.0).any() for g in net_grads)


def test_a_diverging_seed_is_named():
    ds, cfgs = _lockstep_setup("dg15", "fused")
    models = [build_model(ds, c) for c in cfgs]
    models[1].head_w[...] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="seed 5"):
        train(models, ds, cfgs)


def test_lockstep_configs_must_differ_only_in_seed():
    ds, cfgs = _lockstep_setup("dg15", "fused", seeds=(1, 2))
    models = [build_model(ds, c) for c in cfgs]
    with pytest.raises(ConfigError, match="differ only in seed"):
        train(models, ds, [cfgs[0], replace(cfgs[1], lam=0.1)])


# -- end-to-end sanity on the benchmark ---------------------------------------------


def test_small_benchmark_end_to_end():
    ds = gen_dg15(0, n_per_class=6)
    cfg = TrainConfig(epochs=4, lr=1e-3)
    model = build_model(ds, cfg)
    train(model, ds, cfg)
    rep = evaluate(relational_predictor(model, ds, cfg.beta, "fused"), ds, "test")
    assert set(rep.per_domain) == set(ds.ids_for_split("test"))
    assert 0.0 <= rep.mean <= 1.0
