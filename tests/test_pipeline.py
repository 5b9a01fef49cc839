"""Workflow tests: source training, adaptation methods, ablation suite."""

from dataclasses import replace

import numpy as np
import pytest

from ssht import data, network, pipeline
from ssht.linalg import NumericalError


@pytest.fixture(scope="module")
def task():
    return data.generate_task(data.DomainShiftSpec(), seed=0)


@pytest.fixture(scope="module")
def model_text(task):
    return pipeline.train_source(task, seed=0)


def _same_params(text_a, text_b):
    a, b = network.deserialize(text_a), network.deserialize(text_b)
    return all(np.array_equal(p, q) for p, q in zip(a.params, b.params))


def short_config(**kw):
    kw.setdefault("epochs", 3)
    return pipeline.AdaptConfig(**kw)


# ---------------------------------------------------------------- evaluate

def test_evaluate_perfect_predictor():
    spec = network.NetworkSpec(input_dim=2, hidden_dims=[2], feature_dim=2,
                               num_classes=2, activation="tanh")
    net = network.init_network(spec, seed=0)
    net.params[0] = np.eye(2)
    net.params[1] = np.zeros(2)
    net.params[2] = np.eye(2)
    net.params[3] = np.zeros(2)
    net.params[4] = np.array([[5.0, -5.0], [-5.0, 5.0]])
    net.params[5] = np.zeros(2)
    xs = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    ys = np.array([0, 1, 0])
    res = pipeline.evaluate(net, xs, ys)
    assert res.accuracy == 1.0
    np.testing.assert_array_equal(res.confusion, [[2, 0], [0, 1]])
    np.testing.assert_allclose(res.per_class_accuracy, [1.0, 1.0])


def test_evaluate_counts_sum_to_n(task, model_text):
    net = network.deserialize(model_text)
    res = pipeline.evaluate(net, task.test_x, task.test_y)
    assert res.confusion.sum() == task.test_x.shape[0]
    diag = np.diag(res.confusion).sum()
    assert res.accuracy == pytest.approx(diag / task.test_x.shape[0])


def _count_forward_rows(monkeypatch):
    """Record the row count of every call to the module-level forward."""
    rows = []
    real = network.forward

    def counting(net, x_batch, keep=False):
        rows.append(len(x_batch))
        return real(net, x_batch, keep=keep)

    monkeypatch.setattr(network, "forward", counting)
    return rows


def test_evaluate_runs_one_forward(monkeypatch, task, model_text):
    net = network.deserialize(model_text)
    rows = _count_forward_rows(monkeypatch)
    res = pipeline.evaluate(net, task.test_x, task.test_y)
    assert rows == [1000]
    assert res.predictions.shape == (1000,)


def test_evaluate_rejects_labels_the_model_lacks(task):
    net3 = network.init_network(network.default_spec(num_classes=3), seed=0)
    with pytest.raises(ValueError, match="model has 3 classes"):
        pipeline.evaluate(net3, task.test_x, task.test_y)
    with pytest.raises(ValueError, match="model has 3 classes"):
        pipeline.evaluate(net3, task.test_x[:2], np.array([0, -1]))


# ------------------------------------------------------------ train_source

def test_train_source_deterministic(task):
    a = pipeline.train_source(task, seed=7, epochs=3)
    b = pipeline.train_source(task, seed=7, epochs=3)
    assert a == b
    c = pipeline.train_source(task, seed=8, epochs=3)
    assert a != c


def test_train_source_validation_quality(model_text):
    net = network.deserialize(model_text)
    val_acc = float(net.meta["source_val_accuracy"])
    assert val_acc >= 0.9
    assert 1 <= int(net.meta["best_epoch"]) <= 30


def test_train_source_reads_source_once():
    task = data.generate_task(data.DomainShiftSpec(), seed=5)
    assert task.source_reads == 0
    pipeline.train_source(task, seed=0, epochs=2)
    assert task.source_reads == 1


@pytest.mark.parametrize("kw,name", [({"epochs": 0}, "epochs"),
                                     ({"epochs": -2}, "epochs"),
                                     ({"batch_size": 0}, "batch_size"),
                                     ({"batch_size": -1}, "batch_size")])
def test_train_source_rejects_bad_loop_sizes(task, kw, name):
    with pytest.raises(ValueError, match=name):
        pipeline.train_source(task, seed=0, **kw)


def test_train_source_dimension_mismatch(task):
    spec = network.NetworkSpec(input_dim=3, hidden_dims=[8], feature_dim=4,
                               num_classes=4, activation="tanh")
    with pytest.raises(ValueError):
        pipeline.train_source(task, spec=spec, epochs=1)


def test_source_model_biased_against_minority(task):
    """The transferred hypothesis under-serves the thin source class."""
    for seed in range(5):
        mt = pipeline.train_source(task, seed=seed)
        net = network.deserialize(mt)
        res = pipeline.evaluate(net, task.test_x, task.test_y)
        assert res.per_class_accuracy[-1] < res.per_class_accuracy[0]


# ------------------------------------------------------------------ adapt

def test_adapt_pass_counts(task, model_text):
    steps = data.steps_per_epoch(task.num_unlabeled, 48)
    expected = {"cdl": (3 * steps, 3 * steps),
                "cdl_no_cl": (3 * steps, 3 * steps),
                "cdl_no_dl": (3 * steps, 3 * steps),
                "ent": (3 * steps, 0),
                "s_plus_t": (0, 0)}
    for method, (weak, strong) in expected.items():
        rep, _ = pipeline.adapt(model_text, task,
                                short_config(method=method, seed=0))
        assert rep.unlabeled_weak_passes == weak, method
        assert rep.unlabeled_strong_passes == strong, method


def test_adapt_never_touches_source_or_private_labels(model_text):
    task = data.generate_task(data.DomainShiftSpec(), seed=9)
    rep, _ = pipeline.adapt(model_text, task, short_config(seed=0))
    assert task.source_reads == 0
    assert task.unlabeled_label_reads == 0
    assert rep.final_accuracy > 0.0


def test_adapt_accepts_bare_view(task, model_text):
    view = task.adaptation_view()
    a, at = pipeline.adapt(model_text, view, short_config(seed=1))
    b, bt = pipeline.adapt(model_text, task, short_config(seed=1))
    assert at == bt
    assert a.final_accuracy == b.final_accuracy


def test_adapt_bookkeeping_identity(task, model_text):
    cfg = short_config(method="cdl", lambda_u=2.5, lambda_d=1.0, seed=2)
    rep, _ = pipeline.adapt(model_text, task, cfg)
    assert len(rep.records) == cfg.epochs
    for rec in rep.records:
        expect = rec.l_c + cfg.lambda_u * rec.l_u + cfg.lambda_d * rec.l_d
        assert rec.total == pytest.approx(expect, abs=1e-9)
        assert 0.0 <= rec.mask_rate <= 1.0
        assert 0.0 <= rec.test_acc <= 1.0


def test_adapt_zero_weights_match_labeled_only(task, model_text):
    """With both unlabeled weights at zero the unlabeled rows contribute
    zero gradient, so the parameters match the labeled-only method's up
    to rounding (the labeled rows' backward products run inside the
    stacked batch) and every evaluation and l_c is unchanged."""
    zero = short_config(method="cdl", lambda_u=0.0, lambda_d=0.0, seed=3)
    base = short_config(method="s_plus_t", seed=3)
    rep_z, text_z = pipeline.adapt(model_text, task, zero)
    rep_b, text_b = pipeline.adapt(model_text, task, base)
    net_z = network.deserialize(text_z)
    net_b = network.deserialize(text_b)
    for pz, pb in zip(net_z.params, net_b.params):
        np.testing.assert_allclose(pz, pb, rtol=0, atol=1e-12)
    assert rep_z.final_accuracy == rep_b.final_accuracy
    assert rep_z.confusion == rep_b.confusion
    for rz, rb in zip(rep_z.records, rep_b.records):
        assert rz.test_acc == rb.test_acc
        assert rz.labeled_acc == rb.labeled_acc
        assert rz.l_c == rb.l_c


def test_adapt_reproducible(task, model_text):
    cfg = short_config(seed=4)
    a, at = pipeline.adapt(model_text, task, cfg)
    b, bt = pipeline.adapt(model_text, task, cfg)
    assert at == bt
    assert [r.total for r in a.records] == [r.total for r in b.records]
    assert a.final_accuracy == b.final_accuracy


def test_adapt_seed_changes_trajectory(task, model_text):
    a, _ = pipeline.adapt(model_text, task, short_config(seed=0))
    b, _ = pipeline.adapt(model_text, task, short_config(seed=1))
    assert [r.total for r in a.records] != [r.total for r in b.records]


def test_adapt_labeled_batch_resolution(task, model_text):
    rep, _ = pipeline.adapt(model_text, task, short_config(epochs=1))
    n_labeled = task.labeled_x.shape[0]
    assert rep.config.labeled_batch == min(n_labeled, 48)


def test_adapt_freeze_classifier(task, model_text):
    src = network.deserialize(model_text)
    cfg = short_config(freeze_classifier=True, seed=5)
    _, text = pipeline.adapt(model_text, task, cfg)
    adapted = network.deserialize(text)
    head_w, head_b = adapted.classifier_param_indices()
    np.testing.assert_array_equal(adapted.params[head_w], src.params[head_w])
    np.testing.assert_array_equal(adapted.params[head_b], src.params[head_b])
    assert not np.array_equal(adapted.params[0], src.params[0])


def test_adapt_dimension_mismatch(model_text):
    spec3 = data.DomainShiftSpec(input_dim=3,
                                 shift_translation=(0.0, 1.75, 0.0))
    task3 = data.generate_task(spec3, seed=0)
    with pytest.raises(ValueError, match="input_dim"):
        pipeline.adapt(model_text, task3, short_config())
    spec6 = data.DomainShiftSpec(num_classes=6)
    task6 = data.generate_task(spec6, seed=0)
    with pytest.raises(ValueError, match="classes"):
        pipeline.adapt(model_text, task6, short_config())


def test_adapt_rejects_bad_config(task, model_text):
    with pytest.raises(ValueError):
        pipeline.adapt(model_text, task, short_config(method="bogus"))
    with pytest.raises(ValueError):
        pipeline.adapt(model_text, task, short_config(tau=0.0))
    with pytest.raises(ValueError):
        pipeline.adapt(model_text, task, short_config(lambda_u=-1.0))


def test_adapt_abort_on_divergence(task, model_text):
    cfg = short_config(lr=1e9, epochs=4, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        rep, text = pipeline.adapt(model_text, task, cfg)
    assert rep.aborted_epoch is not None
    assert len(rep.records) < cfg.epochs
    # the model and the final evaluation roll back to the last epoch end:
    # the state a run that stops there returns
    good = len(rep.records)
    assert rep.aborted_epoch == good + 1
    clean, clean_text = pipeline.adapt(model_text, task,
                                       replace(cfg, epochs=good))
    assert clean.aborted_epoch is None
    assert rep.final_accuracy == clean.final_accuracy
    assert _same_params(text, clean_text)
    # a step size that diverges in the first epoch leaves the source model
    with np.errstate(over="ignore", invalid="ignore"):
        rep, text = pipeline.adapt(model_text, task, replace(cfg, lr=1e20))
    assert rep.aborted_epoch == 1 and rep.records == []
    assert _same_params(text, model_text)
    assert rep.final_accuracy == pipeline.evaluate(
        network.deserialize(model_text), task.test_x, task.test_y).accuracy


def test_adapt_abort_rolls_back_to_last_epoch(monkeypatch, task, model_text):
    # a step that fails in epoch 2 leaves the model and report of epoch 1
    one, one_text = pipeline.adapt(model_text, task,
                                   short_config(method="cdl", epochs=1))
    steps = data.steps_per_epoch(task.num_unlabeled, 48)
    calls = []
    real = network.sgd_step

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == steps + 5:
            raise NumericalError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "sgd_step", failing)
    rep, text = pipeline.adapt(model_text, task,
                               short_config(method="cdl", epochs=3))
    assert rep.aborted_epoch == 2
    assert rep.records == one.records
    assert rep.final_accuracy == one.final_accuracy
    assert rep.confusion == one.confusion
    assert _same_params(text, one_text)


def test_adapt_evaluates_the_test_split_once_per_epoch(monkeypatch, task,
                                                       model_text):
    rows = _count_forward_rows(monkeypatch)
    pipeline.adapt(model_text, task, short_config(method="cdl", epochs=2))
    steps = data.steps_per_epoch(task.num_unlabeled, 48)
    # one stacked pass per step (12 labeled, 48 weak and 48 strong rows;
    # the epoch's last unlabeled batch is shorter), then one test and one
    # labeled pass per epoch
    step_rows = [12 + 2 * min(48, task.num_unlabeled - 48 * k)
                 for k in range(steps)]
    assert step_rows[0] == 108
    assert len(rows) == 2 * (steps + 2)
    assert rows == 2 * (step_rows + [len(task.test_y), len(task.labeled_y)])
    assert rows.count(len(task.test_y)) == 2


def test_adapt_improves_over_source(task, model_text):
    net = network.deserialize(model_text)
    before = pipeline.evaluate(net, task.test_x, task.test_y).accuracy
    rep, _ = pipeline.adapt(model_text, task,
                            pipeline.AdaptConfig(method="cdl", seed=0))
    assert rep.final_accuracy > before + 0.1


# --------------------------------------------------------------- ablation

def test_suite_shape_and_determinism(task, model_text):
    cfg = short_config(epochs=2)
    a = pipeline.run_ablation_suite(task, model_text, cfg,
                                    ("cdl", "s_plus_t"), (0, 1))
    b = pipeline.run_ablation_suite(task, model_text, cfg,
                                    ("cdl", "s_plus_t"), (0, 1))
    assert len(a.rows) == 4
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.method, ra.seed) == (rb.method, rb.seed)
        assert ra.final_accuracy == rb.final_accuracy
        assert ra.diversity_ratio == rb.diversity_ratio
    assert a.summary["cdl"]["n"] == 2.0


def test_suite_records_failed_cells(task, model_text):
    cfg = short_config(epochs=1)
    res = pipeline.run_ablation_suite(task, model_text, cfg,
                                      ("s_plus_t", "bogus"), (0,))
    good = [r for r in res.rows if r.method == "s_plus_t"][0]
    bad = [r for r in res.rows if r.method == "bogus"][0]
    assert good.error is None
    assert bad.error is not None
    assert np.isnan(bad.final_accuracy)
    assert res.summary["bogus"]["n"] == 0.0


def test_suite_rejects_empty_grid(task, model_text):
    with pytest.raises(ValueError):
        pipeline.run_ablation_suite(task, model_text, short_config(), (), (0,))


def test_adapt_and_suite_on_splits_smaller_than_a_diversity_batch():
    # 20 test samples and 40 unlabeled ones: both below the 48-row
    # diversity batch, which shrinks to the split (the unlabeled training
    # batch is a user setting and must fit by itself)
    spec = data.DomainShiftSpec(num_classes=2, shift_translation=(0.0, 1.0))
    small = data.generate_task(spec, n_source=200, shots=1, n_unlabeled=40,
                               n_test=20, seed=3)
    model = pipeline.train_source(small, seed=0, epochs=2)
    rep, _ = pipeline.adapt(model, small,
                            short_config(epochs=2, unlabeled_batch=20))
    assert rep.aborted_epoch is None
    assert len(rep.records) == 2
    assert all(0.0 < r.diversity_ratio <= 2.0 for r in rep.records)
    res = pipeline.run_ablation_suite(
        small, model, short_config(epochs=1, unlabeled_batch=20),
        ("cdl", "s_plus_t"), (0,))
    assert all(r.error is None for r in res.rows)
    assert all(np.isfinite(r.diversity_ratio) for r in res.rows)
