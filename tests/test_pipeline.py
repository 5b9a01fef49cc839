"""Workflow tests: source training, adaptation methods, ablation suite."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ssht import data, linalg, losses, network, pipeline


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
    net.params[0][...] = np.eye(2)
    net.params[1][...] = np.zeros(2)
    net.params[2][...] = np.eye(2)
    net.params[3][...] = np.zeros(2)
    net.params[4][...] = np.array([[5.0, -5.0], [-5.0, 5.0]])
    net.params[5][...] = np.zeros(2)
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


def test_source_training_and_adaptation_share_one_sgd_recipe(
        monkeypatch, task, model_text):
    recipes = []
    init_sgd = network.init_sgd
    monkeypatch.setattr(network, "init_sgd", lambda net, *recipe: (
        recipes.append(recipe) or init_sgd(net, *recipe)))
    pipeline.train_source(task, seed=0, epochs=1, lr=0.01)
    pipeline.adapt(model_text, task, short_config(epochs=1, lr=0.02))
    assert recipes == [(0.01,), (0.02,)]
    assert (network.MOMENTUM, network.WEIGHT_DECAY) == (0.9, 0.0005)


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


def test_train_source_rejects_a_one_row_source_split():
    # the validation tenth takes the only row and leaves none to train on
    task = data.generate_task(data.DomainShiftSpec(), n_source=1, seed=0)
    with pytest.raises(ValueError, match=r"^source split has 1 row; "
                       r"train_source needs at least 2 \(one is held out "
                       r"for validation\)$"):
        pipeline.train_source(task, seed=0, epochs=1)


@pytest.mark.parametrize("kw,message", [
    ({"lr": float("nan")}, "learning_rate must be finite and positive"),
    ({"lr": float("inf")}, "learning_rate must be finite and positive")])
def test_train_source_rejects_bad_settings_before_reading(kw, message):
    task = data.generate_task(data.DomainShiftSpec(), seed=6)
    with pytest.raises(ValueError, match=message):
        pipeline.train_source(task, seed=0, **kw)
    assert task.source_reads == 0


def test_train_source_dimension_mismatch(task):
    spec = network.NetworkSpec(input_dim=3, hidden_dims=[8], feature_dim=4,
                               num_classes=4, activation="tanh")
    with pytest.raises(ValueError):
        pipeline.train_source(task, spec=spec, epochs=1)


@pytest.mark.parametrize("kw,message", [
    ({"input_dim": 3}, "model expects input_dim 3, task provides 2"),
    ({"num_classes": 5}, "model has 5 classes, task has 4")])
def test_train_source_names_the_mismatched_dimension(task, kw, message):
    reads = task.source_reads
    with pytest.raises(ValueError, match=message):
        pipeline.train_source(task, spec=network.default_spec(**kw), epochs=1)
    assert task.source_reads == reads


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


@pytest.mark.parametrize("cfg", [
    *(short_config(method=m, epochs=2) for m in pipeline.METHODS),
    short_config(lr=1e308, epochs=2)], ids=[*pipeline.METHODS, "aborting"])
def test_adapt_network_form_matches_the_document_form(task, model_text, cfg):
    # a Network in gives, as a Network, the model and the report that the
    # document in gives; the caller's network is left as it was
    source = network.deserialize(model_text)
    flat, meta = source.flat.copy(), dict(source.meta)
    report, adapted = pipeline.adapt(source, task, cfg)
    text_report, text = pipeline.adapt(model_text, task, cfg)
    assert (report.aborted_epoch == 1) == (cfg.lr == 1e308)
    parsed = network.deserialize(text)
    assert isinstance(adapted, network.Network) and adapted is not source
    assert np.array_equal(adapted.flat, parsed.flat)
    assert adapted.meta == parsed.meta
    assert network.serialize(adapted) == text
    assert report == text_report
    assert np.array_equal(source.flat, flat) and source.meta == meta


def test_adapt_rejects_a_nan_parameter_in_either_form_before_any_step(
        task, model_text, monkeypatch):
    source = network.deserialize(model_text)
    source.params[2][0, 0] = np.nan
    monkeypatch.setattr(pipeline, "step_gradient",
                        lambda *args: pytest.fail("a step ran"))
    for model in (source, network.serialize(source)):
        with pytest.raises(ValueError, match="param 2 has non-finite values"):
            pipeline.adapt(model, task, short_config())


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
    np.testing.assert_array_equal(adapted.params[-2], src.params[-2])
    np.testing.assert_array_equal(adapted.params[-1], src.params[-1])
    assert not np.array_equal(adapted.params[0], src.params[0])


def test_adapt_dimension_mismatch(model_text):
    spec3 = data.DomainShiftSpec(input_dim=3,
                                 shift_translation=(0.0, 1.75, 0.0))
    task3 = data.generate_task(spec3, seed=0)
    spec6 = data.DomainShiftSpec(num_classes=6)
    task6 = data.generate_task(spec6, seed=0)
    for model in (model_text, network.deserialize(model_text)):
        with pytest.raises(ValueError, match="input_dim"):
            pipeline.adapt(model, task3, short_config())
        with pytest.raises(ValueError, match="classes"):
            pipeline.adapt(model, task6, short_config())


def test_adapt_rejects_bad_config(task, model_text):
    with pytest.raises(ValueError):
        pipeline.adapt(model_text, task, short_config(method="bogus"))
    with pytest.raises(ValueError):
        pipeline.adapt(model_text, task, short_config(tau=0.0))
    with pytest.raises(ValueError):
        pipeline.adapt(model_text, task, short_config(lambda_u=-1.0))


def test_adapt_abort_on_divergence(task, model_text):
    cfg = short_config(lr=1e9, epochs=4, seed=0)
    rep, text = pipeline.adapt(model_text, task, cfg)
    assert rep.aborted_epoch is not None
    assert rep.abort_reason.startswith("step ")
    assert len(rep.records) < cfg.epochs
    # the model and the final evaluation roll back to the last epoch end:
    # the state a run that stops there returns
    good = len(rep.records)
    assert rep.aborted_epoch == good + 1
    clean, clean_text = pipeline.adapt(model_text, task,
                                       replace(cfg, epochs=good))
    assert clean.aborted_epoch is None and clean.abort_reason is None
    assert rep.final_accuracy == clean.final_accuracy
    assert _same_params(text, clean_text)
    # a step size that diverges in the first epoch leaves the source model
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
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "sgd_step", failing)
    rep, text = pipeline.adapt(model_text, task,
                               short_config(method="cdl", epochs=3))
    assert rep.aborted_epoch == 2
    assert rep.abort_reason == "step 5: injected"
    assert rep.records == one.records
    assert rep.final_accuracy == one.final_accuracy
    assert rep.confusion == one.confusion
    assert _same_params(text, one_text)

    # so does an evaluation that fails in epoch 2, after that epoch's
    # test evaluation succeeded: the final evaluation stays epoch 1's
    monkeypatch.setattr(network, "sgd_step", real)
    evaluations = []
    evaluate = pipeline.evaluate

    def failing_evaluation(*args):
        evaluations.append(1)
        if len(evaluations) == 4:  # epoch 2's labeled evaluation
            raise FloatingPointError("injected")
        return evaluate(*args)

    monkeypatch.setattr(pipeline, "evaluate", failing_evaluation)
    rep, text = pipeline.adapt(model_text, task,
                               short_config(method="cdl", epochs=3))
    assert rep.aborted_epoch == 2
    assert rep.abort_reason == "evaluation: injected"
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
    assert [(r.config.method, r.config.seed) for r in a] == [
        ("cdl", 0), ("cdl", 1), ("s_plus_t", 0), ("s_plus_t", 1)]
    assert a == b


@pytest.mark.parametrize("methods,seeds,message", [
    (("s_plus_t", "bogus"), (0, 1), "method must be one of"),
    (("s_plus_t", "cdl"), (0, -1), "seed must be non-negative, got -1")],
    ids=["bogus-method", "negative-seed"])
def test_suite_rejects_a_bad_cell_before_any_cell(task, model_text,
                                                  monkeypatch, methods, seeds,
                                                  message):
    # the bad setting is in the last cell: every cell is checked before
    # the first one runs, so nothing is adapted and nothing private read
    adapts = []
    adapt = pipeline.adapt
    monkeypatch.setattr(pipeline, "adapt",
                        lambda *a: adapts.append(1) or adapt(*a))
    reads = (task.source_reads, task.unlabeled_label_reads)
    with pytest.raises(ValueError, match=message):
        pipeline.run_ablation_suite(task, model_text, short_config(epochs=1),
                                    methods, seeds)
    assert adapts == []
    assert (task.source_reads, task.unlabeled_label_reads) == reads


def test_suite_flags_aborted_cells(task, model_text):
    # a learning rate that overflows the first step: each cell's report
    # names its abort and measures the source model it rolled back to
    res = pipeline.run_ablation_suite(
        task, model_text, short_config(epochs=2, lr=1e308),
        ("cdl", "s_plus_t"), (0, 1))
    source = pipeline.evaluate(network.deserialize(model_text), task.test_x,
                               task.test_y)
    assert len(res) == 4
    for report in res:
        assert report.aborted_epoch == 1
        assert report.abort_reason.startswith("step ")
        assert "overflow" in report.abort_reason
        assert report.records == []  # no epoch completed
        assert report.final_accuracy == source.accuracy
        assert report.per_class_accuracy == \
            source.per_class_accuracy.tolist()


def test_each_grid_cell_is_one_adapt_call_and_reads_nothing_private(
        task, model_text, monkeypatch):
    # the grid parses the source model once, for its up-front checks, and
    # writes no model text; each cell is one call of the module attribute
    # adapt, with the parsed network and the full task; no source row or
    # private label is read, by adapt or by the grid
    calls, parses, writes = [], [], []
    adapt, deserialize = pipeline.adapt, network.deserialize
    serialize = network.serialize
    monkeypatch.setattr(pipeline, "adapt", lambda model, t, cfg: calls.append(
        (model, t, cfg.method, cfg.seed)) or adapt(model, t, cfg))
    monkeypatch.setattr(network, "deserialize",
                        lambda text: parses.append(1) or deserialize(text))
    monkeypatch.setattr(network, "serialize",
                        lambda net: writes.append(1) or serialize(net))
    reads = (task.source_reads, task.unlabeled_label_reads)
    res = pipeline.run_ablation_suite(task, model_text, short_config(epochs=2),
                                      ("cdl", "s_plus_t"), (0, 1))
    assert (task.source_reads, task.unlabeled_label_reads) == reads
    assert len(parses) == 1 and writes == []
    assert all(isinstance(model, network.Network) for model, *_ in calls)
    assert [(t is task, m, s) for _, t, m, s in calls] == [
        (True, "cdl", 0), (True, "cdl", 1), (True, "s_plus_t", 0),
        (True, "s_plus_t", 1)]
    assert [(r.config.method, r.config.seed) for r in res] == \
        [c[2:] for c in calls]


def test_grid_reports_are_the_reports_of_standalone_adapts(task, model_text):
    # one completed epoch at a tiny learning rate leaves the biased source
    # model: each cell's report, its records included, is the report of
    # an adapt of the model document under the cell's config
    base = short_config(epochs=1, lr=1e-6)
    res = pipeline.run_ablation_suite(task, model_text, base,
                                      ("cdl", "s_plus_t"), (0, 1))
    assert len(res) == 4
    for report in res:
        assert report.aborted_epoch is None and len(report.records) == 1
        assert report == pipeline.adapt(model_text, task, replace(
            base, method=report.config.method, seed=report.config.seed))[0]


def test_adapt_rejects_a_negative_seed_before_reading_the_model(task):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        pipeline.adapt("not a model", task, short_config(seed=-1))


def test_suite_rejects_empty_grid(task, model_text):
    with pytest.raises(ValueError):
        pipeline.run_ablation_suite(task, model_text, short_config(), (), (0,))


def test_suite_validates_shared_settings_before_any_cell(task, model_text):
    reads = (task.source_reads, task.unlabeled_label_reads)
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        pipeline.run_ablation_suite(task, model_text,
                                    pipeline.AdaptConfig(lr=float("nan")),
                                    ("cdl", "s_plus_t"), (0, 1))
    assert (task.source_reads, task.unlabeled_label_reads) == reads


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
    assert all(r.aborted_epoch is None for r in res)
    assert all(np.isfinite(r.records[-1].diversity_ratio) for r in res)


@pytest.mark.parametrize("method,weights,weak,strong", [
    ("cdl", {"consistency": 2.0, "diversity": 3.0}, (5, 12), (12, 19)),
    ("cdl_no_cl", {"diversity": 3.0}, (5, 12), (12, 19)),
    ("cdl_no_dl", {"consistency": 2.0}, (5, 12), (12, 19)),
    ("s_plus_t", {}, None, None),
    ("ent", {"entropy": 2.0}, (5, 12), None)])
def test_step_layout_follows_the_method_table(method, weights, weak, strong):
    # the weights, and the rows of each view in a step that stacks 5
    # labeled rows, then 7 rows of each view losses.views_read names
    cfg = pipeline.AdaptConfig(method=method, lambda_u=2.0, lambda_d=3.0)
    got = pipeline.step_weights(cfg)
    assert got == weights
    assert set(got) == set(pipeline.METHOD_TERMS[method])
    views = losses.views_read(got)
    rows = {view: (5 + 7 * i, 12 + 7 * i) for i, view in enumerate(views)}
    assert (rows.get("weak"), rows.get("strong")) == (weak, strong)


@pytest.mark.parametrize("method,calls", [("cdl", 1), ("cdl_no_cl", 1),
                                          ("cdl_no_dl", 0), ("s_plus_t", 0),
                                          ("ent", 0)])
def test_adapt_makes_one_kernel_call_per_step_for_both_views(
        monkeypatch, task, model_text, method, calls):
    shapes = []
    kernel = linalg.nuclear_norm_and_subgradient
    monkeypatch.setattr(losses, "nuclear_norm_and_subgradient",
                        lambda a: shapes.append(np.shape(a)) or kernel(a))
    pipeline.adapt(model_text, task, short_config(method=method, seed=0,
                                                  epochs=1))
    steps = data.steps_per_epoch(task.num_unlabeled, 48)
    assert len(shapes) == calls * steps
    assert all(len(s) == 3 and s[0] == 2 for s in shapes)


@pytest.mark.parametrize("run", ["train_source", *pipeline.METHODS])
def test_every_training_step_takes_its_gradient_from_step_gradient(
        monkeypatch, task, model_text, run):
    # each step: one step_gradient call, the one backward pass inside it,
    # then the SGD step; no backward pass outside step_gradient
    events = []
    step_gradient, backward, sgd_step = (pipeline.step_gradient,
                                         network.backward, network.sgd_step)

    def logged_step_gradient(*args):
        events.append("step_gradient")
        result = step_gradient(*args)
        events.append("returned")
        return result
    monkeypatch.setattr(pipeline, "step_gradient", logged_step_gradient)
    monkeypatch.setattr(network, "backward", lambda *args: (
        events.append("backward") or backward(*args)))
    monkeypatch.setattr(network, "sgd_step", lambda *args: (
        events.append("sgd_step") or sgd_step(*args)))
    if run == "train_source":
        pipeline.train_source(task, seed=0, epochs=2)
        rows = task.source_x.shape[0]
        steps = 2 * -(-(rows - max(1, rows // 10)) // 96)
    else:
        pipeline.adapt(model_text, task, short_config(method=run, epochs=2))
        steps = 2 * data.steps_per_epoch(task.num_unlabeled, 48)
    assert events == ["step_gradient", "backward", "returned",
                      "sgd_step"] * steps


# a 16-class source model (1 epoch) and its 1-epoch cdl adapt; prints a
# digest of both model documents
_WIDE_RUN = """
import hashlib
from ssht import data, pipeline
task = data.generate_task(data.DomainShiftSpec(num_classes=16), seed=0)
model = pipeline.train_source(task, seed=0, epochs=1)
_, adapted = pipeline.adapt(model, task, pipeline.AdaptConfig(epochs=1))
print(hashlib.sha256(model.encode()).hexdigest(),
      hashlib.sha256(adapted.encode()).hexdigest())
"""


def test_models_do_not_depend_on_the_openblas_thread_count():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    digests = [subprocess.run([sys.executable, "-c", _WIDE_RUN], env=e,
                              capture_output=True, text=True,
                              check=True).stdout
               for e in (env, dict(env, OPENBLAS_NUM_THREADS="1"))]
    assert digests[0] == digests[1]
    assert len(digests[0].split()) == 2
