"""The tracer: wrapper placement, spans, counts and transparency."""

import types

import pytest

import tracer as tracing
from ssht import cli, data, fileio, linalg, losses, pipeline, reports

LAYERS = tracing.layer_modules()


def _fake_modules():
    low = types.ModuleType("low")
    exec("def leaf(x):\n    return x + 1\n"
         "def _private(x):\n    return x\n", low.__dict__)
    high = types.ModuleType("high")
    high.leaf = low.leaf  # bound by name, as `from low import leaf`
    exec("def top(x):\n    return leaf(x) * 2\n", high.__dict__)
    return low, high


def test_wrappers_sit_where_callers_look_and_come_off_again():
    low, high = _fake_modules()
    original = low.leaf
    t = tracing.Tracer()
    t.install({"low": low, "high": high})
    assert high.leaf is low.leaf and low.leaf is not original
    assert low._private.__name__ == "_private"
    t.active, t.iteration = True, 0
    assert high.top(1) == 4
    t.active = False
    assert [t.names[i] for i in t.name_ids] == ["high.top", "low.leaf"]
    assert list(t.parents) == [-1, 0]
    assert list(t.iters) == [0, 0]
    assert t.starts[0] <= t.starts[1] <= t.ends[1] <= t.ends[0]
    t.uninstall()
    assert low.leaf is original and high.leaf is original


def test_inactive_tracer_records_nothing_and_exceptions_close_spans():
    low, high = _fake_modules()
    t = tracing.Tracer()
    t.install({"low": low, "high": high})
    assert high.top(1) == 4
    assert len(t.starts) == 0
    t.active, t.iteration = True, 3
    with pytest.raises(TypeError):
        high.top("x")
    assert len(t.starts) == 2 and all(e > 0 for e in t.ends)
    assert t._stack == []
    t.uninstall()


def test_real_modules_are_wrapped_at_every_binding():
    originals = {"losses.nuclear_norm": losses.nuclear_norm,
                 "data.atomic_write_text": data.atomic_write_text,
                 "cli.read_text": cli.read_text}
    t = tracing.Tracer()
    t.install(LAYERS)
    try:
        assert losses.nuclear_norm is linalg.nuclear_norm
        assert losses.nuclear_norm is not originals["losses.nuclear_norm"]
        for binder in (data, reports, cli):
            assert binder.atomic_write_text is fileio.atomic_write_text
            assert binder.read_text is fileio.read_text
        assert "pipeline.adapt" in t.originals
        assert "pipeline.AdaptConfig" not in t.originals
    finally:
        t.uninstall()
    assert losses.nuclear_norm is originals["losses.nuclear_norm"]
    assert data.atomic_write_text is originals["data.atomic_write_text"]
    assert cli.read_text is originals["cli.read_text"]


@pytest.fixture(scope="module")
def small_task_and_model():
    task = data.generate_task(data.DomainShiftSpec(), seed=4)
    return task, pipeline.train_source(task, epochs=1, seed=4)


def test_one_epoch_cdl_counts_and_results_match_untraced(small_task_and_model):
    task, model = small_task_and_model
    cfg = pipeline.AdaptConfig(method="cdl", seed=4, epochs=1)
    plain_report, plain_model = pipeline.adapt(model, task, cfg)

    t = tracing.Tracer()
    t.install(LAYERS)
    try:
        t.active, t.iteration = True, 0
        report, adapted = pipeline.adapt(model, task, cfg)
        t.active = False
    finally:
        t.uninstall()
    assert adapted == plain_model
    assert report.final_accuracy == plain_report.final_accuracy

    layer = tracing.summarize(t, [0], nproc=2, clamp_events={}, overhead=0.0)
    steps = 21  # ceil(1000 unlabeled / 48)
    assert set(layer) == set(tracing.metric_specs())
    assert layer["pipeline.adapt.steps"] == steps
    assert layer["linalg.svd.calls"] == 4 * steps
    assert layer["linalg.nuclear_norm.calls"] == 2 * steps
    assert layer["linalg.svd.distinct_ratio"] == 0.5
    assert layer["data.strong_augment.calls"] == 1000
    assert layer["data.strong_augment.calls_per_row"] == 1.0
    # three passes per step, then test, labeled and diversity passes per
    # epoch and one final evaluation
    assert layer["network.forward.calls"] == 3 * steps + 3 + 1
    assert layer["network.backward.calls"] == 3 * steps
    assert layer["pipeline.adapt.calls"] == 1
    assert layer["network.deserialize.calls_per_adapt"] == 1.0
    assert layer["pipeline.adapt.self_s"] > 0.0
    assert t.observer_errors == 0


def test_layer_self_times_add_up_to_the_root_span(small_task_and_model):
    task, model = small_task_and_model
    t = tracing.Tracer()
    t.install(LAYERS)
    try:
        t.active, t.iteration = True, 0
        pipeline.adapt(model, task,
                       pipeline.AdaptConfig(method="s_plus_t", seed=1, epochs=1))
        t.active = False
    finally:
        t.uninstall()
    layer = tracing.summarize(t, [0], nproc=2, clamp_events={}, overhead=0.0)
    total = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
    root = t.ends[0] - t.starts[0]
    assert total == pytest.approx(root, rel=1e-9)
    assert layer["linalg.svd.calls"] == 0
    assert layer["data.strong_augment.calls"] == 0
