import math
import warnings

import numpy as np
import pytest

from ssht import data


def default_spec(**overrides):
    return data.DomainShiftSpec(**overrides)


def small_task(seed=0, **spec_overrides):
    spec = default_spec(**spec_overrides)
    return data.generate_task(spec, n_source=400, shots=3, n_unlabeled=300,
                              n_test=200, seed=seed)


def test_generate_shapes_and_split_contract():
    task = small_task()
    assert task.source_x.shape == (400, 2)
    assert task.labeled_x.shape == (12, 2)
    assert task.unlabeled_x.shape == (300, 2)
    assert task.test_x.shape == (200, 2)
    counts = np.bincount(task.labeled_y, minlength=4)
    assert list(counts) == [3, 3, 3, 3]


def test_generate_deterministic():
    a = small_task(seed=5)
    b = small_task(seed=5)
    assert np.array_equal(a.source_x, b.source_x)
    assert np.array_equal(a.unlabeled_x, b.unlabeled_x)
    assert np.array_equal(a.test_y, b.test_y)


def test_generate_seeds_differ():
    a = small_task(seed=1)
    b = small_task(seed=2)
    assert not np.array_equal(a.source_x, b.source_x)


def test_splits_disjoint():
    task = small_task(seed=3)
    pools = [task.labeled_x, task.unlabeled_x, task.test_x]
    for i in range(len(pools)):
        for j in range(i + 1, len(pools)):
            a = {tuple(row) for row in pools[i]}
            b = {tuple(row) for row in pools[j]}
            assert not (a & b)


def test_imbalance_schedule():
    spec = default_spec(source_imbalance_ratio=10.0)
    task = data.generate_task(spec, n_source=10_000, shots=3,
                              n_unlabeled=300, n_test=100, seed=11)
    counts = np.bincount(task.source_y, minlength=4)
    w = 10.0 ** (-np.arange(4) / 3.0)
    p = w / w.sum()
    for c in range(4):
        sigma = math.sqrt(10_000 * p[c] * (1 - p[c]))
        assert abs(counts[c] - 10_000 * p[c]) <= 3 * sigma
    assert counts[0] > counts[3]


def test_balanced_source_when_ratio_one():
    spec = default_spec(source_imbalance_ratio=1.0)
    task = data.generate_task(spec, n_source=8000, shots=3,
                              n_unlabeled=300, n_test=100, seed=12)
    counts = np.bincount(task.source_y, minlength=4)
    for c in range(4):
        sigma = math.sqrt(8000 * 0.25 * 0.75)
        assert abs(counts[c] - 2000) <= 3 * sigma


def test_zero_shift_matches_source_distribution():
    # with no shift and no imbalance, per-class target means track the
    # source class means within 3 standard errors, pooled over 10 seeds
    spec = default_spec(source_imbalance_ratio=1.0, shift_rotation=0.0,
                        shift_translation=(0.0, 0.0), shift_scale=1.0)
    means = data.class_means(spec)
    diffs = []
    n_per = 0
    for seed in range(10):
        task = data.generate_task(spec, n_source=400, shots=3,
                                  n_unlabeled=400, n_test=400, seed=seed)
        for c in range(4):
            rows = task.test_x[task.test_y == c]
            n_per = rows.shape[0]
            diffs.append(rows.mean(axis=0) - means[c])
    diffs = np.array(diffs)
    se = spec.noise_std / math.sqrt(n_per)
    assert np.all(np.abs(diffs.mean(axis=0)) <= 3 * se / math.sqrt(len(diffs)))


def test_shift_moves_target():
    task = small_task(seed=7)
    src_mean = task.source_x.mean(axis=0)
    tgt_mean = task.test_x.mean(axis=0)
    assert np.linalg.norm(tgt_mean - src_mean) > 0.2


def test_unlabeled_too_small_rejected():
    with pytest.raises(ValueError):
        data.generate_task(default_spec(), n_source=100, shots=3,
                           n_unlabeled=100, n_test=50, seed=0)


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        data.generate_task(default_spec(num_classes=1), seed=0)
    with pytest.raises(ValueError):
        data.generate_task(default_spec(num_classes=data.MAX_CLASSES + 1),
                           seed=0)
    with pytest.raises(ValueError):
        data.generate_task(default_spec(shift_scale=0.0), seed=0)
    with pytest.raises(ValueError):
        data.generate_task(default_spec(shift_translation=(1.0,)), seed=0)
    with pytest.raises(ValueError):
        data.generate_task(default_spec(noise_std=float("inf")), seed=0)


@pytest.mark.parametrize("field,split", [("noise_std", "source"),
                                         ("shift_scale", "labeled")])
def test_generate_rejects_overflowing_draws(field, split):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"split {split}: .*non-finite"):
            small_task(**{field: 1e308})


@pytest.mark.parametrize("count,split", [("n_source", "source"),
                                         ("shots", "labeled"),
                                         ("n_unlabeled", "unlabeled"),
                                         ("n_test", "test")])
def test_generate_rejects_a_split_numpy_cannot_index(count, split):
    # 20 digits: past the largest intp, so nothing is drawn or allocated
    with pytest.raises(ValueError, match=f"split {split}: .*more than numpy"):
        data.generate_task(default_spec(), **{count: 99999999999999999999})


def test_access_counters():
    task = small_task(seed=8)
    assert task.source_reads == 0
    assert task.unlabeled_label_reads == 0
    task.source()
    task.unlabeled_labels()
    task.unlabeled_labels()
    assert task.source_reads == 1
    assert task.unlabeled_label_reads == 2


def test_adaptation_view_lacks_private_fields():
    view = small_task(seed=9).adaptation_view()
    assert not hasattr(view, "source_x")
    assert not hasattr(view, "source_y")
    assert not hasattr(view, "_unlabeled_y")
    assert not hasattr(view, "unlabeled_labels")
    assert view.unlabeled_x.shape == (300, 2)


def test_two_moons_multi_geometry():
    task = small_task(seed=10, class_geometry="two_moons_multi")
    # points per class concentrate near radius 3 in the source split
    radii = np.linalg.norm(task.source_x, axis=1)
    assert 2.0 < np.median(radii) < 4.0


def test_class_separation_values():
    spec = default_spec()
    assert data.class_separation(spec) == pytest.approx(
        2 * 3.0 * math.sin(math.pi / 4))
    spec2 = default_spec(class_geometry="two_moons_multi")
    assert 0 < data.class_separation(spec2) < data.class_separation(spec)


def test_weak_augment_identity_when_silent():
    policy = data.AugmentPolicy(weak_noise_std=0.0, strong_noise_std=0.0)
    x = np.array([[1.0, -2.0]])
    out = data.weak_augment_batch(x, policy, np.random.default_rng(0))
    np.testing.assert_array_equal(out, x)


def test_weak_augment_deterministic():
    policy = data.default_policy(default_spec())
    x = np.array([[0.5, 0.5]])
    a = data.weak_augment_batch(x, policy, np.random.default_rng(3))
    b = data.weak_augment_batch(x, policy, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_weak_augment_does_not_depend_on_chunking():
    # adapt augments an epoch's rows in one call; per-batch calls on the
    # same stream give the same bits
    policy = data.default_policy(default_spec())
    x = np.random.default_rng(4).normal(size=(1000, 2))
    whole = data.weak_augment_batch(x, policy, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    parts = [data.weak_augment_batch(x[i:i + 48], policy, rng)
             for i in range(0, 1000, 48)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_weak_augment_unbiased():
    policy = data.default_policy(default_spec())
    x = np.array([1.0, 2.0])
    rng = np.random.default_rng(4)
    draws = data.weak_augment_batch(np.tile(x, (10_000, 1)), policy, rng)
    se = policy.weak_noise_std / math.sqrt(10_000)
    assert np.all(np.abs(draws.mean(axis=0) - x) <= 3 * se)


def test_weak_augment_label_preserving():
    spec = default_spec()
    policy = data.default_policy(spec)
    means = data.class_means(spec)
    kept = []
    for seed in range(3):
        task = data.generate_task(spec, n_source=40_000, shots=3,
                                  n_unlabeled=300, n_test=100, seed=13 + seed)
        rng = np.random.default_rng(14 + seed)
        before = np.argmin(
            ((task.source_x[:, None, :] - means[None]) ** 2).sum(-1), axis=1)
        jittered = data.weak_augment_batch(task.source_x, policy, rng)
        after = np.argmin(
            ((jittered[:, None, :] - means[None]) ** 2).sum(-1), axis=1)
        kept.append((before == after).mean())
    assert np.mean(kept) >= 0.99


def single_op_policy(monkeypatch, op, num_ops, strong_noise_std=0.0):
    """A policy whose strong transform composes num_ops draws of op only."""
    monkeypatch.setattr(data, "STRONG_POOL", (op,))
    monkeypatch.setattr(data, "STRONG_NUM_OPS", num_ops)
    return data.AugmentPolicy(weak_noise_std=0.0,
                              strong_noise_std=strong_noise_std)


def test_strong_augment_forced_scale(monkeypatch):
    monkeypatch.setattr(data, "SCALE_RANGE", (2.0, 2.0))
    policy = single_op_policy(monkeypatch, "scale", 1)
    out = data.strong_augment_batch(np.array([[1.0, 1.0]]), policy,
                                    np.random.default_rng(0))
    np.testing.assert_allclose(out, [[2.0, 2.0]])


def test_strong_augment_jitter_only_silent(monkeypatch):
    policy = single_op_policy(monkeypatch, "jitter", 3)
    x = np.array([[0.3, -0.7]])
    out = data.strong_augment_batch(x, policy, np.random.default_rng(1))
    np.testing.assert_array_equal(out, x)


def test_strong_perturbs_more_than_weak():
    spec = default_spec()
    policy = data.default_policy(spec)
    rng = np.random.default_rng(15)
    xs = np.tile([3.0, 0.0], (10_000, 1))
    weak_d = np.mean(np.linalg.norm(
        data.weak_augment_batch(xs, policy, rng) - xs, axis=1))
    strong_d = np.mean(np.linalg.norm(
        data.strong_augment_batch(xs, policy, rng) - xs, axis=1))
    assert strong_d > weak_d


def test_strong_rotate_keeps_plane_norm_and_other_coordinates(monkeypatch):
    policy = single_op_policy(monkeypatch, "rotate", 2)
    xs = np.random.default_rng(30).normal(size=(200, 4))
    out = data.strong_augment_batch(xs, policy, np.random.default_rng(31))
    np.testing.assert_allclose(np.hypot(out[:, 0], out[:, 1]),
                               np.hypot(xs[:, 0], xs[:, 1]), rtol=1e-12)
    np.testing.assert_array_equal(out[:, 2:], xs[:, 2:])
    # two rotations of at most ROTATE_MAX each
    turn = np.abs(np.angle((out[:, 0] + 1j * out[:, 1])
                           / (xs[:, 0] + 1j * xs[:, 1])))
    assert np.all(turn <= 2 * data.ROTATE_MAX + 1e-12)
    assert np.all(turn > 0.0)


def test_strong_scale_one_factor_per_row_within_range(monkeypatch):
    policy = single_op_policy(monkeypatch, "scale", 1)
    xs = np.random.default_rng(32).uniform(0.5, 2.0, size=(300, 3))
    out = data.strong_augment_batch(xs, policy, np.random.default_rng(33))
    factors = out / xs
    np.testing.assert_allclose(factors, factors[:, :1].repeat(3, axis=1),
                               rtol=1e-12)
    lo, hi = data.SCALE_RANGE
    assert np.all((factors[:, 0] >= lo) & (factors[:, 0] <= hi))
    assert np.unique(factors[:, 0]).size > 1


def test_strong_jitter_std_matches_policy(monkeypatch):
    policy = single_op_policy(monkeypatch, "jitter", 1, strong_noise_std=0.4)
    xs = np.tile([1.0, -1.0], (20_000, 1))
    out = data.strong_augment_batch(xs, policy, np.random.default_rng(36))
    std = (out - xs).std(axis=0)
    # the sample std of n normals has standard error ~ sigma / sqrt(2n)
    assert np.all(np.abs(std - 0.4) <= 3 * 0.4 / math.sqrt(2 * 20_000))


def test_strong_augment_batch_deterministic_and_leaves_input():
    policy = data.default_policy(default_spec())
    xs = np.random.default_rng(37).normal(size=(64, 2))
    before = xs.copy()
    a = data.strong_augment_batch(xs, policy, np.random.default_rng(38))
    b = data.strong_augment_batch(xs, policy, np.random.default_rng(38))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(xs, before)
    assert not np.array_equal(a, xs)


def test_sample_batches_epoch_covers_all():
    task = small_task(seed=16)
    view = task.adaptation_view()
    rng = np.random.default_rng(17)
    xl, yl, xu = data.epoch_batches(view, labeled_batch=12,
                                    unlabeled_batch=48, rng=rng)
    steps = data.steps_per_epoch(300, 48)
    assert steps == 7
    assert xl.shape == (steps * 12, 2)
    assert yl.shape == (steps * 12,)
    assert xu.shape == (300, 2)
    # every unlabeled row appears exactly once per epoch
    assert {tuple(r) for r in xu} == {tuple(r) for r in view.unlabeled_x}


def test_sample_batches_single_batch_epoch():
    task = small_task(seed=18)
    view = task.adaptation_view()
    xl, _, xu = data.epoch_batches(view, 12, 300, np.random.default_rng(0))
    assert xl.shape == (12, 2)
    assert xu.shape == (300, 2)
    assert {tuple(r) for r in xu} == {tuple(r) for r in view.unlabeled_x}


def test_sample_batches_deterministic():
    task = small_task(seed=19)
    view = task.adaptation_view()
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        xa, ya, ua = data.epoch_batches(view, 4, 32, a)
        xb, yb, ub = data.epoch_batches(view, 4, 32, b)
        assert np.array_equal(xa, xb)
        assert np.array_equal(ya, yb)
        assert np.array_equal(ua, ub)


def test_sample_batches_validates_sizes():
    # the sizes are checked once, before adapt's first epoch
    view = small_task(seed=20).adaptation_view()
    with pytest.raises(ValueError):
        data.check_batch_sizes(view, 13, 48)
    with pytest.raises(ValueError):
        data.check_batch_sizes(view, 4, 301)


@pytest.mark.parametrize("lb,ub", [(12, 48), (4, 32), (1, 1), (12, 300),
                                   (5, 299)])
def test_epoch_batches_match_one_draw_per_step_bit_for_bit(lb, ub):
    # the per-step order: a fresh permutation, then for each step in
    # order its chunk of the permutation and one draw of lb labeled rows
    view = small_task(seed=22).adaptation_view()
    rng, ref = np.random.default_rng(23), np.random.default_rng(23)
    for _ in range(2):
        got = data.epoch_batches(view, lb, ub, rng)
        perm = ref.permutation(300)
        parts = []
        for start in range(0, 300, ub):
            lab = ref.integers(0, 12, size=lb)
            parts.append((view.labeled_x[lab], view.labeled_y[lab],
                          view.unlabeled_x[perm[start:start + ub]]))
        want = [np.concatenate(part) for part in zip(*parts)]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
            assert g.shape == w.shape



@pytest.mark.parametrize("n_lab,batch,steps",
                         [(12, 12, 21), (12, 4, 75), (1, 1, 1), (7, 5, 3),
                          (13, 3, 101), (2**32 + 15, 12, 21),
                          (2**40 + 1, 7, 9)])
def test_one_labeled_draw_per_epoch_is_the_per_step_stream(n_lab, batch,
                                                           steps):
    # epoch_batches' bit-identity with one draw per step rests on this
    # numpy behaviour: a draw of batch * steps bounded integers gives
    # the per-step draws' values and leaves the same generator state
    for seed in range(20):
        one, per_step = (np.random.default_rng(seed) for _ in range(2))
        got = one.integers(0, n_lab, size=batch * steps)
        want = np.concatenate([per_step.integers(0, n_lab, size=batch)
                               for _ in range(steps)])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert one.bit_generator.state == per_step.bit_generator.state

def test_task_round_trip(tmp_path):
    task = small_task(seed=21)
    path = str(tmp_path / "task.txt")
    data.save_task(task, path)
    back = data.load_task(path)
    assert back.spec == task.spec
    assert back.seed == 21
    assert np.array_equal(back.source_x, task.source_x)
    assert np.array_equal(back.source_y, task.source_y)
    assert np.array_equal(back.labeled_x, task.labeled_x)
    assert np.array_equal(back.unlabeled_x, task.unlabeled_x)
    assert np.array_equal(back._unlabeled_y, task._unlabeled_y)
    assert np.array_equal(back.test_y, task.test_y)
    assert back.source_reads == 0 and back.unlabeled_label_reads == 0
    data.save_task(back, str(tmp_path / "again.txt"))
    assert (tmp_path / "task.txt").read_text() == \
        (tmp_path / "again.txt").read_text()


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("who-knows/9\n")
    with pytest.raises(data.DataFormatError):
        data.load_task(str(p))


def test_load_rejects_label_out_of_range(tmp_path):
    task = small_task(seed=22)
    text = data.serialize_task(task)
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("split.test.y = "):
            head, vals = ln.split(" = ", 1)
            toks = vals.split()
            toks[0] = "9"
            lines[i] = head + " = " + " ".join(toks)
    with pytest.raises(data.DataFormatError):
        data.deserialize_task("\n".join(lines) + "\n")


def _with_split_value(text, key, value):
    """`text` with the first value of the line starting `key = ` replaced."""
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith(key + " = "):
            head, vals = ln.split(" = ", 1)
            lines[i] = head + " = " + " ".join([value] + vals.split()[1:])
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no line {key}")


@pytest.mark.parametrize("split", ["source", "labeled", "unlabeled", "test"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_samples(split, value):
    text = data.serialize_task(small_task(seed=24))
    bad = _with_split_value(text, f"split.{split}.x", value)
    with pytest.raises(data.DataFormatError,
                       match=rf"bad field split\.{split}\.x: non-finite"):
        data.deserialize_task(bad)


@pytest.mark.parametrize("key", ["spec.shift_rotation", "spec.shift_scale",
                                 "spec.noise_std", "spec.shift_translation"])
def test_load_rejects_non_finite_spec(key):
    text = data.serialize_task(small_task(seed=25))
    with pytest.raises(data.DataFormatError, match="finite"):
        data.deserialize_task(_with_split_value(text, key, "nan"))


def test_load_rejects_count_mismatch(tmp_path):
    task = small_task(seed=23)
    text = data.serialize_task(task)
    bad = text.replace("split.labeled.count = 12", "split.labeled.count = 13")
    with pytest.raises(data.DataFormatError):
        data.deserialize_task(bad)
