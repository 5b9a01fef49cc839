import math

import numpy as np
import pytest

from ssht import linalg, losses, metrics, network


def rand_probs(rng, b, c):
    return network.softmax_rows(rng.normal(size=(b, c)))


def two_view_diversity(pw, ps):
    """A step's diversity term: the weak view's loss plus the strong view's."""
    return losses.diversity_loss(pw).value + losses.diversity_loss(ps).value


def test_classification_perfect_prediction():
    p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    lv = losses.classification_loss(p, np.array([0, 1]))
    assert lv.value == pytest.approx(0.0, abs=1e-12)


def test_classification_uniform():
    p = np.full((3, 4), 0.25)
    lv = losses.classification_loss(p, np.array([0, 1, 2]))
    assert lv.value == pytest.approx(math.log(4.0), rel=1e-12)


def test_classification_hand_value():
    p = np.array([[0.7, 0.2, 0.1]])
    lv = losses.classification_loss(p, np.array([0]))
    assert lv.value == pytest.approx(0.3566749, abs=1e-6)


def test_classification_gradient_form():
    rng = np.random.default_rng(0)
    p = rand_probs(rng, 5, 4)
    y = np.array([0, 1, 2, 3, 0])
    lv = losses.classification_loss(p, y)
    onehot = np.zeros_like(p)
    onehot[np.arange(5), y] = 1.0
    np.testing.assert_allclose(lv.grad,
                               (p - onehot) / 5, atol=1e-12)


def test_classification_clamps_zero_probability():
    losses.reset_clamp_count()
    p = np.array([[0.0, 1.0]])
    lv = losses.classification_loss(p, np.array([0]))
    assert np.isfinite(lv.value)
    assert lv.value == pytest.approx(-math.log(1e-12))
    assert losses.clamp_count() == 1


def test_classification_rejects_bad_labels():
    p = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError):
        losses.classification_loss(p, np.array([0, 3]))
    with pytest.raises(ValueError):
        losses.classification_loss(p, np.array([0.5, 1.5]))


def test_consistency_below_threshold_is_zero():
    pw = np.array([[0.6, 0.4]])
    ps = np.array([[0.5, 0.5]])
    lv, mask = losses.consistency_loss(pw, ps, tau=0.8)
    assert lv.value == 0.0
    assert mask == 0.0
    assert np.all(lv.grad == 0.0)


def test_consistency_confident_and_correct_strong():
    pw = np.array([[0.9, 0.1]])
    ps = np.array([[1.0, 0.0]])
    lv, mask = losses.consistency_loss(pw, ps, tau=0.8)
    assert lv.value == pytest.approx(0.0, abs=1e-12)
    assert mask == 1.0


def test_consistency_hand_value():
    pw = np.array([[0.9, 0.1]])
    ps = np.array([[0.5, 0.5]])
    lv, mask = losses.consistency_loss(pw, ps, tau=0.8)
    assert lv.value == pytest.approx(0.6931472, abs=1e-6)
    assert mask == 1.0


def test_consistency_full_batch_mean():
    # one confident row, one not: the sum divides by the full batch
    pw = np.array([[0.9, 0.1], [0.6, 0.4]])
    ps = np.array([[0.5, 0.5], [0.2, 0.8]])
    lv, mask = losses.consistency_loss(pw, ps, tau=0.8)
    assert lv.value == pytest.approx(-math.log(0.5) / 2)
    assert mask == 0.5
    g = lv.grad
    assert np.all(g[1] == 0.0)
    np.testing.assert_allclose(g[0], (ps[0] - [1.0, 0.0]) / 2, atol=1e-12)


def test_consistency_threshold_strict():
    pw = np.array([[0.8, 0.2]])
    ps = np.array([[0.5, 0.5]])
    _, mask = losses.consistency_loss(pw, ps, tau=0.8)
    assert mask == 0.0  # max == tau does not select


def test_consistency_mask_monotone_in_tau():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pw = rand_probs(rng, 16, 4)
        ps = rand_probs(rng, 16, 4)
        rates = [losses.consistency_loss(pw, ps, t)[1]
                 for t in np.linspace(0.01, 0.99, 100)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_consistency_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        losses.consistency_loss(np.full((2, 3), 1 / 3), np.full((2, 4), 0.25),
                                tau=0.5)
    with pytest.raises(ValueError):
        losses.consistency_loss(np.full((1, 2), 0.5), np.full((1, 2), 0.5),
                                tau=0.0)


def test_diversity_single_one_hot_rows():
    p = np.array([[1.0, 0.0, 0.0]])
    assert two_view_diversity(p, p) == pytest.approx(-2.0, abs=1e-10)


def test_diversity_collapsed_batch():
    p = np.zeros((4, 4))
    p[:, 0] = 1.0
    assert two_view_diversity(p, p) == pytest.approx(-1.0, abs=1e-10)


def test_diversity_spread_batch():
    p = np.eye(4)
    assert two_view_diversity(p, p) == pytest.approx(-2.0, abs=1e-10)


def test_diversity_prefers_coverage():
    # every one-hot 4x4 configuration scores no better than full coverage
    spread = two_view_diversity(np.eye(4), np.eye(4))
    collapsed = []
    for assign in np.ndindex(4, 4, 4, 4):
        p = np.zeros((4, 4))
        p[np.arange(4), list(assign)] = 1.0
        v = two_view_diversity(p, p)
        counts = np.bincount(list(assign), minlength=4)
        expected = -2.0 * sum(math.sqrt(k) for k in counts if k) / 4.0
        assert v == pytest.approx(expected, abs=1e-8)
        collapsed.append(v)
    assert spread == pytest.approx(min(collapsed), abs=1e-10)
    assert max(collapsed) == pytest.approx(-1.0, abs=1e-10)


def test_diversity_permutation_invariance():
    rng = np.random.default_rng(2)
    pw, ps = rand_probs(rng, 6, 4), rand_probs(rng, 6, 4)
    base = two_view_diversity(pw, ps)
    rows = rng.permutation(6)
    cols = rng.permutation(4)
    assert two_view_diversity(pw[rows], ps[rows]) == \
        pytest.approx(base, rel=1e-10)
    assert two_view_diversity(pw[:, cols], ps[:, cols]) == \
        pytest.approx(base, rel=1e-10)


def seed_diversity_loss(p):
    """The two-decompositions-per-matrix formula, kept as the oracle."""
    b = p.shape[0]
    value = -linalg.nuclear_norm(p) / b
    grad = losses.softmax_backward(p, -linalg.nuclear_norm_subgradient(p) / b)
    return float(value), grad


def test_diversity_bit_identical_to_two_decomposition_oracle():
    rng = np.random.default_rng(40)
    collapsed = np.zeros((6, 4))
    collapsed[:, 2] = 1.0
    zero_col = rand_probs(rng, 6, 3)
    zero_col = np.hstack([zero_col[:, :1], np.zeros((6, 1)), zero_col[:, 1:]])
    cases = [(rand_probs(rng, 8, 4), rand_probs(rng, 8, 4)),
             (np.eye(4)[[0, 1, 1, 3, 2]], np.eye(4)[[3, 3, 0, 1, 2]]),
             (collapsed, rand_probs(rng, 6, 4)),
             (zero_col, zero_col[::-1].copy()),
             (rand_probs(rng, 40, 4), rand_probs(rng, 40, 4))]
    for pw, ps in cases:
        for p in (pw, ps):
            lv = losses.diversity_loss(p)
            value, grad = seed_diversity_loss(p)
            assert lv.value == value
            assert np.array_equal(lv.grad, grad)


def test_entropy_one_hot_rows():
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    lv = losses.entropy_loss(p)
    assert lv.value == 0.0
    assert np.all(np.isfinite(lv.grad))


def test_entropy_uniform():
    p = np.full((2, 4), 0.25)
    lv = losses.entropy_loss(p)
    assert lv.value == pytest.approx(math.log(4.0), rel=1e-12)


def test_entropy_hand_value():
    lv = losses.entropy_loss(np.array([[0.7, 0.2, 0.1]]))
    assert lv.value == pytest.approx(0.8018186, abs=1e-6)


def test_total_arithmetic():
    rng = np.random.default_rng(4)
    labels = np.array([0, 1])
    probs = np.concatenate([rand_probs(rng, 2, 4), rand_probs(rng, 3, 4),
                            rand_probs(rng, 3, 4)])
    step = losses.total_loss(probs, labels, slice(2, 5), slice(5, 8),
                             {"consistency": 2.5, "diversity": 1.0}, tau=0.3)
    assert step.l_c == losses.classification_loss(probs[:2], labels).value
    assert step.l_u == losses.consistency_loss(probs[2:5], probs[5:],
                                               0.3)[0].value
    assert step.l_d == two_view_diversity(probs[2:5], probs[5:])
    assert step.total - (step.l_c + 2.5 * step.l_u + 1.0 * step.l_d) == \
        pytest.approx(0.0, abs=1e-12)


def test_total_zero_lambdas_equals_classification():
    rng = np.random.default_rng(3)
    p = rand_probs(rng, 4, 3)
    labels = np.array([0, 1, 2, 0])
    l_c = losses.classification_loss(p, labels)
    pw, ps = rand_probs(rng, 5, 3), rand_probs(rng, 5, 3)
    total = losses.total_loss(np.concatenate([p, pw, ps]), labels,
                              slice(4, 9), slice(9, 14),
                              {"consistency": 0.0, "diversity": 0.0}, tau=0.8)
    assert total.total == l_c.value
    np.testing.assert_array_equal(total.grad[:4], l_c.grad)
    assert np.all(total.grad[4:9] == 0.0)
    assert np.all(total.grad[9:] == 0.0)


def test_total_merges_gradients_per_pass():
    rng = np.random.default_rng(4)
    pw, ps = rand_probs(rng, 3, 4), rand_probs(rng, 3, 4)
    l_u, _ = losses.consistency_loss(pw, ps, tau=0.1)
    l_d = losses.diversity_loss(ps)
    pl = rand_probs(rng, 2, 4)
    total = losses.total_loss(np.concatenate([pl, pw, ps]), np.array([0, 1]),
                              slice(2, 5), slice(5, 8),
                              {"consistency": 2.5, "diversity": 1.0}, tau=0.1)
    expected_strong = 2.5 * l_u.grad + l_d.grad
    np.testing.assert_allclose(total.grad[5:], expected_strong, atol=1e-15)


def fd_logit_grad(fn, z, h=1e-5):
    g = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += h
            zm[i, j] -= h
            g[i, j] = (fn(zp) - fn(zm)) / (2 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce(
        [np.abs(a), np.abs(b), np.full_like(a, 1e-6)]))


def test_classification_gradient_finite_differences():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    lv = losses.classification_loss(network.softmax_rows(z), y)
    fd = fd_logit_grad(
        lambda zz: losses.classification_loss(network.softmax_rows(zz), y).value, z)
    assert rel_err(lv.grad, fd) <= 1e-4


def test_consistency_gradient_finite_differences():
    # weak logits held fixed: the pseudo-label is a constant target
    rng = np.random.default_rng(6)
    zw = 3.0 * rng.normal(size=(8, 4))
    zs = rng.normal(size=(8, 4))
    pw = network.softmax_rows(zw)
    lv, _ = losses.consistency_loss(pw, network.softmax_rows(zs), tau=0.5)
    fd = fd_logit_grad(
        lambda zz: losses.consistency_loss(
            pw, network.softmax_rows(zz), tau=0.5)[0].value, zs)
    assert rel_err(lv.grad, fd) <= 1e-4


def test_entropy_gradient_finite_differences():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 4))
    lv = losses.entropy_loss(network.softmax_rows(z))
    fd = fd_logit_grad(
        lambda zz: losses.entropy_loss(network.softmax_rows(zz)).value, z)
    assert rel_err(lv.grad, fd) <= 1e-4


def test_diversity_gradient_finite_differences():
    from ssht import linalg
    rng = np.random.default_rng(8)
    tried = 0
    while tried < 3:
        zw = rng.normal(size=(6, 4))
        zs = rng.normal(size=(6, 4))
        pw, ps = network.softmax_rows(zw), network.softmax_rows(zs)
        ok = True
        for p in (pw, ps):
            sig = linalg.svd(p).sigma
            gaps = -np.diff(sig)
            if np.min(gaps) <= 1e-3 * sig[0] or sig[-1] <= 1e-3 * sig[0]:
                ok = False
        if not ok:
            continue
        fd_w = fd_logit_grad(
            lambda zz: losses.diversity_loss(network.softmax_rows(zz)).value, zw)
        fd_s = fd_logit_grad(
            lambda zz: losses.diversity_loss(network.softmax_rows(zz)).value, zs)
        assert rel_err(losses.diversity_loss(pw).grad, fd_w) <= 1e-4
        assert rel_err(losses.diversity_loss(ps).grad, fd_s) <= 1e-4
        tried += 1


def test_diversity_ratio_collapsed():
    rec = metrics.diversity_ratio([0, 0, 0, 0], [0, 1, 2, 3])
    assert rec.predicted_categories == 1
    assert rec.true_categories == 4
    assert rec.ratio == 0.25


def test_diversity_ratio_full():
    rec = metrics.diversity_ratio([3, 2, 1, 0], [0, 1, 2, 3])
    assert rec.ratio == 1.0


def test_diversity_ratio_can_exceed_one():
    rec = metrics.diversity_ratio([0, 1, 2, 3, 4], [0, 0, 1, 2, 3])
    assert rec.ratio == pytest.approx(1.25)


def test_diversity_ratio_permutation_invariant():
    rng = np.random.default_rng(9)
    pred = rng.integers(0, 4, size=20)
    true = rng.integers(0, 4, size=20)
    base = metrics.diversity_ratio(pred, true).ratio
    perm = rng.permutation(20)
    assert metrics.diversity_ratio(pred[perm], true[perm]).ratio == base


def test_diversity_ratio_rejects_empty():
    with pytest.raises(ValueError):
        metrics.diversity_ratio([], [])


def test_aggregate_diversity_perfect_predictor():
    # a network that reproduces the true labels gives ratio 1 always
    spec = network.NetworkSpec(input_dim=2, hidden_dims=[8], feature_dim=4,
                               num_classes=2)
    net = network.init_network(spec, seed=0)
    rng = np.random.default_rng(10)
    xs = rng.normal(size=(100, 2))
    xs[:50, 0] = np.abs(xs[:50, 0]) + 1.0
    xs[50:, 0] = -np.abs(xs[50:, 0]) - 1.0
    ys = np.array([0] * 50 + [1] * 50)
    for p in net.params:
        p[...] = 0.0
    net.params[0][0, 0] = -5.0  # first hidden unit reads -x0
    net.params[2][0, :] = 1.0
    net.params[4][:, 1] = 5.0   # class 1 logit rises with -x0
    pred = np.argmax(network.forward(net, xs)[1], axis=1)
    ratios = metrics.aggregate_diversity(pred, ys, batch_size=10,
                                         num_batches=20,
                                         rng=np.random.default_rng(11))
    assert ratios == pytest.approx(1.0)


@pytest.mark.parametrize("batch_size,num_batches", [(48, 50), (1, 7), (60, 3)])
def test_aggregate_diversity_matches_per_batch_loop(batch_size, num_batches):
    spec = network.NetworkSpec(input_dim=2, hidden_dims=[8], feature_dim=4,
                               num_classes=5)
    net = network.init_network(spec, seed=31)
    rng = np.random.default_rng(32)
    xs = rng.normal(size=(60, 2)) * 4.0
    ys = rng.integers(0, 5, size=60)
    pred = np.argmax(network.forward(net, xs)[1], axis=1)
    got = metrics.aggregate_diversity(pred, ys, batch_size=batch_size,
                                      num_batches=num_batches,
                                      rng=np.random.default_rng(33))
    draws = np.random.default_rng(33)
    total = 0.0
    for b in range(num_batches):
        idx = draws.choice(60, size=batch_size, replace=False)
        total += metrics.diversity_ratio(pred[idx], ys[idx], b).ratio
    assert got == total / num_batches


def test_aggregate_diversity_rejects_no_batches():
    with pytest.raises(ValueError):
        metrics.aggregate_diversity(np.zeros(4, int), np.zeros(4, int),
                                    batch_size=2, num_batches=0)


@pytest.mark.parametrize("pred,ys", [(np.zeros(4, int), np.zeros(5, int)),
                                     (np.zeros((4, 2), int),
                                      np.zeros((4, 2), int))])
def test_aggregate_diversity_rejects_mismatched_labels(pred, ys):
    with pytest.raises(ValueError, match="label vectors"):
        metrics.aggregate_diversity(pred, ys, batch_size=2, num_batches=1)
