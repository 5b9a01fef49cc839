import math

import numpy as np
import pytest

from ssht import linalg, losses, metrics, network, pipeline

TAU = 0.5


def rand_probs(rng, b, c):
    return losses.softmax_and_log(rng.normal(size=(b, c)))[0]


def from_logits(z):
    """The probabilities and log-probabilities of a logit matrix. A
    logit 1000 below its row max gives a probability of exactly 0."""
    return losses.softmax_and_log(np.asarray(z, dtype=float))


def two_view_diversity(pw, ps):
    """A step's diversity term: the loss of the (weak, strong) stack."""
    return losses.diversity_loss(np.stack((pw, ps))).value


def plain_classification(p, log_p, y):
    """Mean cross-entropy against hard labels and its gradient
    (p - onehot) / B: the plain formula, kept as the oracle."""
    b = p.shape[0]
    rows = np.arange(b)
    grad = p.copy()
    grad[rows, y] -= 1.0
    grad /= b
    return float(-log_p[rows, y].sum() / b), grad


def plain_consistency(pw, ps, log_ps, tau):
    """Thresholded pseudo-label cross-entropy from the weak to the strong
    view and its strong-row gradient: the plain formula, kept as the
    oracle."""
    b = pw.shape[0]
    rows = np.arange(b)
    pseudo = pw.argmax(axis=1)
    selected = pw[rows, pseudo] > tau
    terms = -log_ps[rows, pseudo]
    terms[~selected] = 0.0
    grad = ps.copy()
    grad[rows, pseudo] -= 1.0
    grad[~selected] = 0.0
    grad /= b
    return float(terms.sum() / b), grad


def classification_step(logits, labels):
    """total_loss on labeled rows alone: the s_plus_t objective."""
    return losses.total_loss(np.asarray(logits, dtype=float),
                             np.asarray(labels), {}, TAU)


def consistency_step(weak_logits, strong_logits, tau):
    """total_loss under consistency at weight 1 on one labeled row, then
    the weak rows, then as many strong rows; the strong rows' gradient
    is step.grad[1 + len(weak_logits):]."""
    strong_logits = np.asarray(strong_logits, dtype=float)
    logits = np.vstack((np.zeros((1, strong_logits.shape[1])),
                        weak_logits, strong_logits))
    return losses.total_loss(logits, np.array([0]), {"consistency": 1.0}, tau)


def test_classification_perfect_prediction():
    logits = [[0.0, -1000.0, -1000.0], [-1000.0, 0.0, -1000.0]]
    assert np.array_equal(from_logits(logits)[0],
                          [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    step = classification_step(logits, [0, 1])
    assert step.l_c == pytest.approx(0.0, abs=1e-12)


def test_classification_uniform():
    assert np.array_equal(from_logits(np.zeros((3, 4)))[0],
                          np.full((3, 4), 0.25))
    step = classification_step(np.zeros((3, 4)), [0, 1, 2])
    assert step.l_c == pytest.approx(math.log(4.0), rel=1e-12)


def test_classification_hand_value():
    step = classification_step(np.log([[0.7, 0.2, 0.1]]), [0])
    assert step.l_c == pytest.approx(0.3566749, abs=1e-6)


def test_classification_gradient_form():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(5, 4))
    p = from_logits(z)[0]
    y = np.array([0, 1, 2, 3, 0])
    step = classification_step(z, y)
    onehot = np.zeros_like(p)
    onehot[np.arange(5), y] = 1.0
    np.testing.assert_allclose(step.grad,
                               (p - onehot) / 5, atol=1e-12)


def test_classification_clamps_zero_probability():
    # a label probability that underflows to 0 is not clamped: its
    # loss is the exact logit gap, and the gradient is still p - onehot
    p, _ = from_logits([[3.0, 803.0]])
    assert p[0, 0] == 0.0
    step = classification_step([[3.0, 803.0]], [0])
    assert step.l_c == 800.0
    assert np.array_equal(step.grad, [[-1.0, 1.0]])


def test_classification_loss_is_exact_for_a_label_logit_trailing_by_1000():
    logits, labels = np.array([[0.0, 1000.0]]), np.array([0])
    assert plain_classification(*from_logits(logits), labels)[0] == 1000.0
    step = losses.total_loss(logits, labels, {}, TAU)
    assert step.l_c == step.total == 1000.0


def test_total_loss_is_not_finite_when_a_logit_spread_overflows():
    # no clamp hides the overflow: under adapt's floating-point guard it
    # raises, and the run rolls back to the last completed epoch
    with pytest.warns(RuntimeWarning, match="overflow"):
        step = losses.total_loss(np.array([[1e308, -1e308]]), np.array([1]),
                                 {}, TAU)
    assert step.l_c == step.total == math.inf


def test_classification_rejects_bad_labels():
    for labels, match in [([0, 3], r"labels must lie in \[0, 3\)"),
                          ([-1, 0], r"labels must lie in \[0, 3\)"),
                          ([0.5, 1.5], "labels must be integers"),
                          ([[0], [1]], r"labels must have shape \(2,\)")]:
        for weights in ({}, {"consistency": 1.0}):
            n_rows = 2 + 2 * len(losses.views_read(weights))
            with pytest.raises(ValueError, match=match):
                losses.total_loss(np.zeros((n_rows, 3)), np.array(labels),
                                  weights, TAU)


def test_consistency_below_threshold_is_zero():
    step = consistency_step(np.log([[0.6, 0.4]]), [[0.0, 0.0]], tau=0.8)
    assert step.l_u == 0.0
    assert step.mask_rate == 0.0
    assert np.all(step.grad[1:] == 0.0)


def test_consistency_confident_and_correct_strong():
    assert np.array_equal(from_logits([[0.0, -1000.0]])[0], [[1.0, 0.0]])
    step = consistency_step(np.log([[0.9, 0.1]]), [[0.0, -1000.0]], tau=0.8)
    assert step.l_u == pytest.approx(0.0, abs=1e-12)
    assert step.mask_rate == 1.0


def test_consistency_hand_value():
    step = consistency_step(np.log([[0.9, 0.1]]), [[0.0, 0.0]], tau=0.8)
    assert step.l_u == pytest.approx(0.6931472, abs=1e-6)
    assert step.mask_rate == 1.0


def test_consistency_full_batch_mean():
    # one confident row, one not: the sum divides by the full batch
    zs = [[0.0, 0.0], [0.0, math.log(4.0)]]
    ps = from_logits(zs)[0]
    step = consistency_step(np.log([[0.9, 0.1], [0.6, 0.4]]), zs, tau=0.8)
    assert step.l_u == pytest.approx(-math.log(0.5) / 2)
    assert step.mask_rate == 0.5
    g = step.grad[3:]
    assert np.all(g[1] == 0.0)
    np.testing.assert_allclose(g[0], (ps[0] - [1.0, 0.0]) / 2, atol=1e-12)


def test_consistency_threshold_strict():
    # the weak row's confidence is exactly 0.5
    step = consistency_step([[0.0, 0.0]], [[0.0, 0.0]], tau=0.5)
    assert step.mask_rate == 0.0  # max == tau does not select


def test_consistency_mask_monotone_in_tau():
    rng = np.random.default_rng(1)
    for _ in range(20):
        zw, zs = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
        rates = [consistency_step(zw, zs, t).mask_rate
                 for t in np.linspace(0.01, 0.99, 100)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_consistency_rejects_mismatched_shapes():
    # a weak and a strong view of different row counts do not stack into
    # one step; a tau of 0 is outside (0, 1]
    with pytest.raises(ValueError, match="do not split"):
        losses.total_loss(np.zeros((2 + 5, 3)), np.array([0, 1]),
                          {"consistency": 1.0}, 0.5)
    with pytest.raises(ValueError, match="tau must lie in"):
        losses.total_loss(np.zeros((1 + 2, 2)), np.array([0]),
                          {"consistency": 1.0}, 0.0)


@pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, math.nan])
@pytest.mark.parametrize("weights", [{"consistency": 1.0}, {"entropy": 1.0},
                                     {"diversity": 1.0}])
def test_consistency_rejects_tau_outside_unit_interval(tau, weights):
    # checked whenever a weak view is stacked, whichever term reads it;
    # a step that stacks no view reads no tau
    n_rows = 2 + 3 * len(losses.views_read(weights))
    with pytest.raises(ValueError, match="tau must lie in"):
        losses.total_loss(np.zeros((n_rows, 3)), np.array([0, 1]), weights,
                          tau)
    assert losses.total_loss(np.zeros((2, 3)), np.array([0, 1]), {},
                             tau).mask_rate == 0.0


def test_consistency_loss_is_exact_for_a_strong_row_trailing_by_1000():
    # labeled, weak and strong rows: the weak row is sure of class 0,
    # the strong row's class-0 logit trails its max by 1000
    logits = np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, 1000.0]])
    step = losses.total_loss(logits, np.array([0]), {"consistency": 1.0},
                             0.8)
    assert (step.l_u, step.mask_rate) == (1000.0, 1.0)


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
    value = -linalg.nuclear_norm_and_subgradient(p[None])[0][0] / b
    sub = linalg.nuclear_norm_and_subgradient(p[None])[1][0]
    grad = losses.softmax_backward(p, -sub / b)
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
            lv = losses.diversity_loss(p[None])
            value, grad = seed_diversity_loss(p)
            assert lv.value == value
            assert np.array_equal(lv.grad[0], grad)


def test_entropy_one_hot_rows():
    p, log_p = from_logits([[0.0, -1000.0], [-1000.0, 0.0]])
    assert np.array_equal(p, [[1.0, 0.0], [0.0, 1.0]])
    lv = losses.entropy_loss(p, log_p)
    assert lv.value == 0.0
    assert np.all(np.isfinite(lv.grad))


def test_entropy_uniform():
    lv = losses.entropy_loss(*from_logits(np.zeros((2, 4))))
    assert lv.value == pytest.approx(math.log(4.0), rel=1e-12)


def test_entropy_hand_value():
    lv = losses.entropy_loss(*from_logits(np.log([[0.7, 0.2, 0.1]])))
    assert lv.value == pytest.approx(0.8018186, abs=1e-6)


def test_total_arithmetic():
    rng = np.random.default_rng(4)
    labels = np.array([0, 1])
    logits = rng.normal(size=(8, 4))
    probs, log_p = from_logits(logits)
    step = losses.total_loss(logits, labels,
                             {"consistency": 2.5, "diversity": 1.0}, tau=0.3)
    assert step.l_c == plain_classification(probs[:2], log_p[:2], labels)[0]
    assert step.l_u == plain_consistency(probs[2:5], probs[5:], log_p[5:],
                                         0.3)[0]
    assert step.l_d == two_view_diversity(probs[2:5], probs[5:])
    assert step.total - (step.l_c + 2.5 * step.l_u + 1.0 * step.l_d) == \
        pytest.approx(0.0, abs=1e-12)


def test_total_zero_lambdas_equals_classification():
    # zero weights leave the s_plus_t step of the labeled rows, with
    # +0.0 in every unlabeled row
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(14, 3))
    labels = np.array([0, 1, 2, 0])
    l_c = classification_step(logits[:4], labels)
    total = losses.total_loss(logits, labels,
                              {"consistency": 0.0, "diversity": 0.0}, tau=0.8)
    assert total.total == l_c.total == l_c.l_c
    assert total.total == plain_classification(*from_logits(logits[:4]),
                                               labels)[0]
    np.testing.assert_array_equal(total.grad[:4], l_c.grad)
    assert np.all(total.grad[4:9] == 0.0)
    assert np.all(total.grad[9:] == 0.0)
    assert not np.signbit(total.grad[4:]).any()


def test_total_merges_gradients_per_pass():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(8, 4))
    p, log_p = from_logits(logits)
    _, g_u = plain_consistency(p[2:5], p[5:], log_p[5:], tau=0.1)
    l_d = losses.diversity_loss(p[None, 5:])
    total = losses.total_loss(logits, np.array([0, 1]),
                              {"consistency": 2.5, "diversity": 1.0}, tau=0.1)
    expected_strong = 2.5 * g_u + l_d.grad[0]
    np.testing.assert_allclose(total.grad[5:], expected_strong, atol=1e-15)


def test_total_overflow_is_seen_by_np_errstate():
    # the weighted terms are summed as numpy scalars, so an overflow of
    # the total raises under a training loop's guard; in Python floats it
    # would give inf, with a finite gradient, and raise nothing
    logits = np.random.default_rng(4).normal(size=(8, 4))
    labels = np.array([0, 1])
    l_u = losses.total_loss(logits, labels, {"consistency": 1.0}, 0.1).l_u
    assert 1.7e308 * l_u == math.inf  # the weighted term alone overflows
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            losses.total_loss(logits, labels,
                              {"consistency": 1.7e308, "diversity": 1.0},
                              tau=0.1)


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
    step = classification_step(z, y)
    fd = fd_logit_grad(lambda zz: classification_step(zz, y).l_c, z)
    assert rel_err(step.grad, fd) <= 1e-4


def test_consistency_gradient_finite_differences():
    # weak logits held fixed: the pseudo-label is a constant target
    rng = np.random.default_rng(6)
    zw = 3.0 * rng.normal(size=(8, 4))
    zs = rng.normal(size=(8, 4))
    step = consistency_step(zw, zs, tau=0.5)
    assert step.mask_rate > 0.0
    fd = fd_logit_grad(lambda zz: consistency_step(zw, zz, tau=0.5).l_u, zs)
    assert rel_err(step.grad[9:], fd) <= 1e-4


def test_entropy_gradient_finite_differences():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 4))
    lv = losses.entropy_loss(*from_logits(z))
    fd = fd_logit_grad(
        lambda zz: losses.entropy_loss(*from_logits(zz)).value, z)
    assert rel_err(lv.grad, fd) <= 1e-4


def test_diversity_gradient_finite_differences():
    from ssht import linalg
    rng = np.random.default_rng(8)
    tried = 0
    while tried < 3:
        zw = rng.normal(size=(6, 4))
        zs = rng.normal(size=(6, 4))
        pw, ps = from_logits(zw)[0], from_logits(zs)[0]
        ok = True
        for sig in linalg.svd(np.stack((pw, ps))).sigma:
            gaps = -np.diff(sig)
            if np.min(gaps) <= 1e-3 * sig[0] or sig[-1] <= 1e-3 * sig[0]:
                ok = False
        if not ok:
            continue
        fd_w = fd_logit_grad(
            lambda zz: losses.diversity_loss(from_logits(zz)[0][None]).value,
            zw)
        fd_s = fd_logit_grad(
            lambda zz: losses.diversity_loss(from_logits(zz)[0][None]).value,
            zs)
        assert rel_err(losses.diversity_loss(pw[None]).grad[0], fd_w) <= 1e-4
        assert rel_err(losses.diversity_loss(ps[None]).grad[0], fd_s) <= 1e-4
        tried += 1


def _one_batch_ratio(pred, true):
    """The diversity ratio of one batch: on fewer than BATCH_SIZE rows
    every batch holds all of them, so the draw's order, and with it the
    generator, leaves the ratio as is."""
    assert len(true) < metrics.BATCH_SIZE
    return metrics.aggregate_diversity(np.asarray(pred), np.asarray(true),
                                       np.random.default_rng(0))


def test_diversity_ratio_collapsed():
    assert _one_batch_ratio([0, 0, 0, 0], [0, 1, 2, 3]) == 0.25


def test_diversity_ratio_full():
    assert _one_batch_ratio([3, 2, 1, 0], [0, 1, 2, 3]) == 1.0


def test_diversity_ratio_can_exceed_one():
    assert _one_batch_ratio([0, 1, 2, 3, 4], [0, 0, 1, 2, 3]) == \
        pytest.approx(1.25)


def test_diversity_ratio_permutation_invariant():
    rng = np.random.default_rng(9)
    pred = rng.integers(0, 4, size=20)
    true = rng.integers(0, 4, size=20)
    base = _one_batch_ratio(pred, true)
    perm = rng.permutation(20)
    assert _one_batch_ratio(pred[perm], true[perm]) == base


def test_diversity_ratio_rejects_empty():
    # no rows: an error before any draw, not a sample of empty batches
    rng = CountingGenerator(0)
    with pytest.raises(ValueError, match="no rows"):
        metrics.aggregate_diversity(np.zeros(0, int), np.zeros(0, int), rng)
    assert rng.perms == []


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
    pred = np.argmax(network.forward(net, xs), axis=1)
    ratios = metrics.aggregate_diversity(pred, ys, np.random.default_rng(11))
    assert ratios == pytest.approx(1.0)


def _per_batch_loop_matches(n):
    """aggregate_diversity on n rows equals the mean of its batches' ratios
    taken one by one: batch b is slice b % k of permutation b // k, with
    k = n // size."""
    spec = network.NetworkSpec(input_dim=2, hidden_dims=[8], feature_dim=4,
                               num_classes=5)
    net = network.init_network(spec, seed=31)
    rng = np.random.default_rng(32)
    xs = rng.normal(size=(n, 2)) * 4.0
    ys = rng.integers(0, 5, size=n)
    pred = np.argmax(network.forward(net, xs), axis=1)
    got = metrics.aggregate_diversity(pred, ys, np.random.default_rng(33))
    draws = np.random.default_rng(33)
    size = min(metrics.BATCH_SIZE, n)
    per_perm = n // size
    total = 0.0
    for b in range(metrics.BATCHES):
        if b % per_perm == 0:
            perm = draws.permutation(n)
        idx = perm[(b % per_perm) * size:][:size]
        total += np.unique(pred[idx]).size / np.unique(ys[idx]).size
    assert got == total / metrics.BATCHES


@pytest.mark.parametrize("n", [500, 60, 48, 30])
def test_aggregate_diversity_matches_per_batch_loop_over_rows(n):
    _per_batch_loop_matches(n)


@pytest.mark.parametrize("batch_size,num_batches", [(48, 50), (1, 7), (60, 3)])
def test_aggregate_diversity_matches_per_batch_loop(batch_size, num_batches,
                                                    monkeypatch):
    # the same draw at other sample shapes than the module's, on 60 rows
    monkeypatch.setattr(metrics, "BATCH_SIZE", batch_size)
    monkeypatch.setattr(metrics, "BATCHES", num_batches)
    _per_batch_loop_matches(60)


class CountingGenerator:
    """Forwards permutation to a real generator, keeps what it returned,
    and fails on any other generator method."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.perms = []

    def permutation(self, n):
        perm = self._rng.permutation(n)
        self.perms.append(perm.copy())
        return perm

    def __getattr__(self, name):
        raise AssertionError(f"unexpected generator call {name}")



@pytest.mark.parametrize("n,batch_size,num_batches",
                         [(1000, 48, 50), (60, 48, 50), (50, 48, 50),
                          (10, 48, 50), (60, 60, 4), (60, 31, 5),
                          (60, 7, 20), (10, 1, 25), (50, 17, 1)])
def test_aggregate_diversity_draws_whole_permutations(n, batch_size,
                                                      num_batches,
                                                      monkeypatch):
    # the sample of n rows: num_batches batches of min(batch_size, n) rows,
    # with BATCH_SIZE and BATCHES set to batch_size and num_batches (the
    # module's own values in the first four cases). pred is the row number
    # and every true label is 0, so a batch's ratio is its count of
    # distinct rows
    monkeypatch.setattr(metrics, "BATCH_SIZE", batch_size)
    monkeypatch.setattr(metrics, "BATCHES", num_batches)
    size = min(batch_size, n)
    rng = CountingGenerator(0)
    ratio = metrics.aggregate_diversity(np.arange(n), np.zeros(n, int), rng)
    per_perm = n // size
    assert len(rng.perms) == -(-num_batches // per_perm)
    assert all(np.array_equal(np.sort(p), np.arange(n)) for p in rng.perms)
    # every batch holds size distinct rows
    assert ratio == size
    # the batches cut from one permutation are disjoint
    for perm in rng.perms:
        cut = perm[:per_perm * size].reshape(per_perm, size)
        assert np.unique(cut).size == cut.size


@pytest.mark.parametrize("pred,ys", [(np.zeros(4, int), np.zeros(5, int)),
                                     (np.zeros((4, 2), int),
                                      np.zeros((4, 2), int))])
def test_aggregate_diversity_rejects_mismatched_labels(pred, ys):
    with pytest.raises(ValueError, match="label vectors"):
        metrics.aggregate_diversity(pred, ys, np.random.default_rng(0))


def test_diversity_of_a_stack_equals_its_views_bit_for_bit():
    rng = np.random.default_rng(41)
    collapsed = np.zeros((8, 4))
    collapsed[:, 2] = 1.0
    for pw, ps in ((rand_probs(rng, 8, 4), rand_probs(rng, 8, 4)),
                   (collapsed, rand_probs(rng, 8, 4)),
                   (np.eye(4)[np.arange(8) % 4], collapsed)):
        both = losses.diversity_loss(np.stack((pw, ps)))
        weak = losses.diversity_loss(pw[None])
        strong = losses.diversity_loss(ps[None])
        assert both.value == weak.value + strong.value
        assert np.array_equal(both.grad,
                              np.concatenate((weak.grad, strong.grad)))


def test_diversity_loss_rejects_a_single_matrix():
    with pytest.raises(ValueError, match="ndim=2"):
        losses.diversity_loss(np.full((4, 2), 0.5))


def view_rows(n_labeled, n_unlabeled, views):
    """The rows of the weak and of the strong view in a step that stacks
    n_labeled labeled rows, then n_unlabeled rows of each view in views
    (weak first); None for a view the step does not stack."""
    weak = slice(n_labeled, n_labeled + n_unlabeled) if views else None
    strong = slice(n_labeled + n_unlabeled, n_labeled + 2 * n_unlabeled) \
        if len(views) == 2 else None
    return weak, strong


def step_logits(rng, n_labeled, n_unlabeled, views):
    """Stacked logits for a step of the views, with a labeled row whose
    label probability underflows to 0, a weak row exactly at TAU and a
    strong row whose pseudo-label probability underflows to 0."""
    weak, strong = view_rows(n_labeled, n_unlabeled, views)
    logits = rng.normal(size=(n_labeled + len(views) * n_unlabeled, 4))
    logits[0] = [-1000.0, 0.0, -1000.0, -1000.0]  # label 0: p = 0
    if weak is not None:
        # p = [0.5, 0.5, 0, 0]: max == TAU, masked
        logits[weak.start] = [0.0, 0.0, -1000.0, -1000.0]
        logits[weak.start + 1] = [2.0, 0.0, -1000.0, -1000.0]  # above TAU
    if strong is not None:
        # pseudo-label 0 at p = 0
        logits[strong.start + 1] = [-1000.0, 0.0, 0.0, -1000.0]
    return logits


def assembled_step(logits, labels, weights, weak, strong):
    """The step's terms one by one, assembled as in the seed: the
    classification gradient in the labeled rows of a zero matrix, then
    every weighted term added in TERMS order, each view's diversity on
    its own."""
    probs, log_p = losses.softmax_and_log(logits)
    grad = np.zeros_like(probs)
    labeled = slice(0, len(labels))
    l_c, grad[labeled] = plain_classification(probs[labeled], log_p[labeled],
                                              labels)
    values = dict.fromkeys(losses.TERMS, 0.0)
    if "consistency" in weights:
        value, g_u = plain_consistency(probs[weak], probs[strong],
                                       log_p[strong], TAU)
        values["consistency"] += value
        grad[strong] += weights["consistency"] * g_u
    if "entropy" in weights:
        lv = losses.entropy_loss(probs[weak], log_p[weak])
        values["entropy"] += lv.value
        grad[weak] += weights["entropy"] * lv.grad
    if "diversity" in weights:
        for rows in (weak, strong):
            lv = losses.diversity_loss(probs[None, rows])
            values["diversity"] += lv.value
            grad[rows] += weights["diversity"] * lv.grad[0]
    total = l_c
    for term in losses.TERMS:
        total += weights.get(term, 0.0) * values[term]
    mask_rate = 0.0 if weak is None else \
        float(np.mean(np.max(probs[weak], axis=1) > TAU))
    return (l_c, values["consistency"] + values["entropy"],
            values["diversity"], total, mask_rate), grad


def check_assembled(method, n_labeled, n_unlabeled, rng):
    # zero weights too: a zero-weighted term must leave +0.0, not -0.0
    for lambda_u, lambda_d in [(2.5, 0.75)] * 3 + [(0.0, 0.0)]:
        weights = pipeline.step_weights(pipeline.AdaptConfig(
            method=method, lambda_u=lambda_u, lambda_d=lambda_d))
        views = losses.views_read(weights)
        labels = np.arange(n_labeled) % 4
        logits = step_logits(rng, n_labeled, n_unlabeled, views)
        step = losses.total_loss(logits, labels, weights, TAU)
        scalars, grad = assembled_step(logits, labels, weights,
                                       *view_rows(n_labeled, n_unlabeled,
                                                  views))
        assert (step.l_c, step.l_u, step.l_d, step.total,
                step.mask_rate) == scalars
        assert np.array_equal(step.grad, grad)
        assert np.signbit(step.grad).tolist() == np.signbit(grad).tolist()


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_total_loss_is_the_terms_assembled_bit_for_bit(method):
    check_assembled(method, 4, 6, np.random.default_rng(50))


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_total_loss_reads_a_short_last_step(method):
    # an epoch's last step at the default sizes: 1000 unlabeled rows in
    # batches of 48 leave 40 rows per view after 12 labeled rows
    check_assembled(method, 12, 1000 - 20 * 48, np.random.default_rng(51))


@pytest.mark.parametrize("weights,n_rows", [
    ({"consistency": 1.0}, 4 + 11),  # odd rows under a two-view term
    ({"diversity": 1.0}, 4 + 11),
    ({"consistency": 1.0, "diversity": 1.0}, 4 + 7),
    ({"consistency": 1.0}, 4),  # no unlabeled rows under a term
    ({"entropy": 1.0}, 4),
    ({"diversity": 1.0}, 4),
    ({}, 4 + 6),  # rows left over, but no term reads a view
    ({}, 4 + 1),
    ({"entropy": 1.0}, 3),  # fewer rows than labels
])
def test_total_loss_rejects_rows_that_do_not_split_into_views(weights,
                                                              n_rows):
    logits = np.random.default_rng(52).normal(size=(n_rows, 4))
    with pytest.raises(ValueError, match="do not split"):
        losses.total_loss(logits, np.array([0, 1, 2, 3]), weights, TAU)


def test_total_loss_rejects_an_unknown_term():
    with pytest.raises(ValueError, match="loss terms must come from"):
        losses.total_loss(np.zeros((10, 4)), np.array([0, 1, 2, 3]),
                          {"entropy": 1.0, "nuclear": 1.0}, TAU)


def test_evaluate_confusion_counts_every_row():
    net = network.init_network(network.default_spec(num_classes=4), seed=3)
    xs = np.random.default_rng(53).normal(size=(200, 2)) * 3.0
    ys = np.arange(200) % 3  # class 3 never occurs
    result = pipeline.evaluate(net, xs, ys)
    expected = np.zeros((4, 4), dtype=int)
    for y, p in zip(ys.tolist(), result.predictions.tolist()):
        expected[y, p] += 1
    assert result.confusion.dtype == expected.dtype
    assert np.array_equal(result.confusion, expected)
    assert result.confusion.sum() == 200 and not result.confusion[3].any()
    assert result.per_class_accuracy[3] == 0.0
