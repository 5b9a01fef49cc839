import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ssht import linalg


def nuclear_norm(a):
    return linalg.nuclear_norm_and_subgradient(np.asarray(a)[None])[0][0]


def check_svd_contract(stack):
    """Check the decomposition of a (k, rows, cols) stack, matrix by matrix."""
    stack = np.asarray(stack, dtype=float)
    r = linalg.svd(stack)
    n, rows, cols = stack.shape
    k = min(rows, cols)
    assert r.u.shape == (n, rows, k)
    assert r.v.shape == (n, cols, k)
    assert r.sigma.shape == (n, k)
    assert np.all(r.sigma >= 0.0)
    assert np.all(np.diff(r.sigma, axis=1) <= 0.0)
    eye = np.eye(k)
    for a, u, sigma, v in zip(stack, *r):
        assert np.max(np.abs(u.T @ u - eye)) <= 1e-10
        assert np.max(np.abs(v.T @ v - eye)) <= 1e-10
        recon = u @ np.diag(sigma) @ v.T
        assert np.max(np.abs(recon - a)) <= 1e-8 * (1.0 + np.max(np.abs(a)))
    return r


def test_svd_identity():
    r = linalg.svd(np.eye(2)[None])
    np.testing.assert_allclose(r.sigma[0], [1.0, 1.0])


def test_svd_negative_diagonal():
    r = linalg.svd(np.diag([3.0, -4.0])[None])
    np.testing.assert_allclose(r.sigma[0], [4.0, 3.0])


def test_svd_reconstruction_rectangular():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(96, 126))
    check_svd_contract(a[None])


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (5, 9), (9, 5), (48, 4)])
def test_svd_contract_random_shapes(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    check_svd_contract(rng.normal(size=shape)[None])


def test_svd_rank_deficient():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(10, 3)) @ rng.normal(size=(3, 8))  # rank <= 3
    sigma = check_svd_contract(a[None]).sigma[0]
    assert np.sum(sigma > 1e-10 * sigma[0]) == 3


def test_svd_duplicated_columns():
    rng = np.random.default_rng(13)
    col = rng.normal(size=(6, 1))
    a = np.hstack([col, col, col])
    check_svd_contract(a[None])


def test_svd_zero_matrix():
    r = check_svd_contract(np.zeros((1, 4, 3)))
    assert np.all(r.sigma[0] == 0.0)


def test_svd_matches_reference_singular_values():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m, n = rng.integers(1, 30, size=2)
        a = rng.normal(size=(m, n))
        mine = linalg.svd(a[None]).sigma[0]
        ref = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(mine, ref, rtol=1e-10, atol=1e-10 * ref[0])


def check_sigma_matches_lapack(a, sigma):
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(sigma, ref, rtol=1e-10,
                               atol=1e-10 * (1.0 + ref[0]))


SIDES = st.integers(1, 12)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def dense_matrices(draw):
    m, n = draw(SIDES), draw(SIDES)
    return draw(hnp.arrays(np.float64, (m, n), elements=st.floats(
        -1e3, 1e3, allow_nan=False, allow_subnormal=False)))


@st.composite
def rank_deficient_products(draw):
    m, n = draw(SIDES), draw(SIDES)
    r = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(SEEDS))
    return rng.normal(size=(m, r)) @ rng.normal(size=(r, n))


@st.composite
def duplicated_columns(draw):
    m, k = draw(SIDES), draw(SIDES)
    base = np.random.default_rng(draw(SEEDS)).normal(size=(m, k))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12))
    return base[:, picks]


@st.composite
def zero_columns(draw):
    m, n = draw(SIDES), draw(SIDES)
    a = np.random.default_rng(draw(SEEDS)).normal(size=(m, n))
    zeroed = draw(st.lists(st.integers(0, n - 1), max_size=n))
    a[:, zeroed] = 0.0
    return a


MATRICES = st.one_of(dense_matrices(), rank_deficient_products(),
                     duplicated_columns(), zero_columns())


@settings(max_examples=150, deadline=None)
@given(MATRICES)
def test_svd_contract_property(a):
    r = check_svd_contract(a[None])
    check_sigma_matches_lapack(a, r.sigma[0])


def test_svd_near_rank_deficient_small_integers():
    # rank 2 with two equal columns: the null direction sits deep in
    # rounding noise, which must not leave a noise vector in U
    for a in (np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
              np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0],
                        [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])):
        for b in (a, a.T):
            r = check_svd_contract(b[None])
            check_sigma_matches_lapack(b, r.sigma[0])


def test_svd_rejects_overflowing_singular_values():
    with pytest.raises(linalg.NumericalError, match="overflow"):
        linalg.svd(np.full((1, 3, 3), 1e308))


def softmax_batches(rng):
    """48x4 prediction matrices as a cdl step sees them."""
    for temperature in (0.3, 1.0, 3.0, 10.0):
        z = rng.normal(size=(48, 4)) * temperature
        p = np.exp(z - z.max(axis=1, keepdims=True))
        yield p / p.sum(axis=1, keepdims=True)
    collapsed = np.full((48, 4), 1e-6)
    collapsed[:, 0] = 1.0 - 3e-6
    yield collapsed
    yield np.eye(4)[rng.integers(0, 3, size=48)]  # one class never predicted
    yield np.eye(4)[np.arange(48) % 4]            # equal counts, repeated sigma


def test_softmax_batches_match_lapack():
    rng = np.random.default_rng(53)
    for _ in range(5):
        stack = np.array(list(softmax_batches(rng)))
        r = check_svd_contract(stack)
        norms, subs = linalg.nuclear_norm_and_subgradient(stack)
        for p, sigma, norm, sub in zip(stack, r.sigma, norms, subs):
            check_sigma_matches_lapack(p, sigma)
            u, sig, vt = np.linalg.svd(p, full_matrices=False)
            keep = sig > 1e-8 * sig[0]
            assert norm == pytest.approx(np.sum(sig), rel=1e-12)
            np.testing.assert_allclose(sub, u[:, keep] @ vt[keep], atol=1e-9)


def test_svd_deterministic():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(1, 12, 7))
    r1 = linalg.svd(a)
    r2 = linalg.svd(a)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.sigma, r2.sigma)
    assert np.array_equal(r1.v, r2.v)


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.svd(np.array([[[1.0, np.nan], [0.0, 1.0]]]))
    with pytest.raises(ValueError):
        linalg.svd(np.array([[[np.inf, 0.0]]]))


def test_svd_rejects_bad_shape():
    with pytest.raises(ValueError):
        linalg.svd(np.zeros(3))
    with pytest.raises(ValueError):
        linalg.svd(np.zeros((1, 0, 3)))


def test_nuclear_norm_identity():
    assert nuclear_norm(np.eye(5)) == pytest.approx(5.0)


def test_nuclear_norm_diag():
    assert nuclear_norm([[3.0, 0.0], [0.0, -4.0]]) == pytest.approx(7.0)


def one_hot_matrix(counts, num_classes):
    rows = []
    for c, n_c in enumerate(counts):
        for _ in range(n_c):
            row = np.zeros(num_classes)
            row[c] = 1.0
            rows.append(row)
    return np.array(rows)


def test_nuclear_norm_one_hot_example():
    a = one_hot_matrix([2, 1, 1], 3)
    assert a.shape == (4, 3)
    expected = np.sqrt(2.0) + 1.0 + 1.0
    assert nuclear_norm(a) == pytest.approx(expected, abs=1e-8)


def test_nuclear_norm_one_hot_all_compositions():
    # every way to distribute 4 one-hot rows over 4 classes
    comps = [c for c in itertools.product(range(5), repeat=4) if sum(c) == 4]
    assert len(comps) == 35
    norms, _ = linalg.nuclear_norm_and_subgradient(
        np.array([one_hot_matrix(counts, 4) for counts in comps]))
    for counts, norm in zip(comps, norms):
        expected = sum(np.sqrt(n_c) for n_c in counts if n_c > 0)
        assert norm == pytest.approx(expected, abs=1e-8)


def test_nuclear_norm_scale_homogeneity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.normal(size=(6, 9))
        base = nuclear_norm(a)
        for c in (-2.0, 0.5, 10.0):
            assert nuclear_norm(c * a) == pytest.approx(abs(c) * base, rel=1e-10)


def test_nuclear_norm_unitary_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = rng.normal(size=(8, 5))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        assert nuclear_norm(q @ a) == pytest.approx(
            nuclear_norm(a), rel=1e-8)


def test_norm_bound_chain():
    # ||A||_F <= ||A||_* <= sqrt(min(m,n)) * ||A||_F
    rng = np.random.default_rng(31)
    for _ in range(1000):
        m, n = rng.integers(1, 9, size=2)
        a = rng.normal(size=(m, n))
        fro = np.linalg.norm(a)
        nuc = nuclear_norm(a)
        slack = 1e-10 * (1.0 + fro)
        assert fro <= nuc + slack
        assert nuc <= np.sqrt(min(m, n)) * fro + slack


def test_subgradient_identity():
    np.testing.assert_allclose(
        linalg.nuclear_norm_and_subgradient(np.eye(2)[None])[1][0], np.eye(2),
        atol=1e-12)


def test_subgradient_diag_sign():
    g = linalg.nuclear_norm_and_subgradient(np.diag([3.0, -4.0])[None])[1][0]
    np.testing.assert_allclose(g, np.diag([1.0, -1.0]), atol=1e-12)


def test_subgradient_zero_matrix():
    g = linalg.nuclear_norm_and_subgradient(np.zeros((1, 3, 5)))[1][0]
    assert g.shape == (3, 5)
    assert np.all(g == 0.0)


def test_subgradient_shape():
    rng = np.random.default_rng(37)
    a = rng.normal(size=(1, 7, 4))
    assert linalg.nuclear_norm_and_subgradient(a)[1][0].shape == (7, 4)


def test_norm_and_subgradient_match_the_separate_kernels():
    rng = np.random.default_rng(38)
    for a in (rng.normal(size=(7, 4)), rng.normal(size=(3, 6)),
              np.zeros((4, 2)), np.outer([1.0, 2.0, 3.0], [1.0, -1.0])):
        norms, subs = linalg.nuclear_norm_and_subgradient(a[None])
        u, sigma, v = (field[0] for field in linalg.svd(a[None]))
        assert norms[0] == float(np.sum(sigma))
        keep = sigma > linalg.RANK_TOL * sigma[0]
        assert np.array_equal(subs[0], u[:, keep] @ v[:, keep].T)


def well_conditioned(rng, m, n, values):
    q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    k = min(m, n)
    s = np.zeros((m, n))
    s[:k, :k] = np.diag(values[:k])
    return q1 @ s @ q2.T


def fd_nuclear_gradient(a, h=1e-5):
    g = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            ap = a.copy()
            am = a.copy()
            ap[i, j] += h
            am[i, j] -= h
            g[i, j] = (nuclear_norm(ap) - nuclear_norm(am)) / (2 * h)
    return g


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    a = well_conditioned(rng, 8, 5, [5.0, 4.0, 3.0, 2.0, 1.0])
    g = linalg.nuclear_norm_and_subgradient(a[None])[1][0]
    fd = fd_nuclear_gradient(a)
    rel = np.abs(g - fd) / np.maximum.reduce([np.abs(g), np.abs(fd), np.full_like(g, 1e-6)])
    assert np.max(rel) <= 1e-4


def test_subgradient_fd_random_when_spectrum_separated():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 5:
        a = rng.normal(size=(6, 4))
        sig = linalg.svd(a[None]).sigma[0]
        gaps = -np.diff(sig)
        if np.min(gaps) <= 1e-3 * sig[0] or sig[-1] <= 1e-3 * sig[0]:
            continue
        g = linalg.nuclear_norm_and_subgradient(a[None])[1][0]
        fd = fd_nuclear_gradient(a)
        rel = np.abs(g - fd) / np.maximum.reduce(
            [np.abs(g), np.abs(fd), np.full_like(g, 1e-6)])
        assert np.max(rel) <= 1e-4
        checked += 1


def test_frobenius_equals_root_sum_sigma_squared():
    rng = np.random.default_rng(47)
    a = rng.normal(size=(9, 6))
    sig = linalg.svd(a[None]).sigma[0]
    assert np.linalg.norm(a) == pytest.approx(np.sqrt(np.sum(sig**2)), rel=1e-10)


def softmax_stack(rng, k, m, n, temperature=1.0):
    z = rng.normal(size=(k, m, n)) * temperature
    p = np.exp(z - z.max(axis=2, keepdims=True))
    return p / p.sum(axis=2, keepdims=True)


def assert_stacked_equals_single(stack):
    """k matrices in one stack give, bit for bit, what k one-matrix stacks
    give."""
    norms, subs = linalg.nuclear_norm_and_subgradient(stack)
    assert norms.shape == (len(stack),) and subs.shape == stack.shape
    for a, norm, sub in zip(stack, norms, subs):
        one_norm, one_sub = linalg.nuclear_norm_and_subgradient(a[None])
        assert norm == one_norm[0]
        assert np.array_equal(sub, one_sub[0])


def test_stacked_call_equals_single_calls_bit_for_bit():
    rng = np.random.default_rng(59)
    orthogonal = np.eye(4)[np.arange(48) % 4]  # converges on the first Gram
    collapsed = np.zeros((48, 4))
    collapsed[:, 1] = 1.0
    near_collapsed = np.full((48, 4), 1e-6)
    near_collapsed[:, 0] = 1.0 - 3e-6
    soft = softmax_stack(rng, 3, 48, 4)
    for stack in ([orthogonal, soft[0]], [soft[1], orthogonal],
                  [collapsed, soft[2]], [near_collapsed, orthogonal, soft[0]],
                  [orthogonal, collapsed], softmax_stack(rng, 2, 6, 9, 3.0)):
        assert_stacked_equals_single(np.array(stack))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12), SEEDS,
       st.sampled_from([0.3, 1.0, 3.0, 10.0]))
def test_stacked_softmax_batches_equal_single_calls(k, m, n, seed, temp):
    assert_stacked_equals_single(
        softmax_stack(np.random.default_rng(seed), k, m, n, temp))


def test_one_stacked_call_reproduces_the_one_hot_oracle_for_each_view():
    # rows per class; 16 = data.MAX_CLASSES, the widest task
    for views in (((5, 1, 2, 0), (0, 3, 1, 4), (8, 0, 0, 0)),
                  ((3,) * 16, (48,) + (0,) * 15,
                   (10, 8, 6, 5, 4, 3, 3, 2, 2, 1, 1, 1, 1, 1, 0, 0))):
        n = len(views[0])
        stack = np.array([one_hot_matrix(counts, n) for counts in views])
        norms, _ = linalg.nuclear_norm_and_subgradient(stack)
        for counts, norm in zip(views, norms):
            assert norm == pytest.approx(sum(np.sqrt(n_c) for n_c in counts),
                                         abs=1e-8)


def test_stacks_are_validated():
    with pytest.raises(ValueError, match="ndim=4"):
        linalg.nuclear_norm_and_subgradient(np.zeros((1, 2, 3, 4)))
    with pytest.raises(ValueError, match="positive"):
        linalg.nuclear_norm_and_subgradient(np.zeros((0, 3, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        linalg.nuclear_norm_and_subgradient(
            np.array([np.eye(2), [[1.0, np.nan], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="ndim=2"):
        linalg.svd(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="ndim=2"):
        linalg.nuclear_norm_and_subgradient(np.eye(3))
