"""Dense matrix kernels: SVD, and the nuclear norm with its subgradient.

The nuclear norm ||A||_* (sum of singular values) is the quantity the
diversity objective maximizes over batch prediction matrices, so the
decomposition is implemented here rather than delegated: a one-sided
Jacobi SVD, which is simple and highly accurate for the small, skinny
matrices this package produces (batch x classes, at most
data.MAX_CLASSES = 16 classes).

The decomposition dominates the cost of the diversity objective, which
needs both the norm and its subgradient of each view's prediction
matrix: `nuclear_norm_and_subgradient` returns the pair from one
decomposition, for one matrix or for a stack of equal-shape matrices
(a step passes both views at once), with singular values at or below
RANK_TOL times the largest left out of the subgradient.

At these sizes the cost is Python calls, not arithmetic, so the kernel
works in block steps over the whole stack. A pass forms the Gram
matrix W^T W of every unconverged matrix in one batched product, runs
the cyclic Jacobi rotations on each n x n Gram in Python floats until
it is diagonal, and applies each accumulated rotation to [W | V] in one
more batched product. A matrix whose freshly formed Gram passes every
pair test has converged and is not rotated again, so a stacked call
gives each matrix bit for bit the result of its own call. A 48x4
softmax batch takes two passes: one that rotates, one that confirms.

A rotation of a Gram costs O(n) Python float operations, so block
steps pay on narrow matrices and not on wide ones. Against a kernel
that rotates one column pair per few numpy calls (scripts/bench_bnm.py
against the version before block steps, 2-CPU host, three runs), both
48 x n views of a step took 0.42-0.44 of its time at n = 4, 0.44-0.51
at n = 8, 0.59-0.74 at n = 12 and 0.70-0.78 at n = 16; the two break
even at about n = 22, and a 128x128 `svd` takes 2.3-3.0 s instead of
0.4-0.6 s. The diversity term only decomposes batch x class matrices,
and a task has at most 16 classes (data.MAX_CLASSES), the widest n
measured faster; `svd` itself takes any shape.

JACOBI_MAX_SWEEPS caps the passes over one matrix (NumericalError
beyond it) and the rotation sweeps over one Gram within a pass.
"""

import math
from typing import List, NamedTuple, Tuple, Union

import numpy as np

JACOBI_MAX_SWEEPS = 60
JACOBI_REL_TOL = 1e-12
RANK_TOL = 1e-8
EPS = float(np.finfo(np.float64).eps)


class NumericalError(RuntimeError):
    """An iteration failed to converge or produced non-finite values."""


class SvdResult(NamedTuple):
    u: np.ndarray      # rows x k, orthonormal columns
    sigma: np.ndarray  # k non-negative values, non-increasing
    v: np.ndarray      # cols x k, orthonormal columns


def _as_stack(a) -> np.ndarray:
    """Validate `a`, one matrix or a 3-D stack of equal-shape matrices,
    and return it as a finite (k, rows, cols) float64 stack."""
    s = np.asarray(a, dtype=np.float64)
    if s.ndim == 2:
        s = s[None]
    elif s.ndim != 3:
        raise ValueError(f"expected a 2-D matrix or a 3-D stack of them, "
                         f"got ndim={s.ndim}")
    if min(s.shape) < 1:
        raise ValueError(f"stack and matrix dimensions must be positive, "
                         f"got {np.shape(a)}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix contains non-finite entries")
    return s


def svd(a) -> SvdResult:
    """Thin SVD of one matrix via one-sided Jacobi column orthogonalization.

    Rotates column pairs until every pair satisfies |a_p . a_q| <=
    JACOBI_REL_TOL * ||a_p|| * ||a_q||, then reads singular values off
    the column norms. Raises NumericalError if the sweep cap is
    exceeded. Deterministic for a given input.

    The input is first scaled by a power of two (exact) so its largest
    entry lies in [1, 2): squared norms then neither overflow nor
    reach the subnormal range. A column whose squared norm falls to
    (m * eps * ||A||_F)^2 or below, m the longer side, is numerically
    zero: it takes no further rotations, which would only stall in
    rounding noise, and leaves with singular value 0 and a completed
    basis vector, so the orthonormality contract holds at any rank.
    """
    if np.ndim(a) != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={np.ndim(a)}")
    r = _svds(_as_stack(a))
    return SvdResult(u=r.u[0], sigma=r.sigma[0], v=r.v[0])


def _svds(stack: np.ndarray) -> SvdResult:
    """`svd` of every matrix of a validated (k, rows, cols) stack, as
    stacked fields: u (k, rows, r), sigma (k, r), v (k, cols, r)."""
    k, rows, cols = stack.shape
    transposed = rows < cols
    w0 = stack.transpose(0, 2, 1) if transposed else stack
    m = max(rows, cols)
    scales = np.ldexp(0.5, np.frexp(np.abs(w0).max(axis=(1, 2)))[1])
    block, squares = _jacobi(w0 / scales[:, None, None])

    # largest sigma first; a stable sort keeps ties in column order
    orders = [sorted(range(len(sq)), key=sq.__getitem__, reverse=True)
              for sq in squares]
    sigma = np.sqrt([[sq[j] for j in order]
                     for sq, order in zip(squares, orders)])
    block = block[np.arange(k)[:, None], orders]  # row j: columns j of W, V
    nonzero = sigma > 0.0
    u = np.divide(block[:, :, :m], sigma[:, :, None],
                  out=np.zeros((k, sigma.shape[1], m)),
                  where=nonzero[:, :, None])
    for i, row in enumerate(nonzero.tolist()):
        if not all(row):
            _complete_basis(u[i].T, np.flatnonzero(row).tolist(),
                            np.flatnonzero(~nonzero[i]).tolist())

    if not all(math.isfinite(top * scale) for top, scale
               in zip(sigma[:, 0].tolist(), scales.tolist())):
        raise NumericalError(f"singular values of a {rows}x{cols} "
                             f"matrix overflow float64")
    sigma *= scales[:, None]
    u, v = u.transpose(0, 2, 1), block[:, :, m:].transpose(0, 2, 1)
    if transposed:
        return SvdResult(u=v, sigma=sigma, v=u)
    return SvdResult(u=u, sigma=sigma, v=v)


def _jacobi(w0: np.ndarray) -> Tuple[np.ndarray, List[List[float]]]:
    """Orthogonalize the columns of every matrix of a (k, m, n) stack,
    m >= n, in block steps.

    Returns the block (k, n, m + n), whose row j of matrix i is
    [column j of W_i | column j of V_i] with W_i = A_i V_i, and the
    squared column norms of each W_i from its last Gram, with those at
    or below the zero floor (m * eps * ||A_i||_F)^2 set to 0.
    """
    k, m, n = w0.shape
    block = np.empty((k, n, m + n))
    block[:, :, :m] = w0.transpose(0, 2, 1)
    block[:, :, m:] = np.eye(n)
    # the column pairs in cyclic order, each with the other columns
    pairs = [(p, q, [j for j in range(n) if j != p and j != q])
             for p in range(n - 1) for q in range(p + 1, n)]
    floors: List[float] = []
    squares: List[List[float]] = [[]] * k
    active = list(range(k))
    for _ in range(JACOBI_MAX_SWEEPS):
        w = block[active, :, :m]
        grams = (w @ w.transpose(0, 2, 1)).tolist()
        if not floors:
            floors = [(m * EPS) ** 2 * sum(g[j][j] for j in range(n))
                      for g in grams]
        moved, rotations = [], []
        for i, gram in zip(active, grams):
            r = _diagonalize(gram, floors[i], pairs)
            if r is None:
                squares[i] = [gram[j][j] if gram[j][j] > floors[i] else 0.0
                              for j in range(n)]
            else:
                moved.append(i)
                rotations.append(r)
        if not moved:
            return block, squares
        block[moved] = np.array(rotations) @ block[moved]
        active = moved
    raise NumericalError(
        f"jacobi svd did not converge within {JACOBI_MAX_SWEEPS} sweeps "
        f"for a {m}x{n} matrix")


def _diagonalize(g: List[List[float]], floor: float, pairs):
    """Diagonalize the symmetric Gram matrix `g` (nested lists) in place
    by Jacobi rotations of the column pairs `pairs`, in that order, sweep
    after sweep. Returns their product R as nested lists (rows of W
    rotate as R @ W^T), or None when `g` passes every pair test as given.

    A pair (p, q) is skipped when its product is zero, either squared
    norm is at or below `floor`, or |g_pq| <= JACOBI_REL_TOL *
    sqrt(g_pp * g_qq). The rotation zeroes g_pq.
    """
    n = len(g)
    sqrt = math.sqrt
    r = None
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q, others in pairs:
            gp, gq = g[p], g[q]
            alpha, beta, gamma = gp[p], gq[q], gp[q]
            if gamma == 0.0 or alpha <= floor or beta <= floor:
                continue
            if abs(gamma) <= JACOBI_REL_TOL * sqrt(alpha * beta):
                continue
            tau = (beta - alpha) / (2.0 * gamma)
            if tau >= 0.0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = 1.0 / (tau - sqrt(1.0 + tau * tau))
            c = 1.0 / sqrt(1.0 + t * t)
            s = c * t
            if s == 0.0:  # rotation numerically an identity; avoid stalling
                continue
            rotated = True
            gp[p] = alpha - t * gamma
            gq[q] = beta + t * gamma
            gp[q] = gq[p] = 0.0
            for j in others:
                x, y = gp[j], gq[j]
                gp[j] = g[j][p] = c * x - s * y
                gq[j] = g[j][q] = s * x + c * y
            if r is None:
                r = [[float(i == j) for j in range(n)] for i in range(n)]
            rp, rq = r[p], r[q]
            for j in range(n):
                x, y = rp[j], rq[j]
                rp[j] = c * x - s * y
                rq[j] = s * x + c * y
        if not rotated:
            break
    return r


def _complete_basis(u, filled, empty):
    """Fill zero columns of `u` with unit vectors orthogonal to the rest.

    Needed when the input is rank-deficient: reconstruction does not care
    about these directions but the orthonormality contract does. Picks the
    standard basis vector with the largest residual, projects twice.
    """
    m = u.shape[0]
    for j in empty:
        basis = u[:, filled]
        load = np.sum(basis * basis, axis=1)  # |basis^T e_i|^2 per i
        i = int(np.argmin(load))
        vec = np.zeros(m)
        vec[i] = 1.0
        vec -= basis @ (basis.T @ vec)
        vec /= np.sqrt(vec @ vec)
        vec -= basis @ (basis.T @ vec)
        vec /= np.sqrt(vec @ vec)
        u[:, j] = vec
        filled = filled + [j]


def nuclear_norm_and_subgradient(a) -> Tuple[Union[float, np.ndarray],
                                             np.ndarray]:
    """Nuclear norm of `a` and a subgradient U_r V_r^T there, from one SVD.

    `a` is one matrix, or a (k, rows, cols) stack decomposed in one
    kernel call; a stack gives k norms and k subgradients, each bit for
    bit what its matrix alone gives. The norm is the sum of all singular
    values. The subgradient keeps singular triples with sigma > RANK_TOL
    * sigma_max (thin truncation, the stable choice at rank-deficient
    points). The zero matrix maps to the zero matrix, which is a valid
    subgradient.
    """
    a = np.asarray(a, dtype=np.float64)
    r = _svds(_as_stack(a))
    norms = r.sigma.sum(axis=1)
    keep = r.sigma > RANK_TOL * r.sigma[:, :1]  # a prefix: sigma is sorted
    subs = (r.u * keep[:, None, :]) @ r.v.transpose(0, 2, 1)
    if a.ndim == 2:
        return float(norms[0]), subs[0]
    return norms, subs
