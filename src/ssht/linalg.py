"""Dense matrix kernels: SVD, and the nuclear norm with its subgradient.

The nuclear norm ||A||_* (sum of singular values) is the quantity the
diversity objective maximizes over batch prediction matrices, so the
decomposition is implemented here rather than delegated: a one-sided
Jacobi SVD, which is simple and highly accurate for the small, skinny
matrices this package produces (batch x classes, both <= 128).

The decomposition dominates the cost of the diversity objective, which
needs both the norm and its subgradient of each prediction matrix:
`nuclear_norm_and_subgradient` returns the pair from a single `svd`,
with singular values at or below RANK_TOL times the largest left out
of the subgradient.
At these sizes a Jacobi sweep costs Python calls per column pair, not
arithmetic, so `svd` keeps the working columns and the accumulated
rotation side by side as rows of one array: each pair visit is one 2x2
Gram product and one 2x2 rotation of two rows.
"""

import math
from typing import NamedTuple, Tuple

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


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def svd(a) -> SvdResult:
    """Thin SVD via one-sided Jacobi column orthogonalization.

    Sweeps Jacobi rotations over column pairs until every pair satisfies
    |a_p . a_q| <= JACOBI_REL_TOL * ||a_p|| * ||a_q||, then reads singular
    values off the column norms. Raises NumericalError if the sweep cap is
    exceeded. Deterministic for a given input.

    The input is first scaled by a power of two (exact) so its largest
    entry lies in [1, 2): squared norms then neither overflow nor
    reach the subnormal range. A column whose squared norm falls to
    (m * eps * ||A||_F)^2 or below, m the longer side, is numerically
    zero: it takes no further rotations, which would only stall in
    rounding noise, and leaves with singular value 0 and a completed
    basis vector, so the orthonormality contract holds at any rank.

    Column j of the working matrix W and column j of the accumulated
    rotation V are held together as row j of one array, so a single 2x2
    rotation of two rows updates both; the three dot products a visit
    needs come from one 2x2 Gram product of the two W rows.
    """
    m0 = as_matrix(a)
    transposed = m0.shape[0] < m0.shape[1]
    w0 = m0.T if transposed else m0
    m, n = w0.shape  # m >= n

    scale = math.ldexp(0.5, math.frexp(float(np.max(np.abs(w0))))[1])
    rows = np.empty((n, m + n))  # row j: [column j of W | column j of V]
    rows[:, :m] = w0.T / scale
    rows[:, m:] = np.eye(n)
    floor = (m * EPS) ** 2 * float(np.sum(rows[:, :m] ** 2))
    # views of rows p and q, whole and restricted to W, in cyclic order
    pairs = [(rows[p:q + 1:q - p], rows[p:q + 1:q - p, :m])
             for p in range(n - 1) for q in range(p + 1, n)]
    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for pair, cols in pairs:
            (alpha, gamma), (_, beta) = (cols @ cols.T).tolist()
            if gamma == 0.0 or alpha <= floor or beta <= floor:
                continue
            if abs(gamma) <= JACOBI_REL_TOL * math.sqrt(alpha * beta):
                continue
            tau = (beta - alpha) / (2.0 * gamma)
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = c * t
            if s == 0.0:  # rotation numerically an identity; avoid stalling
                continue
            rotated = True
            pair[...] = [[c, -s], [s, c]] @ pair
        if not rotated:
            converged = True
            break
    if not converged:
        raise NumericalError(
            f"jacobi svd did not converge within {JACOBI_MAX_SWEEPS} sweeps "
            f"for a {m0.shape[0]}x{m0.shape[1]} matrix"
        )

    w = rows[:, :m].T
    v = rows[:, m:].T
    squares = np.sum(w * w, axis=0)
    squares[squares <= floor] = 0.0
    sigma = np.sqrt(squares)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    w = w[:, order]
    v = v[:, order]

    u = np.zeros_like(w)
    nonzero = sigma > 0.0
    u[:, nonzero] = w[:, nonzero] / sigma[nonzero]
    if not np.all(nonzero):
        _complete_basis(u, np.flatnonzero(nonzero).tolist(),
                        np.flatnonzero(~nonzero).tolist())

    if not math.isfinite(float(sigma[0]) * scale):
        raise NumericalError(f"singular values of a {m0.shape[0]}x"
                             f"{m0.shape[1]} matrix overflow float64")
    sigma *= scale
    if transposed:
        return SvdResult(u=v, sigma=sigma, v=u)
    return SvdResult(u=u, sigma=sigma, v=v)


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


def nuclear_norm(a) -> float:
    """Sum of singular values of `a`."""
    return float(np.sum(svd(a).sigma))


def nuclear_norm_and_subgradient(a) -> Tuple[float, np.ndarray]:
    """Nuclear norm of `a` and a subgradient U_r V_r^T there, from one SVD.

    The norm is the sum of all singular values, as in `nuclear_norm`.
    The subgradient keeps singular triples with sigma > RANK_TOL *
    sigma_max (thin truncation, the stable choice at rank-deficient
    points). The zero matrix maps to the zero matrix, which is a valid
    subgradient.
    """
    r = svd(a)
    norm = float(np.sum(r.sigma))
    keep = r.sigma > RANK_TOL * r.sigma[0]
    if not np.any(keep):
        return norm, np.zeros((r.u.shape[0], r.v.shape[0]))
    return norm, r.u[:, keep] @ r.v[:, keep].T
