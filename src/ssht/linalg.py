"""Dense matrix kernels: SVD, and the nuclear norm with its subgradient.

The nuclear norm ||A||_* (sum of singular values) is the quantity the
diversity objective maximizes over batch prediction matrices (batch x
classes). `nuclear_norm_and_subgradient` returns the norm and a
subgradient of each view's prediction matrix from one decomposition,
for one matrix or for a stack of equal-shape matrices (a step passes
both views at once), with singular values at or below RANK_TOL times
the largest left out of the subgradient.

The decomposition is LAPACK's (numpy.linalg.svd), one batched call
per stack; at these sizes the cost is the Python calls around it, not
the arithmetic. Each matrix is first scaled by a power of two, exactly,
so that LAPACK sees the same input for A and 2^k A.
"""

import math
from typing import NamedTuple, Tuple, Union

import numpy as np

RANK_TOL = 1e-8


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
    if not np.isfinite(s).all():
        raise ValueError("matrix contains non-finite entries")
    return s


def svd(a) -> SvdResult:
    """Thin SVD of one matrix, deterministic for a given input.

    The input is first scaled by a power of two (exact) so its largest
    entry lies in [1, 2), and sigma is scaled back; a matrix whose
    singular values overflow float64 raises NumericalError.
    """
    if np.ndim(a) != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={np.ndim(a)}")
    r = _svds(_as_stack(a))
    return SvdResult(u=r.u[0], sigma=r.sigma[0], v=r.v[0])


def _svds(stack: np.ndarray) -> SvdResult:
    """`svd` of every matrix of a validated (k, rows, cols) stack, as
    stacked fields: u (k, rows, r), sigma (k, r), v (k, cols, r)."""
    scales = np.ldexp(0.5, np.frexp(np.abs(stack).max(axis=(1, 2)))[1])
    u, sigma, vt = np.linalg.svd(stack / scales[:, None, None],
                                 full_matrices=False)
    if not all(math.isfinite(top * scale) for top, scale
               in zip(sigma[:, 0].tolist(), scales.tolist())):
        _, rows, cols = stack.shape
        raise NumericalError(f"singular values of a {rows}x{cols} "
                             f"matrix overflow float64")
    return SvdResult(u=u, sigma=sigma * scales[:, None],
                     v=vt.transpose(0, 2, 1))


def nuclear_norm_and_subgradient(a) -> Tuple[Union[float, np.ndarray],
                                             np.ndarray]:
    """Nuclear norm of `a` and a subgradient U_r V_r^T there, from one SVD.

    `a` is one matrix, or a (k, rows, cols) stack decomposed in one
    LAPACK call; a stack gives k norms and k subgradients, each bit for
    bit what its matrix alone gives. The norm is the sum of all singular
    values. The subgradient keeps singular triples with sigma > RANK_TOL
    * sigma_max (thin truncation, the stable choice at rank-deficient
    points). The zero matrix maps to the zero matrix, which is a valid
    subgradient.
    """
    r = _svds(_as_stack(a))
    norms = r.sigma.sum(axis=1)
    keep = r.sigma > RANK_TOL * r.sigma[:, :1]  # a prefix: sigma is sorted
    subs = (r.u * keep[:, None, :]) @ r.v.transpose(0, 2, 1)
    if np.ndim(a) == 2:
        return float(norms[0]), subs[0]
    return norms, subs
