"""Dense matrix kernels: SVD, and the nuclear norm with its subgradient.

The nuclear norm ||A||_* (sum of singular values) is the quantity the
diversity objective maximizes over batch prediction matrices (batch x
classes). Every kernel here takes a (k, rows, cols) stack of
equal-shape matrices, as a step passes both views at once, and nothing
else: a single matrix is a stack of one. `svd` decomposes a stack;
`nuclear_norm_and_subgradient` builds on it the norm and a subgradient
of each matrix, with singular values at or below RANK_TOL times the
largest left out of the subgradient.

The decomposition is LAPACK's (numpy.linalg.svd), one batched call
per stack, each matrix bit for bit what it gives alone; at these sizes
the cost is the Python calls around it, not the arithmetic.
"""

from typing import NamedTuple, Tuple

import numpy as np

RANK_TOL = 1e-8


class NumericalError(RuntimeError):
    """A computation produced, or would produce, non-finite values."""


class SvdResult(NamedTuple):
    u: np.ndarray      # k x rows x r, orthonormal columns
    sigma: np.ndarray  # k x r non-negative values, non-increasing per row
    v: np.ndarray      # k x cols x r, orthonormal columns


def svd(a) -> SvdResult:
    """Thin SVD of every matrix of a (k, rows, cols) stack, in one LAPACK
    call, deterministic for a given input; r = min(rows, cols).

    A matrix whose singular values overflow float64 raises
    NumericalError. A stack that is not 3-D, has an empty dimension or a
    non-finite entry raises ValueError.
    """
    stack = np.asarray(a, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected a 3-D stack of matrices, "
                         f"got ndim={stack.ndim}")
    if min(stack.shape) < 1:
        raise ValueError(f"stack and matrix dimensions must be positive, "
                         f"got {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix contains non-finite entries")
    u, sigma, vt = np.linalg.svd(stack, full_matrices=False)
    if not np.isfinite(sigma[:, 0]).all():
        _, rows, cols = stack.shape
        raise NumericalError(f"singular values of a {rows}x{cols} "
                             f"matrix overflow float64")
    return SvdResult(u=u, sigma=sigma, v=vt.transpose(0, 2, 1))


def nuclear_norm_and_subgradient(a) -> Tuple[np.ndarray, np.ndarray]:
    """Nuclear norms of a (k, rows, cols) stack and a subgradient U_r V_r^T
    at each matrix, from one `svd` call: k norms and a stack of k
    subgradients.

    The norm is the sum of all singular values. The subgradient keeps
    singular triples with sigma > RANK_TOL * sigma_max (thin truncation,
    the stable choice at rank-deficient points). The zero matrix maps to
    the zero matrix, which is a valid subgradient.
    """
    r = svd(a)
    keep = r.sigma > RANK_TOL * r.sigma[:, :1]  # a prefix: sigma is sorted
    return (r.sigma.sum(axis=1),
            (r.u * keep[:, None, :]) @ r.v.transpose(0, 2, 1))
