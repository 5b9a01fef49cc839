"""Prediction-diversity measurements on randomly sampled batches.

The diversity ratio of a batch is the number of distinct predicted
classes divided by the number of distinct true classes in that batch.
A collapsed model (everything mapped to the majority class) scores near
1/C on balanced batches; a healthy model scores near 1. The ratio can
exceed 1 when the model predicts more classes than the batch contains.

The batches are consecutive slices of random permutations of the rows,
the way data.epoch_batches draws unlabeled training batches: a few
generator calls per measurement, whatever the number of batches, and a
cost that does not depend on the class count.
"""

import numpy as np


def _distinct_per_row(values: np.ndarray) -> np.ndarray:
    """Number of distinct entries in each row of a 2-D array."""
    ordered = np.sort(values, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def aggregate_diversity(pred: np.ndarray, ys: np.ndarray, batch_size: int,
                        num_batches: int, rng: np.random.Generator) -> float:
    """Mean diversity ratio of predicted labels over random batches.

    Each `rng.permutation(n)` gives `n // batch_size` disjoint batches,
    its consecutive `batch_size`-row slices; the function draws
    `ceil(num_batches / (n // batch_size))` permutations, one after
    another, and keeps the first `num_batches` slices in draw order.
    Every batch is a uniform sample without replacement. The distinct
    classes of all batches are counted at once.
    """
    pred = np.asarray(pred)
    ys = np.asarray(ys)
    if pred.shape != ys.shape or pred.ndim != 1:
        raise ValueError(f"pred and ys must be equal-length label vectors, "
                         f"got {pred.shape} and {ys.shape}")
    n = pred.shape[0]
    if batch_size < 1 or batch_size > n:
        raise ValueError(f"batch_size must lie in [1, {n}]")
    if num_batches < 1:
        raise ValueError(f"num_batches must be positive, got {num_batches}")
    per_perm = n // batch_size
    perms = [rng.permutation(n)[:per_perm * batch_size]
             for _ in range(-(-num_batches // per_perm))]
    idx = np.concatenate(perms).reshape(-1, batch_size)[:num_batches]
    ratios = _distinct_per_row(pred[idx]) / _distinct_per_row(ys[idx])
    total = 0.0
    for ratio in ratios.tolist():  # summed in batch order, as one by one
        total += ratio
    return total / num_batches
