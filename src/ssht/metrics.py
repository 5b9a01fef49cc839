"""Prediction-diversity measurements on randomly sampled batches.

The diversity ratio of a batch is the number of distinct predicted
classes divided by the number of distinct true classes in that batch.
A collapsed model (everything mapped to the majority class) scores near
1/C on balanced batches; a healthy model scores near 1. The ratio can
exceed 1 when the model predicts more classes than the batch contains.

The sample is metrics' own: BATCHES batches of min(BATCH_SIZE, n) rows
of an n-row split, consecutive slices of random permutations of the
rows, the way data.epoch_batches draws unlabeled training batches. It
takes a few generator calls per measurement, whatever the number of
batches, and costs the same whatever the class count. Its one caller
is adapt, which measures each epoch on the test split; the ablation
grid's diversity column is the last of those measurements.
"""

import numpy as np

# the sample: BATCHES batches of min(BATCH_SIZE, rows) rows
BATCH_SIZE = 48
BATCHES = 50


def _distinct_per_row(values: np.ndarray) -> np.ndarray:
    """Number of distinct entries in each row of a 2-D array."""
    ordered = np.sort(values, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def aggregate_diversity(pred: np.ndarray, ys: np.ndarray,
                        rng: np.random.Generator) -> float:
    """Mean diversity ratio of predicted labels over BATCHES random
    batches of min(BATCH_SIZE, n) rows, where n is the row count.

    Each `rng.permutation(n)` gives `n // size` disjoint batches, its
    consecutive `size`-row slices; the function draws
    `ceil(BATCHES / (n // size))` permutations, one after another, and
    keeps the first BATCHES slices in draw order. Every batch is a
    uniform sample without replacement. The distinct classes of all
    batches are counted at once. Empty labels raise ValueError.
    """
    pred = np.asarray(pred)
    ys = np.asarray(ys)
    if pred.shape != ys.shape or pred.ndim != 1:
        raise ValueError(f"pred and ys must be equal-length label vectors, "
                         f"got {pred.shape} and {ys.shape}")
    n = pred.shape[0]
    if n == 0:
        raise ValueError("pred and ys hold no rows")
    size = min(BATCH_SIZE, n)
    per_perm = n // size
    perms = [rng.permutation(n)[:per_perm * size]
             for _ in range(-(-BATCHES // per_perm))]
    idx = np.concatenate(perms).reshape(-1, size)[:BATCHES]
    ratios = _distinct_per_row(pred[idx]) / _distinct_per_row(ys[idx])
    total = 0.0
    for ratio in ratios.tolist():  # summed in batch order, as one by one
        total += ratio
    return total / BATCHES
