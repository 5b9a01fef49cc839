"""Training objectives, each giving a value plus its logit gradient.

A training step runs one forward pass over a stacked batch: the
labeled rows first, then the unlabeled views in VIEWS order, the weak
and then the strong view of one unlabeled batch, as many rows each.
TERM_VIEWS says how many of those views each unlabeled term reads, and
views_read which of them a step with given term weights stacks, so the
stacked rows alone give the layout. total_loss takes the step's logits,
and softmax_and_log turns them into probabilities and exact
log-probabilities from one max-shifted exponential, so no log is taken
of a rounded or zero probability and none is clamped. The two
hard-target cross-entropies, classification and consistency, are one
formula on different rows, (p - onehot(target)) / rows, and total_loss
builds both in one pass over the stacked matrix. entropy_loss and
diversity_loss take the rows they read, and their LossValue carries
one gradient at the logits of those rows. total_loss adds every
weighted gradient to its rows of one logit-gradient matrix, so one
network backward pass follows. The diversity term reads the weak and
strong rows as one (2, rows, classes) view, without a copy, and its
gradient goes back to both in one addition.

A step's arrays are small (108 x 4 by default), so what a term costs is
the number of numpy calls it makes, not their arithmetic: each term
computes an intermediate once, reduces with array methods, and works
in place on the arrays it allocated itself. None writes to its inputs.
Every value and gradient is the same, bit for bit, as the plain
formula's: a mean is the float64 sum over the count, as numpy.mean
computes it, and an in-place operation rounds as its copying form.

Objectives:
  classification   mean cross-entropy on the labeled rows
  consistency      confidence-thresholded cross-entropy from the weak
                   view's hard pseudo-label to the strong view, mean
                   over the full batch, no gradient into the weak rows
  diversity        negated nuclear norm of each view's prediction
                   matrix over its row count (maximizing it spreads
                   batch predictions over more classes), on a
                   (views, rows, classes) stack only: a step passes
                   the weak and the strong view, and one kernel call
                   gives every norm and subgradient
  entropy          mean prediction entropy of the weak view
  total            classification + the weighted unlabeled terms; with
                   none, the s_plus_t objective that source training
                   runs on source rows
"""

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .linalg import nuclear_norm_and_subgradient

# the unlabeled views a step stacks after its labeled rows, in row order
VIEWS = ("weak", "strong")
# the unlabeled terms total_loss can add, in summation order, and how
# many of VIEWS, from the first, each reads
TERM_VIEWS = {"consistency": 2, "entropy": 1, "diversity": 2}
TERMS = tuple(TERM_VIEWS)


@dataclass
class LossValue:
    value: float
    grad: np.ndarray  # at the logits of the rows the loss was given


def _as_matrix(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {p.shape}")
    return p


def softmax_and_log(logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax probabilities and their exact logs.

    Both come from one exponential of the logits shifted by their row
    max: p = exp(s) / sum exp(s) and log p = s - log sum exp(s). Only a
    row whose logit spread overflows float64 gets a log of -inf.
    """
    z = _as_matrix(logits, "logits")
    shifted = z - z.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    norm = p.sum(axis=1, keepdims=True)
    p /= norm
    shifted -= np.log(norm)
    return p, shifted


def softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Chain a gradient at softmax outputs (rows along the last axis)
    back to the logits."""
    out = grad_probs * probs
    inner = out.sum(axis=-1, keepdims=True)
    np.subtract(grad_probs, inner, out=out)
    out *= probs
    return out


def diversity_loss(probs: np.ndarray) -> LossValue:
    """Negated nuclear norm of each view's prediction matrix over its row
    count, summed over the views of a (views, rows, classes) stack.

    Minimizing this pushes each batch prediction matrix toward higher
    rank, i.e. toward covering more classes; a collapsed batch scores
    worst. The stack is decomposed in one kernel call, and the gradient
    is a stack of each view's.
    """
    p = np.asarray(probs, dtype=float)
    norms, sub = nuclear_norm_and_subgradient(p)
    b = p.shape[1]
    sub /= -b  # -sub / b, bit for bit
    return LossValue(value=float((norms / -b).sum()),
                     grad=softmax_backward(p, sub))


def entropy_loss(probs: np.ndarray, log_probs: np.ndarray) -> LossValue:
    """Mean prediction entropy; a probability that underflowed to 0
    has a finite log, so it adds 0 to the value and the gradient."""
    p, log_p = _as_matrix(probs, "probs"), np.asarray(log_probs, dtype=float)
    if log_p.shape != p.shape:
        raise ValueError(f"probs has shape {p.shape}, its logs {log_p.shape}")
    b = p.shape[0]
    h_rows = -(p * log_p).sum(axis=1)
    grad = p * (-log_p - h_rows[:, None])
    grad /= b
    return LossValue(value=float(h_rows.sum() / b), grad=grad)


@dataclass
class StepLoss:
    l_c: float        # classification
    l_u: float        # consistency or entropy, unweighted; 0 without either
    l_d: float        # diversity of both views, unweighted; 0 without it
    total: float
    mask_rate: float  # share of weak rows above tau; 0 without a weak view
    grad: np.ndarray  # at the logits of every stacked row


def views_read(weights: Dict[str, float]) -> Tuple[str, ...]:
    """The unlabeled views a step with these term weights stacks after
    its labeled rows, in row order; a ValueError names a term outside
    TERMS."""
    if weights.keys() - TERMS:
        raise ValueError(f"loss terms must come from {TERMS}, "
                         f"got {sorted(weights)}")
    return VIEWS[:max([TERM_VIEWS[term] for term in weights], default=0)]


def _hard_targets(p: np.ndarray, log_p: np.ndarray, labels: np.ndarray,
                  n: int, weights: Dict[str, float], tau: float
                  ) -> Tuple[np.ndarray, float, float, float]:
    """Classification on the labeled rows (the first len(labels)) and,
    when weights has consistency, consistency on the strong rows (the
    last n; n rows per view, 0 without a weak view), in one pass: one
    copy of p takes -1.0 at every (row, target), each block is divided
    by its own row count, and the strong block is zeroed where the weak
    confidence does not exceed tau, then weighted. Rows no hard-target
    term reads hold +0.0. Returns that logit gradient, the unweighted
    classification and consistency values (0 without the term) and the
    mask rate (0 without a weak view).
    """
    y = np.asarray(labels)
    n_l, c = len(y), p.shape[1]
    if y.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    if y.shape != (n_l,):
        raise ValueError(f"labels must have shape ({n_l},), got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    rows, targets = np.arange(n_l), y
    mask_rate = 0.0
    if n:
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        pw = p[n_l:n_l + n]
        pseudo = pw.argmax(axis=1)
        selected = pw[np.arange(n), pseudo] > tau  # the row max
        mask_rate = float(selected.sum() / n)
    consistency = "consistency" in weights
    if consistency:
        rows = np.concatenate((rows, np.arange(n_l + n, n_l + 2 * n)))
        targets = np.concatenate((y, pseudo))
    grad = p.copy()
    grad[rows, targets] -= 1.0
    picked = log_p[rows, targets]
    grad[:n_l] /= n_l
    l_c, l_u = float(-picked[:n_l].sum() / n_l), 0.0
    if consistency:
        dropped = ~selected
        strong = grad[n_l + n:]
        strong /= n
        strong[dropped] = 0.0
        strong *= weights["consistency"]
        strong += 0.0  # -0.0 from a zero weight becomes +0.0
        terms = -picked[n_l:]
        terms[dropped] = 0.0
        l_u = float(terms.sum() / n)
    grad[n_l:n_l + n if consistency else None] = 0.0
    return grad, l_c, l_u, mask_rate


def total_loss(logits: np.ndarray, labels: np.ndarray,
               weights: Dict[str, float], tau: float) -> StepLoss:
    """A training step's objective over its stacked logits.

    softmax_and_log turns the logits into probabilities and their logs
    once. The first len(labels) rows are the labeled rows; the rest
    split into equal blocks, one per view of views_read(weights), in
    that order. Rows that do not split into non-empty blocks, or rows
    left over when no term reads a view, raise ValueError. weights maps
    each term of TERMS the objective uses to its weight: total =
    classification + weight * term over the terms weights names, summed
    in TERMS order; with no term, the s_plus_t objective, which source
    training runs too. _hard_targets builds the classification and
    consistency gradient of every row in one pass; entropy and diversity
    scale their own gradient by their weight in place and add it to
    their rows, diversity to both views' rows in one addition. tau is
    checked and read only when a weak view is stacked.
    """
    views = views_read(weights)
    p, log_p = softmax_and_log(logits)
    n_l = len(labels)
    n_u = p.shape[0] - n_l
    n = n_u // len(views) if views else 0
    if n * len(views) != n_u or (views and n < 1):
        raise ValueError(f"{n_u} rows after the {n_l} labeled rows do not "
                         f"split into one non-empty block per view of "
                         f"{views}")
    grad, l_c, l_u, mask_rate = _hard_targets(p, log_p, labels, n, weights,
                                              tau)
    # numpy scalars, so that np.errstate sees an overflow of the sum
    total = np.float64(l_c)
    if "consistency" in weights:
        total += np.float64(weights["consistency"]) * l_u
    weak = slice(n_l, n_l + n)
    l_d = 0.0
    if "entropy" in weights:
        lv = entropy_loss(p[weak], log_p[weak])
        lv.grad *= weights["entropy"]
        grad[weak] += lv.grad
        total += np.float64(weights["entropy"]) * lv.value
        l_u += lv.value
    if "diversity" in weights:
        c = p.shape[1]
        lv = diversity_loss(p[n_l:].reshape(2, n, c))
        lv.grad *= weights["diversity"]
        grad[n_l:] += lv.grad.reshape(2 * n, c)
        total += np.float64(weights["diversity"]) * lv.value
        l_d = lv.value
    return StepLoss(l_c=l_c, l_u=l_u, l_d=l_d, total=float(total),
                    mask_rate=mask_rate, grad=grad)
