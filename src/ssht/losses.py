"""Training objectives, each returning a value plus its logit gradient.

An adaptation step runs one forward pass over a stacked batch: the
labeled rows first, then the unlabeled views in VIEWS order, the weak
and then the strong view of one unlabeled batch, as many rows each.
TERM_VIEWS says how many of those views each unlabeled term reads, and
views_read which of them a step with given term weights stacks, so the
stacked rows alone give the layout. total_loss takes the step's logits,
and softmax_and_log turns them into probabilities and exact
log-probabilities from one max-shifted exponential, so no log is taken
of a rounded or zero probability and none is clamped. Each objective
takes the rows it reads, and its LossValue carries one gradient at the
logits of those rows, built from the probabilities. total_loss adds
every weighted gradient to its rows of one logit-gradient matrix, so
one network backward pass follows. The diversity term reads the weak
and strong rows as one (2, rows, classes) view, without a copy, and
its gradient goes back to both in one addition.

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
  total            classification + the weighted unlabeled terms
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


def _with_logs(p: np.ndarray, log_p: np.ndarray, name: str
               ) -> Tuple[np.ndarray, np.ndarray]:
    p, log_p = _as_matrix(p, name), np.asarray(log_p, dtype=float)
    if log_p.shape != p.shape:
        raise ValueError(f"{name} has shape {p.shape}, its logs {log_p.shape}")
    return p, log_p


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


def classification_loss(probs_labeled: np.ndarray,
                        log_probs_labeled: np.ndarray,
                        labels: np.ndarray) -> LossValue:
    """Mean cross-entropy against hard labels, gradient (p - onehot)/B."""
    p, log_p = _with_logs(probs_labeled, log_probs_labeled, "probs_labeled")
    y = np.asarray(labels)
    if y.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    b, c = p.shape
    if y.shape != (b,):
        raise ValueError(f"labels must have shape ({b},), got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    rows = np.arange(b)
    value = float(-log_p[rows, y].sum() / b)
    grad = p.copy()
    grad[rows, y] -= 1.0
    grad /= b
    return LossValue(value=value, grad=grad)


def consistency_loss(probs_weak: np.ndarray, probs_strong: np.ndarray,
                     log_probs_strong: np.ndarray, tau: float):
    """Thresholded pseudo-label cross-entropy from weak to strong view.

    Rows whose weak confidence does not exceed tau contribute zero, and
    the mean runs over the full batch. The pseudo-label is a constant:
    the gradient is at the strong view's logits only. Returns
    (LossValue, mask_rate).
    """
    pw = _as_matrix(probs_weak, "probs_weak")
    ps, log_ps = _with_logs(probs_strong, log_probs_strong, "probs_strong")
    if pw.shape != ps.shape:
        raise ValueError(f"shape mismatch: weak {pw.shape}, strong {ps.shape}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    b, c = pw.shape
    rows = np.arange(b)
    pseudo = pw.argmax(axis=1)
    selected = pw[rows, pseudo] > tau  # the row max: argmax's entry
    dropped = ~selected
    terms = -log_ps[rows, pseudo]
    terms[dropped] = 0.0
    grad = ps.copy()
    grad[rows, pseudo] -= 1.0
    grad[dropped] = 0.0
    grad /= b
    return (LossValue(value=float(terms.sum() / b), grad=grad),
            float(selected.sum() / b))


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
    p, log_p = _with_logs(probs, log_probs, "probs")
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


def total_loss(logits: np.ndarray, labels: np.ndarray,
               weights: Dict[str, float], tau: float) -> StepLoss:
    """An adaptation step's objective over its stacked logits.

    softmax_and_log turns the logits into probabilities and their logs
    once. The first len(labels) rows are the labeled rows; the rest
    split into equal blocks, one per view of views_read(weights), in
    that order. Rows that do not split into non-empty blocks, or rows
    left over when no term reads a view, raise ValueError. weights maps
    each term of TERMS the method uses to its weight: total =
    classification + weight * term over the terms weights names, summed
    in TERMS order. The logit gradient starts as a zero matrix of the
    logits' shape, with the classification gradient in the labeled rows;
    each term scales its own gradient by its weight in place and adds it
    to the rows it read, the diversity term to both views' rows in one
    addition.
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
    labeled, weak = slice(0, n_l), slice(n_l, n_l + n)
    strong = slice(n_l + n, None)
    grad = np.zeros(p.shape)
    l_c = classification_loss(p[labeled], log_p[labeled], labels)
    grad[labeled] = l_c.grad
    # numpy scalars, so that np.errstate sees an overflow of the sum
    total = np.float64(l_c.value)
    l_u = l_d = 0.0
    mask_rate = 0.0
    if "consistency" in weights:
        lv, mask_rate = consistency_loss(p[weak], p[strong], log_p[strong],
                                         tau)
        lv.grad *= weights["consistency"]
        grad[strong] += lv.grad
        total += np.float64(weights["consistency"]) * lv.value
        l_u += lv.value
    elif views:
        pw = p[weak]
        mask_rate = float((pw.max(axis=1) > tau).sum() / pw.shape[0])
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
        l_d += lv.value
    return StepLoss(l_c=l_c.value, l_u=l_u, l_d=l_d, total=float(total),
                    mask_rate=mask_rate, grad=grad)
