"""Training objectives, each returning a value plus its logit gradient.

An adaptation step runs one forward pass over a stacked batch: the
labeled rows first, then the weak view and the strong view of one
unlabeled batch. Each objective takes the prediction matrix of the rows
it reads, and its LossValue carries one gradient at the logits of that
matrix. total_loss applies the step's terms to their row slices of the
stacked predictions and writes every weighted gradient into those rows
of one logit-gradient matrix, so one network backward pass follows.

Objectives:
  classification   mean cross-entropy on the labeled rows
  consistency      confidence-thresholded cross-entropy from the weak
                   view's hard pseudo-label to the strong view, mean
                   over the full batch, no gradient into the weak rows
  diversity        negated nuclear norm of a prediction matrix over
                   its row count (maximizing it spreads batch
                   predictions over more classes); one SVD gives both
                   the norm and its subgradient. A step adds it for the
                   weak and for the strong view, both in one kernel call
  entropy          mean prediction entropy of the weak view
  total            classification + the weighted unlabeled terms
"""

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .linalg import nuclear_norm_and_subgradient

# the unlabeled terms total_loss can add, in summation order
TERMS = ("consistency", "entropy", "diversity")

LOG_CLAMP = 1e-12

# how many times a log saw a clamped (effectively zero) probability
_clamp_events = 0


def clamp_count() -> int:
    return _clamp_events


def reset_clamp_count() -> None:
    global _clamp_events
    _clamp_events = 0


def _count_clamps(p: np.ndarray) -> None:
    global _clamp_events
    _clamp_events += int(np.sum(p < LOG_CLAMP))


@dataclass
class LossValue:
    value: float
    grad: np.ndarray  # at the logits of the rows the loss was given


def _check_probs(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {p.shape}")
    return p


def classification_loss(probs_labeled: np.ndarray,
                        labels: np.ndarray) -> LossValue:
    """Mean cross-entropy against hard labels, gradient (p - onehot)/B."""
    p = _check_probs(probs_labeled, "probs_labeled")
    y = np.asarray(labels)
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    b, c = p.shape
    if y.shape != (b,):
        raise ValueError(f"labels must have shape ({b},), got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    picked = p[np.arange(b), y]
    _count_clamps(picked)
    value = float(np.mean(-np.log(np.maximum(picked, LOG_CLAMP))))
    grad = p.copy()
    grad[np.arange(b), y] -= 1.0
    grad /= b
    return LossValue(value=value, grad=grad)


def consistency_loss(probs_weak: np.ndarray, probs_strong: np.ndarray,
                     tau: float):
    """Thresholded pseudo-label cross-entropy from weak to strong view.

    Rows whose weak confidence does not exceed tau contribute zero, and
    the mean runs over the full batch. The pseudo-label is a constant:
    the gradient is at the strong view's logits only. Returns
    (LossValue, mask_rate).
    """
    pw = _check_probs(probs_weak, "probs_weak")
    ps = _check_probs(probs_strong, "probs_strong")
    if pw.shape != ps.shape:
        raise ValueError(f"shape mismatch: weak {pw.shape}, strong {ps.shape}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    b, c = pw.shape
    pseudo = np.argmax(pw, axis=1)
    selected = np.max(pw, axis=1) > tau
    picked = ps[np.arange(b), pseudo]
    _count_clamps(picked[selected])
    terms = np.where(selected, -np.log(np.maximum(picked, LOG_CLAMP)), 0.0)
    value = float(np.mean(terms))
    grad = ps.copy()
    grad[np.arange(b), pseudo] -= 1.0
    grad[~selected] = 0.0
    grad /= b
    return LossValue(value=value, grad=grad), float(np.mean(selected))


def softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Chain a gradient at softmax outputs (rows along the last axis)
    back to the logits."""
    inner = np.sum(grad_probs * probs, axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


def diversity_loss(probs: np.ndarray) -> LossValue:
    """Negated nuclear norm of a prediction matrix over its row count.

    Minimizing this pushes the batch prediction matrix toward higher
    rank, i.e. toward covering more classes; a collapsed batch scores
    worst. probs may also be a (views, rows, classes) stack, decomposed
    in one kernel call: the value is then the sum over the views, and
    the gradient a stack of each view's.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (2, 3):
        raise ValueError(f"probs must be 2-D or a 3-D stack, got shape "
                         f"{p.shape}")
    b = p.shape[-2]
    norms, sub = nuclear_norm_and_subgradient(p)
    return LossValue(value=float(np.sum(-norms / b)),
                     grad=softmax_backward(p, -sub / b))


def entropy_loss(probs: np.ndarray) -> LossValue:
    """Mean prediction entropy; 0 log 0 counts as 0."""
    p = _check_probs(probs, "probs")
    b = p.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0.0, np.log(p), 0.0)
    h_rows = -np.sum(p * logp, axis=1)
    value = float(np.mean(h_rows))
    grad = np.where(p > 0.0, p * (-logp - h_rows[:, None]), 0.0) / b
    return LossValue(value=value, grad=grad)


@dataclass
class StepLoss:
    l_c: float        # classification
    l_u: float        # consistency or entropy, unweighted; 0 without either
    l_d: float        # diversity of both views, unweighted; 0 without it
    total: float
    mask_rate: float  # share of weak rows above tau; 0 without a weak view
    grad: np.ndarray  # at the logits of every stacked row


def total_loss(probs: np.ndarray, labels: np.ndarray, weak: Optional[slice],
               strong: Optional[slice], weights: Dict[str, float],
               tau: float) -> StepLoss:
    """An adaptation step's objective over its stacked predictions.

    The first len(labels) rows of probs are the labeled rows; weak and
    strong select the two unlabeled views' rows, None for a view the
    step did not run (a term that reads it then raises ValueError).
    weights maps each term of TERMS the method uses to its weight:
    total = classification + weight * term, summed in TERMS order.
    Every term writes its weighted gradient into its own rows of one
    zero matrix of probs' shape.
    """
    p = _check_probs(probs, "probs")
    if set(weights) - set(TERMS):
        raise ValueError(f"loss terms must come from {TERMS}, "
                         f"got {sorted(weights)}")
    grad = np.zeros_like(p)
    labeled = slice(0, len(labels))
    l_c = classification_loss(p[labeled], labels)
    grad[labeled] = l_c.grad
    values = dict.fromkeys(TERMS, 0.0)

    def add(term: str, rows: slice, lv: LossValue) -> None:
        values[term] += lv.value
        grad[rows] += weights[term] * lv.grad

    if "consistency" in weights:
        add("consistency", strong, consistency_loss(p[weak], p[strong], tau)[0])
    if "entropy" in weights:
        add("entropy", weak, entropy_loss(p[weak]))
    if "diversity" in weights:
        lv = diversity_loss(np.stack((p[weak], p[strong])))
        values["diversity"] += lv.value
        grad[weak] += weights["diversity"] * lv.grad[0]
        grad[strong] += weights["diversity"] * lv.grad[1]
    total = l_c.value
    for term in TERMS:
        total += weights.get(term, 0.0) * values[term]
    mask_rate = 0.0 if weak is None else \
        float(np.mean(np.max(p[weak], axis=1) > tau))
    return StepLoss(l_c=l_c.value,
                    l_u=values["consistency"] + values["entropy"],
                    l_d=values["diversity"], total=float(total),
                    mask_rate=mask_rate, grad=grad)
