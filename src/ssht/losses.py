"""Training objectives, each returning a value plus logit gradients.

Three forward passes can contribute to a step: the weakly augmented
labeled batch, the weakly augmented unlabeled batch, and the strongly
augmented unlabeled batch. A LossValue keeps one gradient matrix per
pass it touches, keyed by the PASS_* constants, already expressed at
the logits so the network backward pass can consume it directly.

Objectives:
  classification   mean cross-entropy on the labeled batch
  consistency      confidence-thresholded cross-entropy from the weak
                   view's hard pseudo-label to the strong view, mean
                   over the full batch, no gradient into the weak pass
  diversity        negated mean nuclear norm of both unlabeled
                   prediction matrices (maximizing it spreads batch
                   predictions over more classes); one SVD per matrix
                   gives both the norm and its subgradient
  entropy          mean prediction entropy of the weak unlabeled view
  total            classification + lambda_u * consistency_or_entropy
                   + lambda_d * diversity
"""

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .linalg import nuclear_norm_and_subgradient

PASS_LABELED_WEAK = "labeled_weak"
PASS_UNLABELED_WEAK = "unlabeled_weak"
PASS_UNLABELED_STRONG = "unlabeled_strong"

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
    logit_grads: Dict[str, np.ndarray] = field(default_factory=dict)


def _check_probs(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {p.shape}")
    return p


def classification_loss(probs_labeled: np.ndarray, labels: np.ndarray,
                        pass_key: str = PASS_LABELED_WEAK) -> LossValue:
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
    return LossValue(value=value, logit_grads={pass_key: grad})


def consistency_loss(probs_weak: np.ndarray, probs_strong: np.ndarray,
                     tau: float):
    """Thresholded pseudo-label cross-entropy from weak to strong view.

    Rows whose weak confidence does not exceed tau contribute zero, and
    the mean runs over the full batch. The pseudo-label is a constant:
    no gradient reaches the weak pass. Returns (LossValue, mask_rate).
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
    mask_rate = float(np.mean(selected))
    return LossValue(value=value, logit_grads={PASS_UNLABELED_STRONG: grad}), \
        mask_rate


def softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Chain a gradient at softmax outputs back to the logits."""
    inner = np.sum(grad_probs * probs, axis=1, keepdims=True)
    return probs * (grad_probs - inner)


def diversity_loss(probs_weak: np.ndarray, probs_strong: np.ndarray) -> LossValue:
    """Negated mean nuclear norm of both unlabeled prediction matrices.

    Minimizing this pushes the batch prediction matrix toward higher
    rank, i.e. toward covering more classes; a collapsed batch scores
    worst. Gradients flow into both the weak and strong passes.
    """
    pw = _check_probs(probs_weak, "probs_weak")
    ps = _check_probs(probs_strong, "probs_strong")
    if pw.shape != ps.shape:
        raise ValueError(f"shape mismatch: weak {pw.shape}, strong {ps.shape}")
    b = pw.shape[0]
    norm_w, sub_w = nuclear_norm_and_subgradient(pw)
    norm_s, sub_s = nuclear_norm_and_subgradient(ps)
    value = -(norm_w + norm_s) / b
    grads = {PASS_UNLABELED_WEAK: softmax_backward(pw, -sub_w / b),
             PASS_UNLABELED_STRONG: softmax_backward(ps, -sub_s / b)}
    return LossValue(value=float(value), logit_grads=grads)


def entropy_loss(probs: np.ndarray,
                 pass_key: str = PASS_UNLABELED_WEAK) -> LossValue:
    """Mean prediction entropy; 0 log 0 counts as 0."""
    p = _check_probs(probs, "probs")
    b = p.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0.0, np.log(p), 0.0)
    h_rows = -np.sum(p * logp, axis=1)
    value = float(np.mean(h_rows))
    grad = np.where(p > 0.0, p * (-logp - h_rows[:, None]), 0.0) / b
    return LossValue(value=value, logit_grads={pass_key: grad})


def total_loss(l_c: LossValue, l_u: LossValue, l_d: LossValue,
               lambda_u: float, lambda_d: float) -> LossValue:
    """Weighted sum; gradients merge additively per pass."""
    value = l_c.value + lambda_u * l_u.value + lambda_d * l_d.value
    grads: Dict[str, np.ndarray] = {}
    for part, weight in ((l_c, 1.0), (l_u, lambda_u), (l_d, lambda_d)):
        for key, g in part.logit_grads.items():
            scaled = weight * g
            if key in grads:
                grads[key] = grads[key] + scaled
            else:
                grads[key] = scaled
    return LossValue(value=float(value), logit_grads=grads)
