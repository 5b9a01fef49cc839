"""End-to-end finite-difference verification of every gradient path.

Each suite builds a small network, evaluates one objective through it,
and compares the assembled analytic parameter gradients against central
finite differences of the scalar loss, entry by entry. The relative
error of entry pairs (a, b) is |a - b| / max(|a|, |b|, 1e-6).

Instances where a prediction matrix has near-degenerate singular values
(any gap below 1e-3 of the largest value) are skipped and counted: the
nuclear norm is not differentiable there, so finite differences are not
a valid oracle at such points.
"""

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import linalg, losses, network

TOLERANCE = 1e-4
FD_STEP = 1e-5
SPECTRUM_GAP = 1e-3


@dataclass
class SuiteReport:
    name: str
    max_rel_err: float
    checked: int
    skipped: int
    passed: bool


def _small_net(seed: int) -> network.Network:
    spec = network.NetworkSpec(input_dim=3, hidden_dims=[4], feature_dim=5,
                               num_classes=3, activation="tanh")
    return network.init_network(spec, seed=seed)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-6)])
    return float(np.max(np.abs(a - b) / denom))


def fd_param_grads(net: network.Network, scalar_fn: Callable[[], float],
                   h: float = FD_STEP) -> List[np.ndarray]:
    """Central differences of scalar_fn w.r.t. every parameter entry."""
    out = []
    for p in net.params:
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = scalar_fn()
            flat[k] = orig - h
            down = scalar_fn()
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * h)
        out.append(g)
    return out


def _spectrum_degenerate(p: np.ndarray) -> bool:
    sigma = linalg.svd(p).sigma
    if sigma[0] == 0.0:
        return True
    gaps = -np.diff(sigma)
    floor = SPECTRUM_GAP * sigma[0]
    return bool(np.min(gaps) <= floor or sigma[-1] <= floor)


def _probs(net, x):
    return network.softmax_rows(network.forward(net, x)[1])


def _tape(net, x):
    return network.forward(net, x, keep=True)


def check_network_backward(trials: int = 20, seed: int = 0) -> SuiteReport:
    """Raw reverse mode against finite differences of sum(logits * G)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        net = _small_net(seed=1000 + t)
        x = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 3))
        exact = network.backward(net, _tape(net, x), g)
        fd = fd_param_grads(net, lambda: float(
            np.sum(network.forward(net, x)[1] * g)))
        worst = max(worst, max(_rel_err(a, b) for a, b in zip(exact, fd)))
    return SuiteReport("network_backward", worst, trials, 0, worst <= TOLERANCE)


def check_classification(trials: int = 6, seed: int = 1) -> SuiteReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        net = _small_net(seed=2000 + t)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        tape = _tape(net, x)
        lv = losses.classification_loss(
            network.softmax_rows(tape.logits), y)
        exact = network.backward(net, tape, lv.grad)
        fd = fd_param_grads(net, lambda: losses.classification_loss(
            _probs(net, x), y).value)
        worst = max(worst, max(_rel_err(a, b) for a, b in zip(exact, fd)))
    return SuiteReport("classification_loss", worst, trials, 0,
                       worst <= TOLERANCE)


def check_consistency(trials: int = 6, seed: int = 2) -> SuiteReport:
    # the weak view is a constant target, so only the strong pass moves
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        net = _small_net(seed=3000 + t)
        xw = rng.normal(size=(8, 3))
        xs = rng.normal(size=(8, 3))
        probs_w = _probs(net, xw)
        tape = _tape(net, xs)
        lv, _ = losses.consistency_loss(
            probs_w, network.softmax_rows(tape.logits), tau=0.4)
        exact = network.backward(net, tape, lv.grad)
        fd = fd_param_grads(net, lambda: losses.consistency_loss(
            probs_w, _probs(net, xs), tau=0.4)[0].value)
        worst = max(worst, max(_rel_err(a, b) for a, b in zip(exact, fd)))
    return SuiteReport("consistency_loss", worst, trials, 0, worst <= TOLERANCE)


def check_entropy(trials: int = 6, seed: int = 3) -> SuiteReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        net = _small_net(seed=4000 + t)
        x = rng.normal(size=(6, 3))
        tape = _tape(net, x)
        lv = losses.entropy_loss(network.softmax_rows(tape.logits))
        exact = network.backward(net, tape, lv.grad)
        fd = fd_param_grads(net, lambda: losses.entropy_loss(
            _probs(net, x)).value)
        worst = max(worst, max(_rel_err(a, b) for a, b in zip(exact, fd)))
    return SuiteReport("entropy_loss", worst, trials, 0, worst <= TOLERANCE)


def check_diversity(trials: int = 6, seed: int = 4) -> SuiteReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = skipped = 0
    attempts = 0
    while checked < trials and attempts < 20 * trials:
        attempts += 1
        net = _small_net(seed=5000 + attempts)
        x = rng.normal(size=(6, 3))
        tape = _tape(net, x)
        p = network.softmax_rows(tape.logits)
        if _spectrum_degenerate(p):
            skipped += 1
            continue
        exact = network.backward(net, tape, losses.diversity_loss(p).grad)
        fd = fd_param_grads(net, lambda: losses.diversity_loss(
            _probs(net, x)).value)
        worst = max(worst, max(_rel_err(a, b) for a, b in zip(exact, fd)))
        checked += 1
    return SuiteReport("diversity_loss", worst, checked, skipped,
                       checked == trials and worst <= TOLERANCE)


def check_total(trials: int = 4, seed: int = 5) -> SuiteReport:
    """The cdl step's stacked objective, weights 2.5 and 1.0: 4 labeled
    rows, then 6 weak and 6 strong rows, through losses.total_loss."""
    rng = np.random.default_rng(seed)
    weak, strong = slice(4, 10), slice(10, 16)
    weights = {"consistency": 2.5, "diversity": 1.0}
    worst = 0.0
    checked = skipped = 0
    attempts = 0
    while checked < trials and attempts < 20 * trials:
        attempts += 1
        net = _small_net(seed=6000 + attempts)
        xl = rng.normal(size=(4, 3))
        yl = rng.integers(0, 3, size=4)
        x = np.concatenate([xl, rng.normal(size=(6, 3)),
                            rng.normal(size=(6, 3))])
        tape = _tape(net, x)
        probs = network.softmax_rows(tape.logits)
        if _spectrum_degenerate(probs[weak]) or \
                _spectrum_degenerate(probs[strong]):
            skipped += 1
            continue

        def step(p):
            return losses.total_loss(p, yl, weak, strong, weights, tau=0.4)

        # pseudo-labels and the mask are piecewise constant in the weak
        # rows, so letting them move with the parameters does not change
        # the derivative away from tau
        exact = network.backward(net, tape, step(probs).grad)
        fd = fd_param_grads(net, lambda: step(_probs(net, x)).total)
        worst = max(worst, max(_rel_err(a, b) for a, b in zip(exact, fd)))
        checked += 1
    return SuiteReport("total_loss", worst, checked, skipped,
                       checked == trials and worst <= TOLERANCE)


def run_all(seed: int = 0) -> List[SuiteReport]:
    return [check_network_backward(seed=seed),
            check_classification(seed=seed + 1),
            check_consistency(seed=seed + 2),
            check_entropy(seed=seed + 3),
            check_diversity(seed=seed + 4),
            check_total(seed=seed + 5)]
