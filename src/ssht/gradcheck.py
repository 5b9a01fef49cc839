"""End-to-end finite-difference verification of every gradient path.

Each suite builds small networks, evaluates one objective through them,
and compares the analytic parameter gradient against central finite
differences of the scalar objective, entry by entry. The relative error
of entry pairs (a, b) is |a - b| / max(|a|, |b|, 1e-6).

network_backward checks raw reverse mode. Then there is one suite per
method of pipeline.METHODS, named after it: the method's whole step
objective, built from pipeline.step_weights, losses.views_read and
losses.total_loss on the logits, as adapt builds it, so a new method
is checked with no edit here. Its tau is TAU, 0.4. Two kinds of
instance are skipped and counted, judged on the probabilities of
losses.softmax_and_log, which total_loss reads; a suite draws more
until it has checked its quota (at most 20 attempts per instance
wanted):
  - under the diversity term, a view whose prediction matrix has
    near-degenerate singular values (a gap or the smallest value below
    1e-3 of the largest), judged on one linalg.svd call over the
    instance's views: the nuclear norm is not differentiable there, so
    finite differences are not a valid oracle;
  - under the consistency term, a batch with no weak row above tau,
    where the term would contribute nothing to check.
"""

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import linalg, losses, network, pipeline

TOLERANCE = 1e-4
FD_STEP = 1e-5
SPECTRUM_GAP = 1e-3
# consistency threshold of the method suites: AdaptConfig's 0.8 would
# mask every row of a random 3-class network, leaving the term untested
TAU = 0.4


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


def fd_param_grads(net: network.Network,
                   scalar_fn: Callable[[], float]) -> np.ndarray:
    """Central differences, of step FD_STEP, of scalar_fn w.r.t. every
    entry of net.flat."""
    flat = net.flat
    out = np.empty_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + FD_STEP
        up = scalar_fn()
        flat[k] = orig - FD_STEP
        down = scalar_fn()
        flat[k] = orig
        out[k] = (up - down) / (2.0 * FD_STEP)
    return out


def _spectrum_degenerate(views: np.ndarray) -> bool:
    """Whether any matrix of a (views, rows, classes) stack, decomposed
    in one call, has a singular value gap or its smallest singular
    value at or below SPECTRUM_GAP times its largest (the zero matrix
    included)."""
    sigma = linalg.svd(views).sigma
    floor = SPECTRUM_GAP * sigma[:, :1]
    return bool((-np.diff(sigma, axis=1) <= floor).any()
                or (sigma[:, -1:] <= floor).any())


def check_network_backward(trials: int = 20, seed: int = 0) -> SuiteReport:
    """Raw reverse mode against finite differences of sum(logits * G)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        net = _small_net(seed=1000 + t)
        x = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 3))
        exact = network.backward(net, network.forward(net, x, keep=True), g)
        fd = fd_param_grads(net, lambda: float(
            np.sum(network.forward(net, x) * g)))
        worst = max(worst, _rel_err(exact, fd))
    return SuiteReport("network_backward", worst, trials, 0, worst <= TOLERANCE)


def check_method(method: str, trials: int = 6, seed: int = 0) -> SuiteReport:
    """One method's step objective, built as adapt builds it: 4 labeled
    rows, then 6 rows for each unlabeled view losses.views_read names for
    the term weights of pipeline.step_weights at the default config,
    through losses.total_loss at tau TAU."""
    weights = pipeline.step_weights(pipeline.AdaptConfig(method=method))
    n_views = len(losses.views_read(weights))
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = skipped = 0
    attempts = 0
    while checked < trials and attempts < 20 * trials:
        attempts += 1
        net = _small_net(seed=int(rng.integers(2 ** 31)))
        yl = rng.integers(0, 3, size=4)
        x = rng.normal(size=(4 + 6 * n_views, 3))
        tape = network.forward(net, x, keep=True)
        probs, _ = losses.softmax_and_log(tape.logits)
        views = probs[4:].reshape(n_views, 6, 3)  # weak first
        degenerate = "diversity" in weights and _spectrum_degenerate(views)
        all_masked = "consistency" in weights and \
            not np.any(np.max(views[0], axis=1) > TAU)
        if degenerate or all_masked:
            skipped += 1
            continue

        def step(logits):
            return losses.total_loss(logits, yl, weights, TAU)

        # pseudo-labels and the mask are piecewise constant in the weak
        # rows, so letting them move with the parameters does not change
        # the derivative away from tau
        exact = network.backward(net, tape, step(tape.logits).grad)
        fd = fd_param_grads(net, lambda: step(network.forward(net, x)).total)
        worst = max(worst, _rel_err(exact, fd))
        checked += 1
    return SuiteReport(method, worst, checked, skipped,
                       checked == trials and worst <= TOLERANCE)


def run_all(seed: int = 0) -> List[SuiteReport]:
    """The network backward suite, then one suite per pipeline.METHODS."""
    return [check_network_backward(seed=seed)] + [
        check_method(method, seed=seed + 1 + i)
        for i, method in enumerate(pipeline.METHODS)]
