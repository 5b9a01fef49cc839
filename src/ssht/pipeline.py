"""End-to-end workflows around a serialized source model.

train_source fits a classifier on the imbalanced source split (with a
9:1 train/validation split and best-validation checkpointing) and emits
a model document. adapt consumes that document plus the target half of
a task and runs one of five methods:

  cdl        classification + thresholded consistency + batch
             nuclear-norm diversity on both unlabeled views
  cdl_no_cl  drops the consistency term
  cdl_no_dl  drops the diversity term
  s_plus_t   labeled classification only, no unlabeled passes at all
  ent        classification + entropy minimization on the weak view

Each adaptation step stacks the labeled rows, then the weak and the
strong view of one unlabeled batch (only the views its method reads),
runs them through one taped forward pass and losses.total_loss, and
takes one backward pass from the single logit-gradient matrix that
total_loss returns.

The adaptation loop only ever sees an AdaptationView, which carries no
source samples and no unlabeled labels; reads of either on the owning
task are counted, so the source-free contract is testable.

A step that meets a non-finite loss or gradient aborts the run: the
parameters roll back to the end of the last completed epoch (the source
model's if none completed), and that state is returned and evaluated.

Per-epoch prediction-diversity is measured on held-out test batches,
from the predictions of that epoch's test evaluation.
The unlabeled split's private labels stay untouched during adaptation;
suite-level diversity on the unlabeled split is computed afterwards
through the counting accessor.
"""

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import data, losses, metrics, network
from .linalg import NumericalError

# method -> the unlabeled terms (losses.TERMS) it adds to classification
METHOD_TERMS = {"cdl": ("consistency", "diversity"),
                "cdl_no_cl": ("diversity",), "cdl_no_dl": ("consistency",),
                "s_plus_t": (), "ent": ("entropy",)}
METHODS = tuple(METHOD_TERMS)
LABELED_AUG_MODES = ("none", "weak")


@dataclass
class AdaptConfig:
    method: str = "cdl"
    tau: float = 0.8
    lambda_u: float = 2.5
    lambda_d: float = 1.0
    lr: float = 0.005
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 0.0005
    labeled_batch: Optional[int] = None
    unlabeled_batch: int = 48
    epochs: int = 30
    seed: int = 0
    freeze_classifier: bool = False
    labeled_aug: str = "weak"

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, "
                             f"got {self.method!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.lambda_u < 0.0 or self.lambda_d < 0.0:
            raise ValueError("lambda_u and lambda_d must be non-negative")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.unlabeled_batch < 1:
            raise ValueError("unlabeled_batch must be positive")
        if self.labeled_batch is not None and self.labeled_batch < 1:
            raise ValueError("labeled_batch must be positive when given")
        if self.labeled_aug not in LABELED_AUG_MODES:
            raise ValueError(f"labeled_aug must be one of {LABELED_AUG_MODES}")


@dataclass
class EpochRecord:
    epoch: int
    l_c: float
    l_u: float
    l_d: float
    total: float
    mask_rate: float
    labeled_acc: float
    test_acc: float
    diversity_ratio: float


@dataclass
class EvalResult:
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray
    predictions: np.ndarray


@dataclass
class RunReport:
    config: AdaptConfig
    model_fingerprint: str
    records: List[EpochRecord] = field(default_factory=list)
    final_accuracy: float = 0.0
    per_class_accuracy: List[float] = field(default_factory=list)
    confusion: List[List[int]] = field(default_factory=list)
    unlabeled_weak_passes: int = 0
    unlabeled_strong_passes: int = 0
    aborted_epoch: Optional[int] = None


def model_fingerprint(model_text: str) -> str:
    return hashlib.sha256(model_text.encode()).hexdigest()[:16]


def evaluate(net: network.Network, xs: np.ndarray, ys: np.ndarray) -> EvalResult:
    """Argmax accuracy, per-class recall and confusion counts."""
    ys = np.asarray(ys)
    c = net.spec.num_classes
    if ys.size and (ys.min() < 0 or ys.max() >= c):
        raise ValueError(f"model has {c} classes, labels span "
                         f"{ys.min()} to {ys.max()}")
    _, logits = network.forward(net, xs)
    pred = np.argmax(logits, axis=1)
    confusion = np.zeros((c, c), dtype=int)
    np.add.at(confusion, (ys, pred), 1)
    counts = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(counts > 0, np.diag(confusion) / np.maximum(counts, 1),
                             0.0)
    return EvalResult(accuracy=float((pred == ys).mean()),
                      per_class_accuracy=per_class, confusion=confusion,
                      predictions=pred)


def train_source(task: data.DomainTask, spec: Optional[network.NetworkSpec] = None,
                 epochs: int = 30, seed: int = 0, lr: float = 0.005,
                 momentum: float = 0.9, nesterov: bool = True,
                 weight_decay: float = 0.0005, batch_size: int = 96) -> str:
    """Fit on 90% of the source split, checkpoint on the other 10%.

    Returns the serialized model document of the epoch with the best
    validation accuracy (earliest epoch wins ties). The counted source
    accessor is used exactly once.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if spec is None:
        spec = network.default_spec(input_dim=task.spec.input_dim,
                                    num_classes=task.spec.num_classes)
    if spec.input_dim != task.spec.input_dim or \
            spec.num_classes != task.spec.num_classes:
        raise ValueError("network spec does not match the task dimensions")

    source_x, source_y = task.source()
    n = source_x.shape[0]
    streams = np.random.SeedSequence(seed).spawn(3)
    rng_split = np.random.default_rng(streams[0])
    rng_batch = np.random.default_rng(streams[2])

    perm = rng_split.permutation(n)
    n_val = max(1, n // 10)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train_x, train_y = source_x[train_idx], source_y[train_idx]
    val_x, val_y = source_x[val_idx], source_y[val_idx]

    net = network.init_network(spec, seed=int(streams[1].generate_state(1)[0]))
    state = network.init_sgd(net, lr, momentum=momentum, nesterov=nesterov,
                             weight_decay=weight_decay)
    bs = min(batch_size, train_x.shape[0])

    best_acc = -1.0
    best_params = None
    best_epoch = -1
    for epoch in range(1, epochs + 1):
        order = rng_batch.permutation(train_x.shape[0])
        for start in range(0, order.size, bs):
            idx = order[start:start + bs]
            tape = network.forward(net, train_x[idx], keep=True)
            probs = network.softmax_rows(tape.logits)
            lv = losses.classification_loss(probs, train_y[idx])
            if not math.isfinite(lv.value):
                raise NumericalError(f"source training diverged at epoch "
                                     f"{epoch}, step {start // bs}")
            network.sgd_step(net, network.backward(net, tape, lv.grad), state)
        val_acc = evaluate(net, val_x, val_y).accuracy
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = [p.copy() for p in net.params]
            best_epoch = epoch

    net.params = best_params
    net.meta = {"seed": str(seed),
                "source_val_accuracy": repr(float(best_acc)),
                "best_epoch": str(best_epoch)}
    return network.serialize(net)


def adapt(model_text: str, task, config: AdaptConfig,
          policy: Optional[data.AugmentPolicy] = None
          ) -> Tuple[RunReport, str]:
    """Adapt a serialized source model on the target half of a task.

    Accepts a full task or an AdaptationView; a full task is reduced to
    its view immediately, so neither source samples nor unlabeled
    labels are reachable below this line.
    """
    view = task.adaptation_view() if hasattr(task, "adaptation_view") else task
    config.validate()
    net = network.deserialize(model_text)
    if net.spec.input_dim != view.labeled_x.shape[1]:
        raise ValueError(f"model expects input_dim {net.spec.input_dim}, "
                         f"task provides {view.labeled_x.shape[1]}")
    if net.spec.num_classes != view.spec.num_classes:
        raise ValueError(f"model has {net.spec.num_classes} classes, "
                         f"task has {view.spec.num_classes}")
    if policy is None:
        policy = data.default_policy(view.spec)
    policy.validate()

    n_labeled = view.labeled_x.shape[0]
    labeled_batch = config.labeled_batch if config.labeled_batch is not None \
        else min(n_labeled, config.unlabeled_batch)
    config = replace(config, labeled_batch=labeled_batch)

    streams = np.random.SeedSequence(config.seed).spawn(5)
    rng_batch = np.random.default_rng(streams[0])
    rng_labeled_aug = np.random.default_rng(streams[1])
    rng_weak = np.random.default_rng(streams[2])
    rng_strong = np.random.default_rng(streams[3])
    rng_diversity = np.random.default_rng(streams[4])

    state = network.init_sgd(net, config.lr, momentum=config.momentum,
                             nesterov=config.nesterov,
                             weight_decay=config.weight_decay)
    frozen = net.classifier_param_indices() if config.freeze_classifier else ()

    batches = data.sample_batches(view, labeled_batch, config.unlabeled_batch,
                                  rng_batch)
    steps = data.steps_per_epoch(view.num_unlabeled, config.unlabeled_batch)
    weights = {term: config.lambda_d if term == "diversity" else config.lambda_u
               for term in METHOD_TERMS[config.method]}
    needs_weak = bool(weights)
    needs_strong = bool(weights.keys() - {"entropy"})

    report = RunReport(config=config,
                       model_fingerprint=model_fingerprint(model_text))
    aborted = False
    good_params = [p.copy() for p in net.params]  # as of the last epoch end
    final: Optional[EvalResult] = None  # test evaluation of good_params
    for epoch in range(1, config.epochs + 1):
        sums = np.zeros(5)  # l_c, l_u, l_d, total, mask_rate
        for _ in range(steps):
            xl, yl, xu = next(batches)
            if config.labeled_aug == "weak":
                xl = data.weak_augment_batch(xl, policy, rng_labeled_aug)
            views = [xl]
            if needs_weak:
                views.append(data.weak_augment_batch(xu, policy, rng_weak))
                report.unlabeled_weak_passes += 1
            if needs_strong:
                views.append(data.strong_augment_batch(xu, policy, rng_strong))
                report.unlabeled_strong_passes += 1
            tape = network.forward(net, np.concatenate(views), keep=True)
            if not np.all(np.isfinite(tape.logits)):
                aborted = True
                break
            nl, nu = len(yl), len(xu)
            step = losses.total_loss(
                network.softmax_rows(tape.logits), yl,
                slice(nl, nl + nu) if needs_weak else None,
                slice(nl + nu, nl + 2 * nu) if needs_strong else None,
                weights, config.tau)
            if not math.isfinite(step.total):
                aborted = True
                break
            try:
                network.sgd_step(net, network.backward(net, tape, step.grad),
                                 state, frozen=frozen)
            except NumericalError:
                aborted = True
                break
            sums += (step.l_c, step.l_u, step.l_d, step.total, step.mask_rate)

        if aborted:
            report.aborted_epoch = epoch
            net.params = good_params
            break
        final = evaluate(net, view.test_x, view.test_y)
        labeled_acc = evaluate(net, view.labeled_x, view.labeled_y).accuracy
        div = metrics.aggregate_diversity(final.predictions, view.test_y,
                                          batch_size=min(48, len(view.test_y)),
                                          num_batches=50, rng=rng_diversity)
        m = sums / steps
        report.records.append(EpochRecord(
            epoch=epoch, l_c=float(m[0]), l_u=float(m[1]), l_d=float(m[2]),
            total=float(m[3]), mask_rate=float(m[4]),
            labeled_acc=float(labeled_acc), test_acc=final.accuracy,
            diversity_ratio=float(div)))
        good_params = [p.copy() for p in net.params]

    if final is None:  # aborted in the first epoch, back at the source model
        final = evaluate(net, view.test_x, view.test_y)
    report.final_accuracy = final.accuracy
    report.per_class_accuracy = [float(v) for v in final.per_class_accuracy]
    report.confusion = final.confusion.tolist()

    net.meta = dict(net.meta)
    net.meta["adapted_method"] = config.method
    net.meta["adapted_seed"] = str(config.seed)
    return report, network.serialize(net)


@dataclass
class SuiteRow:
    method: str
    seed: int
    final_accuracy: float
    diversity_ratio: float
    minority_recall: float
    report: Optional[RunReport] = None
    error: Optional[str] = None


@dataclass
class SuiteResult:
    rows: List[SuiteRow]
    summary: Dict[str, Dict[str, float]]


def run_ablation_suite(task: data.DomainTask, model_text: str,
                       base_config: AdaptConfig, methods: Sequence[str],
                       seeds: Sequence[int],
                       policy: Optional[data.AugmentPolicy] = None
                       ) -> SuiteResult:
    """Adapt the same source model under every (method, seed) pair.

    The diversity column is the mean prediction-diversity ratio over
    random unlabeled batches, measured after adaptation through the
    counting label accessor. A failed cell is recorded and the rest of
    the grid still runs.
    """
    if not methods or not seeds:
        raise ValueError("methods and seeds must be non-empty")
    rows: List[SuiteRow] = []
    for method in methods:
        for seed in seeds:
            cfg = replace(base_config, method=method, seed=seed)
            try:
                report, adapted_text = adapt(model_text, task, cfg,
                                             policy=policy)
                _, logits = network.forward(network.deserialize(adapted_text),
                                            task.unlabeled_x)
                div = metrics.aggregate_diversity(
                    np.argmax(logits, axis=1), task.unlabeled_labels(),
                    batch_size=min(48, task.num_unlabeled), num_batches=50,
                    rng=np.random.default_rng(10_000 + seed))
                minority = report.per_class_accuracy[-1]
                rows.append(SuiteRow(method=method, seed=seed,
                                     final_accuracy=report.final_accuracy,
                                     diversity_ratio=float(div),
                                     minority_recall=float(minority),
                                     report=report))
            except (ValueError, NumericalError) as e:
                rows.append(SuiteRow(method=method, seed=seed,
                                     final_accuracy=float("nan"),
                                     diversity_ratio=float("nan"),
                                     minority_recall=float("nan"),
                                     error=str(e)))
    summary: Dict[str, Dict[str, float]] = {}
    for method in methods:
        cells = [r for r in rows if r.method == method and r.error is None]
        if not cells:
            summary[method] = {"n": 0.0}
            continue
        accs = np.array([r.final_accuracy for r in cells])
        divs = np.array([r.diversity_ratio for r in cells])
        summary[method] = {"n": float(len(cells)),
                           "mean_accuracy": float(accs.mean()),
                           "std_accuracy": float(accs.std()),
                           "mean_diversity": float(divs.mean()),
                           "std_diversity": float(divs.std())}
    return SuiteResult(rows=rows, summary=summary)
