"""End-to-end workflows around a serialized source model.

train_source fits a classifier on the imbalanced source split (with a
9:1 train/validation split, best-validation checkpointing and SGD at
network.MOMENTUM and network.WEIGHT_DECAY, as in adapt) and emits a
model document. Its step runs losses.total_loss with no unlabeled
term, the s_plus_t objective on source rows, so both training loops
share one objective. adapt consumes that document plus the target half
of a task and runs one of five methods:

  cdl        classification + thresholded consistency + batch
             nuclear-norm diversity on both unlabeled views
  cdl_no_cl  drops the consistency term
  cdl_no_dl  drops the diversity term
  s_plus_t   labeled classification only, no unlabeled passes at all
  ent        classification + entropy minimization on the weak view

Each epoch draws all its steps' batches in one data.epoch_batches
call, then augments each view once over all of them (the labeled rows
weakly, as FixMatch does, and the unlabeled views that
losses.views_read names for the method's term weights, step_weights;
each on its own random stream, under data.default_policy for the
task). Each step stacks its slice of every view and takes its gradient
from step_gradient: one taped forward pass, losses.total_loss on its
logits and one backward pass from the single logit-gradient matrix that
total_loss returns; total_loss finds the views' rows, in an epoch's
shorter last step too, from the row count. train_source's steps take
theirs from step_gradient too, and gradcheck's method suites check
step_gradient itself, with step_weights giving the term weights.

The adaptation loop only ever sees an AdaptationView, which carries no
source samples and no unlabeled labels; reads of either on the owning
task are counted, so the source-free contract is testable.

Both training loops run each epoch's steps and evaluations under
np.errstate(**STEP_ERRORS). In adapt, a step or evaluation that
overflows, divides by zero or makes a NaN rolls the model back to its
last epoch end (the source model if none), which is returned and gives
the report's final evaluation; the report's abort_reason reads
"step S: <numpy's message>" or "evaluation: <numpy's message>".

Per-epoch prediction-diversity is measured on held-out test batches,
from the predictions of that epoch's test evaluation, on a random
stream of its own: metrics.aggregate_diversity slices its batches from
a few permutations, so an epoch's bookkeeping (its batches and its
diversity batches) takes a handful of generator calls.
The unlabeled split's private labels stay untouched during adaptation;
suite-level diversity on the unlabeled split is computed afterwards
through the counting accessor. run_ablation_suite runs adapt's checks
on the model, the task and the settings its cells share before the
first cell runs.
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

# the floating-point faults that abort a training step; underflow is not
# one, since softmax_and_log's exponential underflows to 0 by design
STEP_ERRORS = dict(all="raise", under="ignore")

# the prediction-diversity sample of adapt's epochs (test split) and of
# the grid's cells (unlabeled split): batches of min(size, rows) rows
DIVERSITY_BATCH_SIZE = 48
DIVERSITY_BATCHES = 50


@dataclass
class AdaptConfig:
    method: str = "cdl"
    tau: float = 0.8
    lambda_u: float = 2.5
    lambda_d: float = 1.0
    lr: float = 0.005
    labeled_batch: Optional[int] = None
    unlabeled_batch: int = 48
    epochs: int = 30
    seed: int = 0
    freeze_classifier: bool = False

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, "
                             f"got {self.method!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        network.SgdState(self.lr).validate()
        for name in ("lambda_u", "lambda_d"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails it too
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {value}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.unlabeled_batch < 1:
            raise ValueError("unlabeled_batch must be positive")
        if self.labeled_batch is not None and self.labeled_batch < 1:
            raise ValueError("labeled_batch must be positive when given")


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
    abort_reason: Optional[str] = None  # "step S: ..." or "evaluation: ..."


def model_fingerprint(model_text: str) -> str:
    return hashlib.sha256(model_text.encode()).hexdigest()[:16]


def evaluate(net: network.Network, xs: np.ndarray, ys: np.ndarray) -> EvalResult:
    """Argmax accuracy, per-class recall and confusion counts."""
    ys = np.asarray(ys)
    c = net.spec.num_classes
    if ys.size and (ys.min() < 0 or ys.max() >= c):
        raise ValueError(f"model has {c} classes, labels span "
                         f"{ys.min()} to {ys.max()}")
    logits = network.forward(net, xs)
    pred = np.argmax(logits, axis=1)
    confusion = np.bincount(ys * c + pred, minlength=c * c).reshape(c, c)
    counts = confusion.sum(axis=1)
    per_class = np.where(counts > 0, np.diag(confusion) / np.maximum(counts, 1),
                         0.0)
    return EvalResult(accuracy=float((pred == ys).mean()),
                      per_class_accuracy=per_class, confusion=confusion,
                      predictions=pred)


def step_gradient(net: network.Network, x: np.ndarray, labels: np.ndarray,
                  weights: Dict[str, float], tau: float
                  ) -> Tuple[losses.StepLoss, np.ndarray]:
    """One training step: a taped forward pass of the stacked batch x
    (the labeled rows, then each view losses.views_read(weights) names),
    losses.total_loss on its logits and one backward pass. Returns the
    step's losses and its parameter gradient, in the layout of net.flat."""
    tape = network.forward(net, x, keep=True)
    step = losses.total_loss(tape.logits, labels, weights, tau)
    return step, network.backward(net, tape, step.grad)


def train_source(task: data.DomainTask, spec: Optional[network.NetworkSpec] = None,
                 epochs: int = 30, seed: int = 0, lr: float = 0.005,
                 batch_size: int = 96) -> str:
    """Fit on 90% of the source split, checkpoint on the other 10%.

    The optimizer is SGD at network.MOMENTUM and network.WEIGHT_DECAY.
    Returns the serialized model document of the epoch with the best
    validation accuracy (earliest epoch wins ties). The counted
    source accessor is used exactly once; a source split of fewer than
    2 rows, which leaves no training row, raises ValueError. A step or
    validation pass that overflows, divides by zero or makes a NaN
    raises NumericalError naming the epoch and the step or validation.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if spec is None:
        spec = network.default_spec(input_dim=task.spec.input_dim,
                                    num_classes=task.spec.num_classes)
    check_model_fits(spec, task)

    streams = np.random.SeedSequence(seed).spawn(3)
    rng_split = np.random.default_rng(streams[0])
    rng_batch = np.random.default_rng(streams[2])
    net = network.init_network(spec, seed=int(streams[1].generate_state(1)[0]))
    state = network.init_sgd(net, lr)

    source_x, source_y = task.source()
    n = source_x.shape[0]
    if n < 2:
        raise ValueError(f"source split has {n} row{'' if n == 1 else 's'}; "
                         f"train_source needs at least 2 (one is held out "
                         f"for validation)")

    perm = rng_split.permutation(n)
    n_val = max(1, n // 10)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train_x, train_y = source_x[train_idx], source_y[train_idx]
    val_x, val_y = source_x[val_idx], source_y[val_idx]
    bs = min(batch_size, train_x.shape[0])

    best_acc = -1.0
    best = None
    best_epoch = -1
    for epoch in range(1, epochs + 1):
        order = rng_batch.permutation(train_x.shape[0])
        try:
            with np.errstate(**STEP_ERRORS):
                for start in range(0, order.size, bs):
                    idx = order[start:start + bs]
                    # s_plus_t on source rows: no view, so no term reads tau
                    _, grad = step_gradient(net, train_x[idx], train_y[idx],
                                            {}, 1.0)
                    network.sgd_step(net, grad, state)
                start = None  # past the steps: the validation pass
                val_acc = evaluate(net, val_x, val_y).accuracy
        except FloatingPointError as e:
            where = "validation" if start is None else f"step {start // bs + 1}"
            raise NumericalError(f"source training diverged at epoch {epoch}, "
                                 f"{where}: {e}") from None
        if val_acc > best_acc:
            best_acc = val_acc
            best = net.flat.copy()
            best_epoch = epoch

    net.flat[...] = best
    net.meta = {"seed": str(seed),
                "source_val_accuracy": repr(float(best_acc)),
                "best_epoch": str(best_epoch)}
    return network.serialize(net)


def step_weights(config: AdaptConfig) -> Dict[str, float]:
    """The term weights of config.method: what losses.total_loss takes
    besides the logits, the labels and tau."""
    return {term: config.lambda_d if term == "diversity" else config.lambda_u
            for term in METHOD_TERMS[config.method]}


def check_model_fits(spec: network.NetworkSpec, task) -> None:
    """Raise ValueError unless the model's input width and class count
    are those of the task (a full task or an AdaptationView)."""
    if spec.input_dim != task.labeled_x.shape[1]:
        raise ValueError(f"model expects input_dim {spec.input_dim}, "
                         f"task provides {task.labeled_x.shape[1]}")
    if spec.num_classes != task.spec.num_classes:
        raise ValueError(f"model has {spec.num_classes} classes, "
                         f"task has {task.spec.num_classes}")


def _source_network(model_text: str, view, config: AdaptConfig
                    ) -> Tuple[network.Network, AdaptConfig]:
    """The checks adapt makes before its first step: the config, the
    model document, check_model_fits and the batch sizes against the
    split sizes. Returns the source network and the config with its
    labeled batch resolved."""
    config.validate()
    net = network.deserialize(model_text)
    check_model_fits(net.spec, view)
    labeled_batch = config.labeled_batch if config.labeled_batch is not None \
        else min(view.labeled_x.shape[0], config.unlabeled_batch)
    config = replace(config, labeled_batch=labeled_batch)
    data.check_batch_sizes(view, config.labeled_batch, config.unlabeled_batch)
    return net, config


def adapt(model_text: str, task, config: AdaptConfig
          ) -> Tuple[RunReport, str]:
    """Adapt a serialized source model on the target half of a task.

    Accepts a full task or an AdaptationView; a full task is reduced to
    its view immediately, so neither source samples nor unlabeled
    labels are reachable below this line.
    """
    view = task.adaptation_view() if hasattr(task, "adaptation_view") else task
    net, config = _source_network(model_text, view, config)
    policy = data.default_policy(view.spec)

    streams = np.random.SeedSequence(config.seed).spawn(5)
    rng_batch = np.random.default_rng(streams[0])
    rng_labeled = np.random.default_rng(streams[1])
    rng_weak = np.random.default_rng(streams[2])
    rng_strong = np.random.default_rng(streams[3])
    rng_diversity = np.random.default_rng(streams[4])

    state = network.init_sgd(net, config.lr)
    lb, ub = config.labeled_batch, config.unlabeled_batch
    steps = data.steps_per_epoch(view.num_unlabeled, ub)
    weights = step_weights(config)
    views = losses.views_read(weights)
    # the augmentation of each view total_loss reads, in row order
    augment = [{"weak": (data.weak_augment_batch, rng_weak),
                "strong": (data.strong_augment_batch, rng_strong)}[v]
               for v in views]

    report = RunReport(config=config,
                       model_fingerprint=model_fingerprint(model_text))
    good = net.flat.copy()  # the parameters as of the last epoch end
    final: Optional[EvalResult] = None  # test evaluation of good
    for epoch in range(1, config.epochs + 1):
        # the epoch's batches, each view augmented in one call, then
        # sliced per step: step i holds rows [i * lb, (i + 1) * lb) of
        # the labeled and [i * ub, (i + 1) * ub) of the unlabeled arrays
        xl, yl, xu = data.epoch_batches(view, lb, ub, rng_batch)
        xl = data.weak_augment_batch(xl, policy, rng_labeled)
        xv = [fn(xu, policy, rng) for fn, rng in augment]
        sums = np.zeros(5)  # l_c, l_u, l_d, total, mask_rate
        try:
            with np.errstate(**STEP_ERRORS):
                for i in range(steps):
                    rows_l = slice(i * lb, (i + 1) * lb)
                    rows_u = slice(i * ub, (i + 1) * ub)
                    report.unlabeled_weak_passes += "weak" in views
                    report.unlabeled_strong_passes += "strong" in views
                    step, grad = step_gradient(net, np.concatenate(
                        [xl[rows_l]] + [x[rows_u] for x in xv]), yl[rows_l],
                        weights, config.tau)
                    network.sgd_step(net, grad, state, config.freeze_classifier)
                    sums += (step.l_c, step.l_u, step.l_d, step.total,
                             step.mask_rate)
                i = None  # past the steps: the epoch's evaluations
                test = evaluate(net, view.test_x, view.test_y)
                labeled_acc = evaluate(net, view.labeled_x,
                                       view.labeled_y).accuracy
                div = metrics.aggregate_diversity(
                    test.predictions, view.test_y,
                    batch_size=min(DIVERSITY_BATCH_SIZE, len(view.test_y)),
                    num_batches=DIVERSITY_BATCHES, rng=rng_diversity)
        except FloatingPointError as e:
            report.aborted_epoch = epoch
            where = "evaluation" if i is None else f"step {i + 1}"
            report.abort_reason = f"{where}: {e}"
            net.flat[...] = good
            break
        final = test
        m = sums / steps
        report.records.append(EpochRecord(
            epoch=epoch, l_c=float(m[0]), l_u=float(m[1]), l_d=float(m[2]),
            total=float(m[3]), mask_rate=float(m[4]),
            labeled_acc=float(labeled_acc), test_acc=final.accuracy,
            diversity_ratio=float(div)))
        good[...] = net.flat

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
    error: Optional[str] = None


@dataclass
class SuiteResult:
    rows: List[SuiteRow]
    summary: Dict[str, Dict[str, float]]


def run_ablation_suite(task: data.DomainTask, model_text: str,
                       base_config: AdaptConfig, methods: Sequence[str],
                       seeds: Sequence[int]) -> SuiteResult:
    """Adapt the same source model under every (method, seed) pair.

    The diversity column is the mean prediction-diversity ratio over
    random unlabeled batches, measured after adaptation through the
    counting label accessor. Before the first cell, the checks adapt
    makes before its first step run once on what every cell shares
    (the model, the task and all settings but the method and the seed),
    so a bad one raises ValueError and nothing runs; a cell that fails
    on its own is recorded and the rest of the grid still runs.
    """
    if not methods or not seeds:
        raise ValueError("methods and seeds must be non-empty")
    _source_network(model_text, task.adaptation_view(),
                    replace(base_config, method=METHODS[0]))
    rows: List[SuiteRow] = []
    for method in methods:
        for seed in seeds:
            cfg = replace(base_config, method=method, seed=seed)
            try:
                report, adapted_text = adapt(model_text, task, cfg)
                logits = network.forward(network.deserialize(adapted_text),
                                         task.unlabeled_x)
                div = metrics.aggregate_diversity(
                    np.argmax(logits, axis=1), task.unlabeled_labels(),
                    batch_size=min(DIVERSITY_BATCH_SIZE, task.num_unlabeled),
                    num_batches=DIVERSITY_BATCHES,
                    rng=np.random.default_rng(10_000 + seed))
                minority = report.per_class_accuracy[-1]
                rows.append(SuiteRow(method=method, seed=seed,
                                     final_accuracy=report.final_accuracy,
                                     diversity_ratio=float(div),
                                     minority_recall=float(minority)))
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
