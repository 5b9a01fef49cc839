"""Synthetic domain pairs with covariate shift and source class imbalance.

A task bundles four splits: an imbalanced labeled source set, a tiny
class-balanced labeled target set (shots per class), a large unlabeled
target set whose labels are retained privately for evaluation only, and
a held-out class-balanced target test set. The target domain is the
source geometry pushed through rotate / scale / translate.

The unlabeled labels and the source samples sit behind counting
accessors so a test can prove the adaptation loop never touched them;
`adaptation_view` returns an object that lacks those fields outright.
A task file is an "ssht-data/1" key-value document (see fileio).

Augmentation operators are vector stand-ins for the usual image ones:
weak is small isotropic jitter (a translation analog), strong composes
random transforms drawn from a pool (jitter, rotation, scaling,
coordinate dropout), in the spirit of randomized augmentation policies.
Both work on whole batches: every row draws its own ops and parameters,
but the draws and transforms run as array operations over the batch,
not as one call per row.
"""

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .fileio import (FormatError, atomic_write_text, format_document,
                     format_floats, format_ints, parse_floats, parse_ints,
                     read_document, read_text)

DATA_FORMAT = "ssht-data/1"

RING_RADIUS = 3.0
GEOMETRIES = ("gaussian_ring", "two_moons_multi")
STRONG_OPS = ("coordinate_dropout", "jitter", "rotate", "scale")
DEFAULT_STRONG_POOL = ("jitter", "rotate", "scale")

# fraction of each class's angular slot actually covered by its arc in
# the multi-crescent geometry; the rest is the gap between classes
ARC_FILL = 0.8


@dataclass
class DomainShiftSpec:
    num_classes: int = 4
    input_dim: int = 2
    class_geometry: str = "gaussian_ring"
    shift_rotation: float = math.pi / 6
    shift_translation: Tuple[float, ...] = (0.0, 1.75)
    shift_scale: float = 0.85
    source_imbalance_ratio: float = 10.0
    noise_std: float = 1.0

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_dim < 2:
            raise ValueError(f"input_dim must be >= 2, got {self.input_dim}")
        if self.class_geometry not in GEOMETRIES:
            raise ValueError(f"class_geometry must be one of {GEOMETRIES}, "
                             f"got {self.class_geometry!r}")
        if len(self.shift_translation) != self.input_dim:
            raise ValueError("shift_translation length must equal input_dim")
        reals = (self.shift_rotation, self.shift_scale,
                 self.source_imbalance_ratio, self.noise_std,
                 *self.shift_translation)
        if not all(math.isfinite(v) for v in reals):
            raise ValueError("shift, imbalance and noise parameters must be "
                             "finite")
        if self.shift_scale <= 0.0:
            raise ValueError("shift_scale must be positive")
        if self.source_imbalance_ratio < 1.0:
            raise ValueError("source_imbalance_ratio must be >= 1")
        if self.noise_std <= 0.0:
            raise ValueError("noise_std must be positive")


def class_means(spec: DomainShiftSpec) -> np.ndarray:
    """Noiseless class centers of the unshifted geometry, C x input_dim."""
    c = spec.num_classes
    angles = 2.0 * np.pi * np.arange(c) / c
    means = np.zeros((c, spec.input_dim))
    means[:, 0] = RING_RADIUS * np.cos(angles)
    means[:, 1] = RING_RADIUS * np.sin(angles)
    return means


def class_separation(spec: DomainShiftSpec) -> float:
    """Smallest distance between the noiseless geometries of two classes."""
    c = spec.num_classes
    if spec.class_geometry == "gaussian_ring":
        return 2.0 * RING_RADIUS * math.sin(math.pi / c)
    gap = (1.0 - ARC_FILL) * 2.0 * math.pi / c
    return 2.0 * RING_RADIUS * math.sin(gap / 2.0)


def _sample_class_points(spec: DomainShiftSpec, labels: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Unshifted noiseless geometry points for the given class labels."""
    n = labels.shape[0]
    pts = np.zeros((n, spec.input_dim))
    if spec.class_geometry == "gaussian_ring":
        means = class_means(spec)
        pts[:] = means[labels]
    else:
        slot = 2.0 * np.pi / spec.num_classes
        start = labels * slot
        t = start + ARC_FILL * slot * rng.uniform(size=n)
        pts[:, 0] = RING_RADIUS * np.cos(t)
        pts[:, 1] = RING_RADIUS * np.sin(t)
    return pts


def _apply_shift(spec: DomainShiftSpec, pts: np.ndarray) -> np.ndarray:
    out = pts * spec.shift_scale
    cos_r, sin_r = math.cos(spec.shift_rotation), math.sin(spec.shift_rotation)
    x0, x1 = out[:, 0].copy(), out[:, 1].copy()
    out[:, 0] = cos_r * x0 - sin_r * x1
    out[:, 1] = sin_r * x0 + cos_r * x1
    return out + np.asarray(spec.shift_translation)


def _draw(spec: DomainShiftSpec, split: str, labels: np.ndarray,
          shifted: bool, rng: np.random.Generator) -> np.ndarray:
    """The split's samples; a ValueError if finite spec values overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        pts = _sample_class_points(spec, labels, rng)
        if shifted:
            pts = _apply_shift(spec, pts)
        pts = pts + spec.noise_std * rng.normal(size=pts.shape)
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"split {split}: the spec draws non-finite sample "
                         f"values")
    return pts


def _balanced_labels(n: int, c: int) -> np.ndarray:
    """n labels as evenly spread over c classes as possible."""
    per = n // c
    labels = np.repeat(np.arange(c), per)
    return np.concatenate([labels, np.arange(n - per * c)])


@dataclass
class DomainTask:
    spec: DomainShiftSpec
    seed: int
    source_x: np.ndarray
    source_y: np.ndarray
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    _unlabeled_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    source_reads: int = 0
    unlabeled_label_reads: int = 0

    def source(self) -> Tuple[np.ndarray, np.ndarray]:
        """Source split; every call is counted."""
        self.source_reads += 1
        return self.source_x, self.source_y

    def unlabeled_labels(self) -> np.ndarray:
        """Private labels of the unlabeled split; every call is counted."""
        self.unlabeled_label_reads += 1
        return self._unlabeled_y

    @property
    def num_unlabeled(self) -> int:
        return self.unlabeled_x.shape[0]

    def adaptation_view(self) -> "AdaptationView":
        return AdaptationView(spec=self.spec, labeled_x=self.labeled_x,
                              labeled_y=self.labeled_y,
                              unlabeled_x=self.unlabeled_x,
                              test_x=self.test_x, test_y=self.test_y)


@dataclass
class AdaptationView:
    """What the adaptation loop is allowed to see: no source split, no
    unlabeled labels. The fields simply do not exist here."""
    spec: DomainShiftSpec
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def num_unlabeled(self) -> int:
        return self.unlabeled_x.shape[0]


def generate_task(spec: DomainShiftSpec, n_source: int = 2000, shots: int = 3,
                  n_unlabeled: int = 1000, n_test: int = 1000,
                  seed: int = 0) -> DomainTask:
    """Draw all four splits; deterministic per seed.

    Source classes are sampled with weight ratio^(-c/(C-1)) so class 0
    outnumbers class C-1 by the imbalance ratio. Target splits are
    class-balanced draws from the shifted geometry. A spec whose finite
    values make a split's draws overflow raises ValueError naming the
    split.
    """
    spec.validate()
    for name, n in (("n_source", n_source), ("shots", shots),
                    ("n_unlabeled", n_unlabeled), ("n_test", n_test)):
        if n < 1:
            raise ValueError(f"{name} must be positive, got {n}")
    c = spec.num_classes
    n_labeled = shots * c
    if n_unlabeled < 20 * n_labeled:
        raise ValueError(f"n_unlabeled must be >= 20 * shots * C = "
                         f"{20 * n_labeled}, got {n_unlabeled}")

    streams = np.random.SeedSequence(seed).spawn(5)
    rng_source = np.random.default_rng(streams[0])
    rng_labeled = np.random.default_rng(streams[1])
    rng_unlabeled = np.random.default_rng(streams[2])
    rng_test = np.random.default_rng(streams[3])
    rng_shuffle = np.random.default_rng(streams[4])

    weights = spec.source_imbalance_ratio ** (-np.arange(c) / (c - 1))
    weights /= weights.sum()
    source_y = rng_source.choice(c, size=n_source, p=weights)
    source_x = _draw(spec, "source", source_y, shifted=False, rng=rng_source)

    labeled_y = np.repeat(np.arange(c), shots)
    labeled_x = _draw(spec, "labeled", labeled_y, shifted=True,
                      rng=rng_labeled)

    unlabeled_y = _balanced_labels(n_unlabeled, c)
    perm = rng_shuffle.permutation(n_unlabeled)
    unlabeled_y = unlabeled_y[perm]
    unlabeled_x = _draw(spec, "unlabeled", unlabeled_y, shifted=True,
                        rng=rng_unlabeled)

    test_y = _balanced_labels(n_test, c)
    test_x = _draw(spec, "test", test_y, shifted=True, rng=rng_test)

    return DomainTask(spec=spec, seed=seed, source_x=source_x,
                      source_y=source_y, labeled_x=labeled_x,
                      labeled_y=labeled_y, unlabeled_x=unlabeled_x,
                      _unlabeled_y=unlabeled_y, test_x=test_x, test_y=test_y)


@dataclass
class AugmentPolicy:
    weak_noise_std: float
    strong_noise_std: float
    strong_num_ops: int = 2
    strong_pool: Tuple[str, ...] = DEFAULT_STRONG_POOL
    rotate_max: float = math.pi / 12
    scale_range: Tuple[float, float] = (0.9, 1.15)

    def validate(self) -> None:
        if self.weak_noise_std < 0.0 or self.strong_noise_std < 0.0:
            raise ValueError("noise stds must be non-negative")
        if self.strong_noise_std < self.weak_noise_std:
            raise ValueError("strong_noise_std must be >= weak_noise_std")
        if self.strong_num_ops < 1:
            raise ValueError("strong_num_ops must be >= 1")
        bad = set(self.strong_pool) - set(STRONG_OPS)
        if not self.strong_pool or bad:
            raise ValueError(f"strong_pool must be non-empty ops from "
                             f"{STRONG_OPS}, offending: {sorted(bad)}")
        lo, hi = self.scale_range
        if not lo <= 1.0 <= hi:
            raise ValueError(f"scale_range must bracket 1, got {self.scale_range}")


def default_policy(spec: DomainShiftSpec) -> AugmentPolicy:
    sep = class_separation(spec)
    policy = AugmentPolicy(weak_noise_std=0.03 * sep, strong_noise_std=0.15 * sep)
    policy.validate()
    return policy


def weak_augment_batch(xs: np.ndarray, policy: AugmentPolicy,
                       rng: np.random.Generator) -> np.ndarray:
    """Isotropic Gaussian jitter per row."""
    return xs + policy.weak_noise_std * rng.normal(size=xs.shape)


def strong_augment_batch(xs: np.ndarray, policy: AugmentPolicy,
                         rng: np.random.Generator) -> np.ndarray:
    """Compose strong_num_ops transforms per row, each drawn uniformly
    (with replacement) from the pool and applied in the sampled order.

    One draw picks every row's ops. Then, for each op position and each
    pool op in sorted order, the rows that picked it are transformed
    together with one vectorized draw of their parameters. The input is
    not modified.
    """
    out = np.array(xs, dtype=float)
    n, d = out.shape
    pool = sorted(policy.strong_pool)
    picks = rng.integers(0, len(pool), size=(n, policy.strong_num_ops))
    for position in range(policy.strong_num_ops):
        for k, op in enumerate(pool):
            rows = np.flatnonzero(picks[:, position] == k)
            m = rows.size
            if m == 0:
                continue
            if op == "jitter":
                out[rows] += policy.strong_noise_std * rng.normal(size=(m, d))
            elif op == "rotate":
                theta = rng.uniform(-policy.rotate_max, policy.rotate_max,
                                    size=m)
                c, s = np.cos(theta), np.sin(theta)
                x0, x1 = out[rows, 0], out[rows, 1]
                out[rows, 0] = c * x0 - s * x1
                out[rows, 1] = s * x0 + c * x1
            elif op == "scale":
                lo, hi = policy.scale_range
                out[rows] *= rng.uniform(lo, hi, size=m)[:, None]
            else:  # coordinate_dropout
                out[rows, rng.integers(0, d, size=m)] = 0.0
    return out


def sample_batches(view, labeled_batch: int, unlabeled_batch: int,
                   rng: np.random.Generator
                   ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Endless stream of (labeled_x, labeled_y, unlabeled_x) batches.

    Labeled batches resample with replacement (the labeled set is tiny).
    Unlabeled batches partition a fresh permutation each epoch, so one
    epoch of ceil(N_u / unlabeled_batch) steps touches every unlabeled
    sample exactly once.
    """
    n_lab = view.labeled_x.shape[0]
    n_unl = view.unlabeled_x.shape[0]
    if labeled_batch < 1 or labeled_batch > n_lab:
        raise ValueError(f"labeled_batch must be in [1, {n_lab}]")
    if unlabeled_batch < 1 or unlabeled_batch > n_unl:
        raise ValueError(f"unlabeled_batch must be in [1, {n_unl}]")
    while True:
        perm = rng.permutation(n_unl)
        for start in range(0, n_unl, unlabeled_batch):
            chunk = perm[start:start + unlabeled_batch]
            lab_idx = rng.integers(0, n_lab, size=labeled_batch)
            yield (view.labeled_x[lab_idx], view.labeled_y[lab_idx],
                   view.unlabeled_x[chunk])


def steps_per_epoch(n_unlabeled: int, unlabeled_batch: int) -> int:
    return -(-n_unlabeled // unlabeled_batch)


class DataFormatError(FormatError):
    """Raised when a dataset document fails to parse."""


# split name -> key of its labels; the unlabeled split's are private
_LABEL_KEYS = {"source": "y", "labeled": "y", "unlabeled": "private_y",
               "test": "y"}


def serialize_task(task: DomainTask) -> str:
    s = task.spec
    fields = [("meta.seed", task.seed),
              ("spec.num_classes", s.num_classes),
              ("spec.input_dim", s.input_dim),
              ("spec.class_geometry", s.class_geometry),
              ("spec.shift_rotation", repr(float(s.shift_rotation))),
              ("spec.shift_translation", format_floats(s.shift_translation)),
              ("spec.shift_scale", repr(float(s.shift_scale))),
              ("spec.source_imbalance_ratio",
               repr(float(s.source_imbalance_ratio))),
              ("spec.noise_std", repr(float(s.noise_std)))]
    splits = [("source", task.source_x, task.source_y),
              ("labeled", task.labeled_x, task.labeled_y),
              ("unlabeled", task.unlabeled_x, task._unlabeled_y),
              ("test", task.test_x, task.test_y)]
    for name, x, y in splits:
        fields += [(f"split.{name}.count", x.shape[0]),
                   (f"split.{name}.x", format_floats(x)),
                   (f"split.{name}.{_LABEL_KEYS[name]}", format_ints(y))]
    return format_document(DATA_FORMAT, fields)


def save_task(task: DomainTask, path: str) -> None:
    atomic_write_text(path, serialize_task(task))


def deserialize_task(text: str) -> DomainTask:
    kv = read_document(text, DATA_FORMAT, DataFormatError)
    spec = kv.checked(DomainShiftSpec(
        num_classes=kv.parse("spec.num_classes", int),
        input_dim=kv.parse("spec.input_dim", int),
        class_geometry=kv["spec.class_geometry"],
        shift_rotation=kv.parse("spec.shift_rotation", float),
        shift_translation=tuple(
            kv.parse("spec.shift_translation", parse_floats).tolist()),
        shift_scale=kv.parse("spec.shift_scale", float),
        source_imbalance_ratio=kv.parse("spec.source_imbalance_ratio", float),
        noise_std=kv.parse("spec.noise_std", float)))
    seed = kv.parse("meta.seed", int)

    arrays = {}
    for name, ykey in _LABEL_KEYS.items():
        count = kv.parse(f"split.{name}.count", int)
        flat = kv.parse(f"split.{name}.x", parse_floats)
        y = kv.parse(f"split.{name}.{ykey}", parse_ints)
        if flat.size != count * spec.input_dim:
            raise DataFormatError(f"split {name}: {flat.size} values do not "
                                  f"fill {count} x {spec.input_dim}")
        if not np.all(np.isfinite(flat)):
            raise DataFormatError(f"split {name}: non-finite sample values")
        if y.size != count:
            raise DataFormatError(f"split {name}: {y.size} labels for "
                                  f"{count} samples")
        if count > 0 and (y.min() < 0 or y.max() >= spec.num_classes):
            raise DataFormatError(f"split {name}: label outside [0, "
                                  f"{spec.num_classes})")
        arrays[name] = (flat.reshape(count, spec.input_dim), y)

    return DomainTask(spec=spec, seed=seed,
                      source_x=arrays["source"][0], source_y=arrays["source"][1],
                      labeled_x=arrays["labeled"][0], labeled_y=arrays["labeled"][1],
                      unlabeled_x=arrays["unlabeled"][0],
                      _unlabeled_y=arrays["unlabeled"][1],
                      test_x=arrays["test"][0], test_y=arrays["test"][1])


def load_task(path: str) -> DomainTask:
    return deserialize_task(read_text(path))
