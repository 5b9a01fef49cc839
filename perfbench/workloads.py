"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: `setup` builds the
inputs from the seed, `run` is one timed iteration, and `check` (not
timed) turns the iteration's raw results into an Outcome. Every call
into the program goes through a module attribute (`pipeline.adapt`), so
the tracer's wrappers see it.

Why these four (see README.md for the full table):
  adapt_cdl    the paper's full method; heavy on the Jacobi SVD and on
               per-row strong augmentation
  light_adapt  source training plus s_plus_t and ent adapts: no SVD and
               no strong augmentation, so kernels for those must not
               move it; heavy on the network and evaluation
  ablate_grid  the CLI `ablate` grid over real files: the only
               multi-cell workload, where a parallel grid would show
  artifact_io  large task, model and report round trips: the text
               (de)serializers, under 1% of every other workload
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from ssht import cli, data, fileio, network, pipeline, reports

GRID_METHODS = ("cdl", "cdl_no_cl", "cdl_no_dl", "s_plus_t")
GRID_SEEDS = 2   # grid seeds per task: seed, seed + 1


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, TINY is for tests."""
    tasks: int = 4                       # tasks per run, visited in turn
    adapt_epochs: Optional[int] = None   # None: AdaptConfig's default
    source_epochs: int = 30
    grid_epochs: int = 5
    io_source: int = 20_000
    io_unlabeled: int = 10_000
    io_test: int = 10_000


DEFAULT = Sizes()
TINY = Sizes(tasks=2, adapt_epochs=1, source_epochs=1, grid_epochs=1,
             io_source=300, io_unlabeled=240, io_test=100)


@dataclass
class Outcome:
    """What one iteration did, as the checks saw it."""
    ops: int = 0
    failures: List[str] = field(default_factory=list)
    fingerprint: str = ""
    accs: List[float] = field(default_factory=list)
    minority: List[float] = field(default_factory=list)
    steps: int = 0
    read_bytes: int = 0
    read_s: float = 0.0
    write_bytes: int = 0
    write_s: float = 0.0

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def adapt_steps(n_unlabeled: int, unlabeled_batch: int, epochs: int) -> int:
    return epochs * -(-n_unlabeled // unlabeled_batch)


def source_steps(n_source: int, epochs: int, batch_size: int = 96) -> int:
    n_train = n_source - max(1, n_source // 10)
    return epochs * -(-n_train // min(batch_size, n_train))


def adapt_faults(report, source_read_delta: int, label_reads: int) -> list:
    """What breaks the source-free contract, or aborted, in one adapt."""
    bad = []
    if source_read_delta:
        bad.append(f"source read {source_read_delta} times")
    if label_reads:
        bad.append(f"unlabeled labels read {label_reads} times")
    if report.aborted_epoch is not None:
        bad.append(f"aborted at epoch {report.aborted_epoch}")
    if not math.isfinite(report.final_accuracy):
        bad.append(f"accuracy {report.final_accuracy}")
    return bad


def check_adapt(out: Outcome, label: str, report, task, source_reads: int
                ) -> None:
    """Source-free contract, no abort, finite accuracy; counts one op."""
    out.ops += 1
    bad = adapt_faults(report, task.source_reads - source_reads,
                       task.unlabeled_label_reads)
    if bad:
        out.fail(f"{label}: " + "; ".join(bad))
    out.accs.append(report.final_accuracy)
    out.minority.append(report.per_class_accuracy[-1])
    out.steps += adapt_steps(task.num_unlabeled, report.config.unlabeled_batch,
                             len(report.records))


@contextlib.contextmanager
def watch_adapts():
    """Yield a list that gets, for every `pipeline.adapt` call made in
    this process meanwhile, its method and its `adapt_faults`.

    The task's counters are read just before and after the call, since
    the caller may read the unlabeled labels itself between adapts (the
    ablation grid does, for its diversity column).
    """
    seen = []
    inner = pipeline.adapt

    def adapt(model_text, task, config, *args, **kwargs):
        source0, labels0 = task.source_reads, task.unlabeled_label_reads
        report, adapted = inner(model_text, task, config, *args, **kwargs)
        seen.append((config.method, adapt_faults(
            report, task.source_reads - source0,
            task.unlabeled_label_reads - labels0)))
        return report, adapted

    pipeline.adapt = adapt
    try:
        yield seen
    finally:
        pipeline.adapt = inner


def _adapt_fingerprint(report, model_text: str) -> str:
    return (f"{report.final_accuracy!r} {report.per_class_accuracy!r} "
            f"{len(report.records)} {_sha(model_text)}")


class Workload:
    """A run sets up `sizes.tasks` slots, each one task drawn from the
    seed with what hangs off it, and iteration i uses slot i mod tasks.
    Several tasks per run keep the run's figures from resting on one
    task: accuracy varies a lot from task to task."""
    name = ""

    def __init__(self, seed: int, workdir: str, sizes: Sizes = DEFAULT):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.slots: List[SimpleNamespace] = []

    def setup(self) -> None:
        """Set up the next slot."""
        j = len(self.slots)
        self.slots.append(self._setup(self.sizes.tasks * self.seed + j, j))

    def run(self, i: int):
        return self._run(self.slots[i % len(self.slots)])

    def check(self, raw, i: int) -> Outcome:
        return self._check(self.slots[i % len(self.slots)], raw)

    def _config(self, method: str, seed: int) -> pipeline.AdaptConfig:
        cfg = pipeline.AdaptConfig(method=method, seed=seed)
        if self.sizes.adapt_epochs is not None:
            cfg.epochs = self.sizes.adapt_epochs
        return cfg

    def _path(self, leaf: str) -> str:
        return os.path.join(self.workdir, leaf)

    def _setup(self, seed: int, j: int) -> SimpleNamespace:
        raise NotImplementedError

    def _run(self, slot: SimpleNamespace):
        raise NotImplementedError

    def _check(self, slot: SimpleNamespace, raw) -> Outcome:
        raise NotImplementedError


class AdaptCdl(Workload):
    """One `pipeline.adapt` with method cdl and the default config."""
    name = "adapt_cdl"

    def _setup(self, seed, j):
        task = data.generate_task(data.DomainShiftSpec(), seed=seed)
        model_text = pipeline.train_source(
            task, epochs=self.sizes.source_epochs, seed=seed)
        return SimpleNamespace(task=task, model_text=model_text,
                               source_reads=task.source_reads,
                               config=self._config("cdl", seed))

    def _run(self, slot):
        return pipeline.adapt(slot.model_text, slot.task, slot.config)

    def _check(self, slot, raw):
        report, adapted = raw
        out = Outcome(fingerprint=_adapt_fingerprint(report, adapted))
        check_adapt(out, "cdl", report, slot.task, slot.source_reads)
        return out


class LightAdapt(Workload):
    """`pipeline.train_source`, then s_plus_t and ent adapts of that model."""
    name = "light_adapt"
    methods = ("s_plus_t", "ent")

    def _setup(self, seed, j):
        return SimpleNamespace(
            seed=seed, task=data.generate_task(data.DomainShiftSpec(), seed=seed),
            configs=[self._config(m, seed) for m in self.methods])

    def _run(self, slot):
        reads_before = slot.task.source_reads
        model_text = pipeline.train_source(
            slot.task, epochs=self.sizes.source_epochs, seed=slot.seed)
        reads_after_training = slot.task.source_reads
        runs = [pipeline.adapt(model_text, slot.task, cfg)
                for cfg in slot.configs]
        return reads_before, reads_after_training, model_text, runs

    def _check(self, slot, raw):
        reads_before, reads_after_training, model_text, runs = raw
        out = Outcome(ops=1, fingerprint=_sha(model_text))
        out.steps = source_steps(slot.task.source_x.shape[0],
                                 self.sizes.source_epochs)
        if reads_after_training != reads_before + 1:
            out.fail(f"train_source read the source split "
                     f"{reads_after_training - reads_before} times")
        for method, (report, adapted) in zip(self.methods, runs):
            check_adapt(out, method, report, slot.task, reads_after_training)
            out.fingerprint += " " + _adapt_fingerprint(report, adapted)
        return out


class AblateGrid(Workload):
    """`cli.main(["ablate", ...])` over the four default methods and two
    seeds, on task and model files written by the CLI during set-up."""
    name = "ablate_grid"

    def _setup(self, seed, j):
        task, model = self._path(f"task-{j}.txt"), self._path(f"model-{j}.txt")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["gen-data", "--seed", str(seed), "--out", task]),
                cli.main(["train-source", "--data", task, "--seed", str(seed),
                          "--epochs", str(self.sizes.source_epochs),
                          "--out", model])]
        if codes != [0, 0]:
            raise RuntimeError(f"set-up CLI calls exited with {codes}")
        seeds = [seed + k for k in range(GRID_SEEDS)]
        csv_path = self._path(f"grid-{j}.csv")
        argv = ["ablate", "--model", model, "--data", task,
                "--methods", ",".join(GRID_METHODS),
                "--seeds", ",".join(str(s) for s in seeds),
                "--epochs", str(self.sizes.grid_epochs), "--out", csv_path]
        return SimpleNamespace(argv=argv, seeds=seeds, csv_path=csv_path,
                               n_unlabeled=data.load_task(task).num_unlabeled)

    def _run(self, slot):
        with contextlib.redirect_stdout(io.StringIO()), \
                watch_adapts() as adapts:
            return cli.main(slot.argv), adapts

    def _check(self, slot, raw):
        code, adapts = raw
        with open(slot.csv_path) as f:
            text = f.read()
        rows = list(csv.reader(io.StringIO(text)))
        cells = rows[1:1 + len(GRID_METHODS) * len(slot.seeds)]
        # One op per cell, plus the CSV document itself.
        out = Outcome(ops=1 + len(cells), fingerprint=_sha(text))
        if code != 0:
            out.fail(f"ablate exited with {code}")
        # Cells run in other processes would escape this check.
        for method, bad in adapts:
            if bad:
                out.fail(f"{method}: " + "; ".join(bad))
        if [(r[0], int(r[1])) for r in cells] != \
                [(m, s) for m in GRID_METHODS for s in slot.seeds]:
            out.fail("grid rows do not match the methods x seeds asked for")
        unlabeled_batch = pipeline.AdaptConfig().unlabeled_batch
        for method, seed, acc, _div, minority, error in cells:
            if error or not math.isfinite(float(acc)):
                out.fail(f"cell {method}/{seed}: {error or acc}")
                continue
            out.accs.append(float(acc))
            out.minority.append(float(minority))
            out.steps += adapt_steps(slot.n_unlabeled, unlabeled_batch,
                                     self.sizes.grid_epochs)
        return out


class ArtifactIo(Workload):
    """Write then read a large task, an adapted model and its run report."""
    name = "artifact_io"

    def _setup(self, seed, j):
        spec = data.DomainShiftSpec()
        small = data.generate_task(spec, seed=seed)
        model_text = pipeline.train_source(
            small, epochs=self.sizes.source_epochs, seed=seed)
        report, adapted = pipeline.adapt(model_text, small,
                                         self._config("s_plus_t", seed))
        net = network.deserialize(adapted)
        task = data.generate_task(
            spec, n_source=self.sizes.io_source,
            n_unlabeled=self.sizes.io_unlabeled, n_test=self.sizes.io_test,
            seed=seed)
        return SimpleNamespace(
            task=task, net=net, report=report,
            task_text=data.serialize_task(task),
            model_text=network.serialize(net),
            report_text=reports.serialize_report(report))

    def _run(self, slot):
        perf = time.perf_counter
        t0 = perf()
        data.save_task(slot.task, self._path("task.txt"))
        fileio.atomic_write_text(self._path("model.txt"),
                                 network.serialize(slot.net))
        reports.write_report(slot.report, self._path("report.txt"))
        t1 = perf()
        task = data.load_task(self._path("task.txt"))
        net = network.deserialize(fileio.read_text(self._path("model.txt")))
        report = reports.read_report(self._path("report.txt"))
        t2 = perf()
        return task, net, report, t1 - t0, t2 - t1

    def _check(self, slot, raw):
        task, net, report, write_s, read_s = raw
        out = Outcome(ops=3, write_s=write_s, read_s=read_s)
        sizes = {leaf: os.path.getsize(self._path(leaf)) for leaf in
                 ("task.txt", "model.txt", "report.txt", "report.txt.csv")}
        out.write_bytes = sum(sizes.values())
        out.read_bytes = out.write_bytes - sizes["report.txt.csv"]

        orig = slot.task
        same_arrays = all(np.array_equal(a, b) for a, b in (
            (task.source_x, orig.source_x), (task.source_y, orig.source_y),
            (task.labeled_x, orig.labeled_x), (task.labeled_y, orig.labeled_y),
            (task.unlabeled_x, orig.unlabeled_x),
            (task.unlabeled_labels(), orig._unlabeled_y),
            (task.test_x, orig.test_x), (task.test_y, orig.test_y)))
        if not same_arrays or task.spec != orig.spec or task.seed != orig.seed:
            out.fail("task: loaded arrays differ from the saved ones")
        elif not self._file_is("task.txt", slot.task_text) or \
                data.serialize_task(task) != slot.task_text:
            out.fail("task: round trip is not byte-identical")

        if len(net.params) != len(slot.net.params) or not all(
                np.array_equal(a, b) for a, b in zip(net.params, slot.net.params)):
            out.fail("model: loaded parameters differ from the saved ones")
        elif not self._file_is("model.txt", slot.model_text) or \
                network.serialize(net) != slot.model_text:
            out.fail("model: round trip is not byte-identical")

        if report.final_accuracy != slot.report.final_accuracy or \
                report.records != slot.report.records:
            out.fail("report: loaded fields differ from the saved ones")
        elif not self._file_is("report.txt", slot.report_text) or \
                reports.serialize_report(report) != slot.report_text:
            out.fail("report: round trip is not byte-identical")

        result = pipeline.evaluate(net, task.test_x, task.test_y)
        out.accs.append(result.accuracy)
        out.minority.append(float(result.per_class_accuracy[-1]))
        out.fingerprint = (f"{result.accuracy!r} "
                           f"{result.per_class_accuracy.tolist()!r}")
        return out

    def _file_is(self, leaf: str, text: str) -> bool:
        with open(self._path(leaf)) as f:
            return f.read() == text


WORKLOADS = {w.name: w for w in (AdaptCdl, LightAdapt, AblateGrid, ArtifactIo)}
