"""Spans around the public functions of each ssht module.

The tracer replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, iteration)
and, for a few functions, a count taken from the arguments or result.
A wrapper must sit at every place a caller looks the function up: the
defining module, and every module that bound the function by name
(`losses` binds `nuclear_norm`; `data`, `reports` and `cli` bind
`atomic_write_text` and `read_text`). Callers that go through a module
attribute (`network.forward`) see the wrapper automatically.

Spans are kept in compact arrays in memory; `write_spans` puts them on
disk once the run is over. Nothing here changes arguments or results.
"""

import functools
import importlib
import inspect
import resource
import time
from array import array
from collections import defaultdict
from typing import Dict, List

import stats

LAYERS = ("data", "network", "losses", "linalg", "metrics", "pipeline",
          "reports", "fileio", "cli")

# Spans that also record process CPU seconds (self plus waited children).
CPU_SPANS = frozenset({"pipeline.run_ablation_suite"})


def layer_modules() -> Dict[str, object]:
    """Layer name -> the imported `ssht.<layer>` module."""
    return {name: importlib.import_module(f"ssht.{name}") for name in LAYERS}


def cpu_now() -> float:
    """CPU seconds of this process (all threads) and its waited children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _svd_input(tracer, args, kwargs, result):
    import numpy as np
    a = np.asarray(_arg(args, kwargs, 0, "a"), dtype=np.float64)
    tracer.svd_inputs[tracer.iteration].add((a.shape, hash(a.tobytes())))


# Counts taken at the layer boundary: span name -> observer(tracer, args,
# kwargs, result). An observer that fails is counted, never raised, so a
# later signature change cannot alter the traced program.
OBSERVERS = {
    "network.forward": lambda t, a, k, r: t.count(
        "network.forward.rows", len(_arg(a, k, 1, "x_batch"))),
    "data.strong_augment_batch": lambda t, a, k, r: t.count(
        "data.strong_augment_batch.rows", len(_arg(a, k, 0, "xs"))),
    "fileio.atomic_write_text": lambda t, a, k, r: t.count(
        "fileio.atomic_write_text.bytes",
        len(_arg(a, k, 1, "text").encode())),
    "fileio.read_text": lambda t, a, k, r: t.count(
        "fileio.read_text.bytes", len(r.encode())),
    "linalg.svd": _svd_input,
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_index: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.iters = array("i")
        self.cpu: Dict[int, float] = {}
        self.counts: Dict[tuple, float] = defaultdict(float)
        self.svd_inputs: Dict[int, set] = defaultdict(set)
        self.observer_errors = 0
        self.originals: Dict[str, object] = {}
        self.active = False
        self.iteration = -1
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    def count(self, key: str, n: float) -> None:
        self.counts[(self.iteration, key)] += n

    def _name_id(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        with_cpu = name in CPU_SPANS
        starts, ends, parents = self.starts, self.ends, self.parents
        iters, name_ids, stack = self.iters, self.name_ids, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            iters.append(self.iteration)
            ends.append(0.0)
            stack.append(idx)
            c0 = cpu_now() if with_cpu else 0.0
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
                if with_cpu:
                    self.cpu[idx] = cpu_now() - c0
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except Exception:  # noqa: BLE001 - tracing must stay transparent
                    self.observer_errors += 1
            return result

        return wrapper

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every public function defined in `modules` (layer name ->
        module) and rebind it wherever one of them holds a reference to
        it."""
        replacements = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                replacements[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent
        index, iteration."""
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\titeration\n")
            for i in range(len(self.starts)):
                f.write(f"{self.names[self.name_ids[i]]}\t{self.starts[i]!r}\t"
                        f"{self.ends[i]!r}\t{self.parents[i]}\t"
                        f"{self.iters[i]}\n")


# Per-layer metrics, every one a value per traced iteration (medians over
# iterations for times; counts are exact when iterations repeat).
CALL_METRICS = ("linalg.svd", "linalg.nuclear_norm",
                "linalg.nuclear_norm_subgradient", "data.strong_augment",
                "network.forward", "network.backward", "network.deserialize",
                "metrics.aggregate_diversity", "pipeline.evaluate",
                "pipeline.adapt")
SELF_METRICS = ("linalg.svd", "data.strong_augment", "data.strong_augment_batch",
                "data.weak_augment_batch", "data.save_task", "data.load_task",
                "data.serialize_task", "data.deserialize_task",
                "network.forward", "network.backward", "network.sgd_step",
                "network.serialize", "network.deserialize",
                "losses.diversity_loss", "losses.classification_loss",
                "losses.consistency_loss", "losses.entropy_loss",
                "losses.total_loss", "metrics.aggregate_diversity",
                "pipeline.evaluate", "pipeline.train_source", "pipeline.adapt",
                "reports.write_report", "reports.read_report",
                "reports.serialize_report", "reports.deserialize_report",
                "fileio.atomic_write_text", "fileio.read_text", "cli.main")


def metric_specs() -> Dict[str, tuple]:
    """Name -> (unit, better) of every per-layer metric, in report order."""
    specs = {}
    for layer in LAYERS:
        specs[f"{layer}.self_s"] = ("s", "lower")
    for name in CALL_METRICS:
        specs[f"{name}.calls"] = ("count", "lower")
    for name in SELF_METRICS:
        specs[f"{name}.self_s"] = ("s", "lower")
    specs.update({
        "linalg.svd.call_s": ("s", "lower"),
        "linalg.svd.call_tail_s": ("s", "lower"),
        "linalg.svd.distinct_ratio": ("ratio", "higher"),
        "data.strong_augment.calls_per_row": ("ratio", "lower"),
        "network.forward.rows": ("count", "lower"),
        "network.deserialize.calls_per_adapt": ("ratio", "lower"),
        "losses.clamp_events": ("count", "lower"),
        "pipeline.adapt.steps": ("count", "higher"),
        "pipeline.run_ablation_suite.cpu_util": ("ratio", "higher"),
        "fileio.atomic_write_text.bytes": ("bytes", "lower"),
        "fileio.read_text.bytes": ("bytes", "lower"),
        "trace.spans": ("count", "lower"),
        "trace.overhead": ("ratio", "lower"),
    })
    return specs


def _ancestor_named(parents, name_ids, idx: int, target: int) -> bool:
    p = parents[idx]
    while p >= 0:
        if name_ids[p] == target:
            return True
        p = parents[p]
    return False


def summarize(tracer: Tracer, iterations: List[int], nproc: int,
              clamp_events: Dict[int, float],
              overhead: float) -> Dict[str, float]:
    """Per-layer metric values from the spans of `iterations`."""
    wanted = set(iterations)
    selfs = stats.self_times(tracer.starts, tracer.ends, tracer.parents)
    self_by = defaultdict(float)    # (iteration, name) -> self seconds
    calls_by = defaultdict(int)     # (iteration, name) -> calls
    spans_by = defaultdict(int)     # iteration -> spans
    svd_call_s: List[float] = []
    cpu_utils: List[float] = []
    steps_by = defaultdict(int)
    adapt_id = tracer.name_index.get("pipeline.adapt", -2)
    step_id = tracer.name_index.get("network.sgd_step", -2)
    for i in range(len(tracer.starts)):
        it = tracer.iters[i]
        if it not in wanted:
            continue
        name = tracer.names[tracer.name_ids[i]]
        self_by[(it, name)] += selfs[i]
        calls_by[(it, name)] += 1
        spans_by[it] += 1
        if name == "linalg.svd":
            svd_call_s.append(tracer.ends[i] - tracer.starts[i])
        if i in tracer.cpu and tracer.ends[i] > tracer.starts[i]:
            cpu_utils.append(stats.cpu_util(
                tracer.cpu[i], tracer.ends[i] - tracer.starts[i], nproc))
        if tracer.name_ids[i] == step_id and _ancestor_named(
                tracer.parents, tracer.name_ids, i, adapt_id):
            steps_by[it] += 1

    def per_iter(fn) -> float:
        return stats.median([fn(it) for it in iterations])

    def counted(key: str):
        return lambda it: tracer.counts.get((it, key), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = per_iter(lambda it: sum(
            v for (i2, n), v in self_by.items()
            if i2 == it and n.startswith(prefix)))
    for name in CALL_METRICS:
        out[f"{name}.calls"] = per_iter(lambda it: calls_by[(it, name)])
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = per_iter(lambda it: self_by[(it, name)])

    svd_tail = stats.tail_percentile(svd_call_s) if svd_call_s else None
    out["linalg.svd.call_s"] = stats.median(svd_call_s) if svd_call_s else 0.0
    out["linalg.svd.call_tail_s"] = svd_tail[1] if svd_tail else (
        max(svd_call_s) if svd_call_s else 0.0)
    out["linalg.svd.distinct_ratio"] = per_iter(lambda it: ratio(
        len(tracer.svd_inputs.get(it, ())), calls_by[(it, "linalg.svd")]))
    out["data.strong_augment.calls_per_row"] = per_iter(lambda it: ratio(
        calls_by[(it, "data.strong_augment")],
        counted("data.strong_augment_batch.rows")(it)))
    out["network.forward.rows"] = per_iter(counted("network.forward.rows"))
    out["network.deserialize.calls_per_adapt"] = per_iter(lambda it: ratio(
        calls_by[(it, "network.deserialize")], calls_by[(it, "pipeline.adapt")]))
    out["losses.clamp_events"] = per_iter(lambda it: clamp_events.get(it, 0.0))
    out["pipeline.adapt.steps"] = per_iter(lambda it: steps_by[it])
    out["pipeline.run_ablation_suite.cpu_util"] = \
        stats.median(cpu_utils) if cpu_utils else 0.0
    out["fileio.atomic_write_text.bytes"] = per_iter(
        counted("fileio.atomic_write_text.bytes"))
    out["fileio.read_text.bytes"] = per_iter(counted("fileio.read_text.bytes"))
    out["trace.spans"] = per_iter(lambda it: spans_by[it])
    out["trace.overhead"] = overhead
    return out

