"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload adapt_cdl --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program under test is imported
from `src/ssht` of that checkout and from nowhere else. Set-up builds
several tasks from the seed, each timed; setup_s is the median time a
fresh interpreter takes to import the program plus the median per task.
Then iterations run back to back (one caller, the next starts when the
previous returns), visiting the tasks in turn, until `--seconds` have
passed and every task has run. Every iteration's outputs are checked,
and must be identical to those of the first iteration on the same task.

With --trace 1, rounds of one iteration per task alternate between
untraced and traced (the wrappers stay installed but record only when
active), for at least two rounds. Comparing the two gives the tracing
overhead under the same host conditions, and since each traced
iteration's outputs must match the untraced ones on the same task, it
also shows that the wrappers do not change the program.

Prints a table for people, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A fuller record,
with provenance, goes to .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

import stats
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


# name -> (unit, gated); the gated ones are BENCHMARK.json's end_to_end
# metrics, defined on every workload. The others do not apply to every
# workload (no optimizer steps in artifact_io, no timed file IO in the
# adapt workloads) or are 0 on correct code, so they are reported only.
END_TO_END = {
    "setup_s": ("s", True),
    "wall_s": ("s", True),
    "cpu_s": ("s", True),
    "peak_rss_mb": ("MB", True),
    "final_acc": ("fraction", True),
    "minority_recall": ("fraction", True),
    "steps_per_s": ("1/s", False),
    "fail_ratio": ("ratio", False),
    "read_mb_per_s": ("MB/s", False),
    "write_mb_per_s": ("MB/s", False),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Import ssht from this checkout's src/ and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ssht", "__init__.py")):
        raise ImportError(f"no program source at {SRC}/ssht")
    sys.path.insert(0, SRC)
    import ssht.cli  # noqa: F401  (pulls in every layer and numpy)
    if not os.path.abspath(ssht.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ssht was imported from {ssht.cli.__file__}")


IMPORT_PROBES = 5
_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "t = time.perf_counter(); import ssht.cli; "
          "print(time.perf_counter() - t)")


def probe_imports(n: int = IMPORT_PROBES) -> list:
    """Seconds a fresh interpreter takes to import the program, n times.

    One import in this process would be a single noisy sample, so the
    import part of setup_s is the median of these. Run them after peak
    RSS is read, so that these children do not count in it.
    """
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", _PROBE, SRC],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def git_sha(root: str) -> str:
    """HEAD's commit if the checkout is a git repository, else 'unknown'.

    The search for a repository stops at the checkout's root, so a
    checkout inside some other repository does not report that one's.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"git_sha": git_sha(ROOT),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    waited-for child (Linux reports both in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Loop:
    """Runs iterations, checks them, and keeps per-iteration figures."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        # read around traced iterations; None if the program lacks it
        self.clamp_count = tracer.originals.get("losses.clamp_count") \
            if tracer else None
        self.walls = {False: [], True: []}   # traced? -> wall seconds
        self.cpus = {False: [], True: []}    # traced? -> CPU seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.references = {}   # task slot -> first iteration's fingerprint
        self.outcomes = []
        self.clamp_events = {}
        self.traced_iterations = []

    def _fail(self, n: int, what: str) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(what)

    def iterate(self, traced: bool) -> None:
        index = len(self.walls[False]) + len(self.walls[True])
        slot = index % len(self.workload.slots)
        if traced:
            self.tracer.iteration = index
            self.tracer.active = True
            self.traced_iterations.append(index)
            clamps0 = self.clamp_count() if self.clamp_count else 0
        try:
            c0 = tracing.cpu_now()
            t0 = time.perf_counter()
            raw = self.workload.run(index)
            wall = time.perf_counter() - t0
            cpu = tracing.cpu_now() - c0
        except Exception as e:  # noqa: BLE001 - a failed iteration is a result
            self.attempted += 1
            self._fail(1, f"iteration {index}: {type(e).__name__}: {e}")
            self.walls[traced].append(float("nan"))
            return
        finally:
            if traced:
                self.tracer.active = False
        if traced and self.clamp_count:
            self.clamp_events[index] = self.clamp_count() - clamps0
        self.walls[traced].append(wall)
        self.cpus[traced].append(cpu)
        try:
            out = self.workload.check(raw, index)
        except Exception as e:  # noqa: BLE001 - a failed check is a result
            self.attempted += 1
            self._fail(1, f"check {index}: {type(e).__name__}: {e}")
            return
        self.attempted += out.ops
        failed = list(out.failures)
        reference = self.references.setdefault(slot, out.fingerprint)
        if out.fingerprint != reference:
            failed.append(f"outputs differ from the first iteration's on "
                          f"task {slot}{' (traced)' if traced else ''}")
        if failed:
            self._fail(min(len(failed), out.ops), f"iteration {index}: "
                       + "; ".join(failed))
        self.outcomes.append((slot, out))


def _mean(values) -> float:
    return sum(values) / len(values) if values else float("nan")


def end_to_end(loop: Loop, setup_s: float, rss_mb: float) -> dict:
    walls = [w for w in loop.walls[False] if w == w]
    outs = [out for _, out in loop.outcomes]
    per_task = {}   # slot -> (accuracy, minority recall) of its first visit
    for slot, out in loop.outcomes:
        if out.accs and slot not in per_task:
            per_task[slot] = (sum(out.accs) / len(out.accs),
                              sum(out.minority) / len(out.minority))
    wall = stats.median(walls) if walls else float("nan")
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": stats.median(loop.cpus[False]) if loop.cpus[False]
        else float("nan"),
        "peak_rss_mb": rss_mb,
        "final_acc": _mean([acc for acc, _ in per_task.values()]),
        "minority_recall": _mean([rec for _, rec in per_task.values()]),
        "fail_ratio": stats.fail_ratio(loop.failed, loop.attempted),
    }
    steps = [o.steps for o in outs if o.steps]
    if steps:
        values["steps_per_s"] = stats.median(steps) / wall
    if any(o.read_s for o in outs):
        values["read_mb_per_s"] = stats.median(
            [o.read_bytes / o.read_s / 1e6 for o in outs if o.read_s])
        values["write_mb_per_s"] = stats.median(
            [o.write_bytes / o.write_s / 1e6 for o in outs if o.write_s])
    return values


def main(argv=None, sizes=None) -> int:
    """Run the benchmark; `sizes` (a workloads.Sizes) shrinks it for tests."""
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    import workloads  # imports the program, so only after import_program

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workdir, sizes or workloads.DEFAULT)
        setup_times = []
        for _ in range(workload.sizes.tasks):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(tracing.layer_modules())
        loop = Loop(workload, tracer)
        try:
            start = time.perf_counter()
            tasks = workload.sizes.tasks
            min_iterations = tasks * (2 if args.trace else 1)
            i = 0
            while i < min_iterations or \
                    time.perf_counter() - start < args.seconds:
                loop.iterate(bool(args.trace) and (i // tasks) % 2 == 1)
                i += 1
        finally:
            if tracer:
                tracer.uninstall()

    rss_mb = peak_rss_mb()
    import_times = probe_imports()
    setup_s = stats.median(import_times) + stats.median(setup_times)
    e2e = end_to_end(loop, setup_s, rss_mb)
    prov = provenance(args)
    walls = [w for w in loop.walls[False] if w == w]
    tail = stats.tail_percentile(walls)
    lines = [f"perfbench {args.workload} seed {args.seed}: "
             f"{len(walls)} untraced iterations"
             + (f", {len(loop.walls[True])} traced" if args.trace else ""),
             "provenance " + json.dumps(prov, sort_keys=True)]
    for name, (unit, gated) in END_TO_END.items():
        shown = f"{e2e[name]:.6g}" if name in e2e else "n/a"
        lines.append(f"  {name:16s} {shown:>12s} {unit:9s}"
                     f"{'' if gated else ' (reported, not gated)'}")
    lines.append(f"  wall_s samples {len(walls)}; tail " + (
        f"p{tail[0]:g} {tail[2]} beyond = {tail[1]:.6g} s" if tail
        else "n/a (fewer than 20 samples)"))
    for what in loop.failures:
        lines.append(f"  FAILED {what}")

    record = {"provenance": prov, "end_to_end": e2e,
              "wall_samples": len(walls), "wall_tail": tail,
              "walls_s": loop.walls[False], "traced_walls_s": loop.walls[True],
              "setup_times_s": setup_times, "import_times_s": import_times,
              "attempted": loop.attempted, "failed": loop.failed,
              "failures": loop.failures}
    if args.trace:
        traced = [w for w in loop.walls[True] if w == w]
        overhead = stats.median(traced) / e2e["wall_s"] - 1.0 \
            if traced and walls else float("nan")
        layer = tracing.summarize(tracer, loop.traced_iterations,
                                  prov["nproc"], loop.clamp_events, overhead)
        units = {k: unit for k, (unit, _) in tracing.metric_specs().items()}
        metrics_out = {k: {"value": layer[k], "unit": units[k]} for k in units}
        record["per_layer"] = layer
        record["observer_errors"] = tracer.observer_errors
        lines.append(f"  per-layer, median per traced iteration "
                     f"({len(traced)} iterations):")
        for k in units:
            lines.append(f"    {k:44s} {layer[k]:14.6g} {units[k]}")
        # one file per workload, overwritten, so repeated runs stay small
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.tsv"))
    else:
        metrics_out = {k: {"value": e2e[k], "unit": unit}
                       for k, (unit, gated) in END_TO_END.items() if gated}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    values = [m["value"] for m in metrics_out.values()]
    correct = loop.failed == 0 and loop.attempted > 0 and \
        all(v == v for v in values)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": max(loop.attempted, 1),
                      "failed": loop.failed if loop.attempted else 1,
                      "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
