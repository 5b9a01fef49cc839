"""Time `pipeline.adapt`, `pipeline.train_source` and the task file
codecs of two `ssht` source trees side by side.

    python scripts/bench_step.py BEFORE_SRC AFTER_SRC

Each argument is a `src` directory (the one holding `ssht/`). The
script loads the `ssht` package of each tree into one process, under
the names `ssht_before` and `ssht_after`, so both run on the same
interpreter, allocator and OpenBLAS threads. The BEFORE tree builds
TASKS tasks (seeds 0..3, the default spec with `--classes` classes,
default 4, and 2000 unlabeled rows past 4 classes, 1000 at 4) and
trains their source models; both trees then read the same task and
model documents. Each round runs, for every row, one run per tree on
task round mod TASKS, which tree goes first alternating by round, and
times each with `time.process_time` (CPU seconds of the process) and
`time.perf_counter` (wall seconds). A row is a method, one adapt of
the source model with that method, or `train_source`, one source
training on the task, both at seed `round`, or `ablate`, one
`run_ablation_suite` of the source model over ABLATE_METHODS x seeds
(round, round + 1), or `io`, one `data.save_task` and then
`data.load_task` of a task of IO_SIZES rows (perfbench's `artifact_io`
task, seed 0), each tree writing its own file.

For each row it prints both trees' median CPU seconds, the
after/before ratio of the medians, in how many rounds the AFTER tree
took less CPU, both trees' median wall seconds, and whether every
result of the AFTER tree equals the BEFORE tree's for the same task
and seed (the model document, every field of each `ablate` cell's
report, its epoch records included, or the `io` row's file bytes and
every array of the task read back); the last line is the same as one
JSON object. `--methods` picks the rows (default: every method, then
`train_source`; `ablate` and `io` run only when named, and `ablate`
needs both trees to return the cells' reports).
`--epochs` shortens source training, every adapt and every grid cell;
without it they run at their library defaults.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import json
import os
import sys
import tempfile
import time

import numpy as np

TASKS = 4
ROUNDS = 32
SOURCE_ROW = "train_source"
ABLATE_ROW = "ablate"
ABLATE_METHODS = ("cdl", "cdl_no_cl", "cdl_no_dl", "s_plus_t")
IO_ROW = "io"
IO_SIZES = {"n_source": 20_000, "n_unlabeled": 10_000, "n_test": 10_000}


def load_package(src: str, name: str):
    """The `ssht` package under `src`, imported afresh as `name`."""
    init = os.path.join(src, "ssht", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"{src}: no ssht package")
    for key in [k for k in sys.modules
                if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("data", "pipeline"):
        setattr(pkg, sub, importlib.import_module(f"{name}.{sub}"))
    return pkg


def clock():
    """CPU and wall seconds so far."""
    return np.array([time.process_time(), time.perf_counter()])


def build_inputs(pkg, epochs, classes=4):
    """(task document, source model document) for each task seed."""
    loop = {} if epochs is None else {"epochs": epochs}
    spec = pkg.data.DomainShiftSpec(num_classes=classes)
    sizes = {"n_unlabeled": 2000} if classes > 4 else {}
    inputs = []
    for seed in range(TASKS):
        task = pkg.data.generate_task(spec, seed=seed, **sizes)
        model = pkg.pipeline.train_source(task, seed=seed, **loop)
        inputs.append((pkg.data.serialize_task(task), model))
    return inputs


def timed(pipeline, row: str, model: str, task, seed: int, loop):
    """CPU and wall seconds and result of one run of row on one tree: a
    model document, or for ABLATE_ROW the cells' reports as tuples,
    which compare across trees where the trees' own RunReport classes
    would not."""
    if row == SOURCE_ROW:
        start = clock()
        result = pipeline.train_source(task, seed=seed, **loop)
    elif row == ABLATE_ROW:
        config = pipeline.AdaptConfig(**loop)
        start = clock()
        cells = pipeline.run_ablation_suite(task, model, config,
                                            ABLATE_METHODS, (seed, seed + 1))
        result = [dataclasses.astuple(r) for r in cells]
    else:
        config = pipeline.AdaptConfig(method=row, seed=seed, **loop)
        start = clock()
        _, result = pipeline.adapt(model, task, config)
    return clock() - start, result


def timed_io(data, task, path: str):
    """CPU and wall seconds of one save_task and load_task of task
    through path, and the result: the file's bytes and every array read
    back."""
    start = clock()
    data.save_task(task, path)
    loaded = data.load_task(path)
    seconds = clock() - start
    with open(path, "rb") as f:
        written = f.read()
    arrays = [(name, a.dtype.str, a.shape, a.tobytes())
              for name, a in vars(loaded).items() if isinstance(a, np.ndarray)]
    return seconds, (written, arrays)


def run(sides, rows, rounds: int, epochs, classes=4):
    """Time every row on both sides ({"before": package, "after":
    package}); a dict of results per row."""
    inputs = build_inputs(sides["before"], epochs, classes)
    loop = {} if epochs is None else {"epochs": epochs}
    tasks = {side: [pkg.data.deserialize_task(text) for text, _ in inputs]
             for side, pkg in sides.items()}
    if IO_ROW in rows:
        data = sides["before"].data
        io_text = data.serialize_task(data.generate_task(
            data.DomainShiftSpec(), seed=0, **IO_SIZES))
        io_tasks = {side: pkg.data.deserialize_task(io_text)
                    for side, pkg in sides.items()}
    times = {row: {side: [] for side in sides} for row in rows}
    identical = {row: True for row in rows}
    with tempfile.TemporaryDirectory() as workdir:
        for r in range(rounds):
            j = r % TASKS
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            for row in rows:
                outputs = {}
                for side in order:
                    if row == IO_ROW:
                        seconds, outputs[side] = timed_io(
                            sides[side].data, io_tasks[side],
                            os.path.join(workdir, f"{side}.txt"))
                    else:
                        seconds, outputs[side] = timed(
                            sides[side].pipeline, row, inputs[j][1],
                            tasks[side][j], r, loop)
                    times[row][side].append(seconds)
                identical[row] &= outputs["before"] == outputs["after"]
    results = {}
    for row in rows:
        # rounds x (cpu, wall)
        before, after = np.array(times[row]["before"]), \
            np.array(times[row]["after"])
        (before_cpu, before_wall), (after_cpu, after_wall) = \
            np.median(before, axis=0), np.median(after, axis=0)
        results[row] = {
            "before_cpu_s": round(before_cpu, 4),
            "after_cpu_s": round(after_cpu, 4),
            "ratio": round(after_cpu / before_cpu, 3),
            "after_wins": int((after[:, 0] < before[:, 0]).sum()),
            "before_wall_s": round(before_wall, 4),
            "after_wall_s": round(after_wall, 4),
            "rounds": rounds,
            "identical": identical[row]}
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before_src")
    parser.add_argument("after_src")
    parser.add_argument("--methods", help="comma-separated rows: methods, "
                        f"{SOURCE_ROW}, {ABLATE_ROW} and {IO_ROW} (default: "
                        f"every method, then {SOURCE_ROW})")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--classes", type=int, default=4)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    sides = {"before": load_package(args.before_src, "ssht_before"),
             "after": load_package(args.after_src, "ssht_after")}
    rows = args.methods.split(",") if args.methods else \
        list(sides["before"].pipeline.METHODS) + [SOURCE_ROW]
    results = run(sides, rows, args.rounds, args.epochs, args.classes)
    for row, r in results.items():
        print(f"{row:12s} before {r['before_cpu_s']:.4f} s  after "
              f"{r['after_cpu_s']:.4f} s  ratio {r['ratio']:.3f}  after "
              f"won {r['after_wins']}/{r['rounds']}  wall "
              f"{r['before_wall_s']:.4f} -> {r['after_wall_s']:.4f} s  "
              f"identical {'yes' if r['identical'] else 'NO'}")
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
