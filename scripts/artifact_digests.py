"""Print a sha256 digest of every artifact the CLI writes for some seeds.

For each seed it runs, in a temporary directory:

  gen-data      the task file
  train-source  the source model
  adapt         every method, plus cdl with --freeze-classifier and
                cdl with --lr 1e308 (a run that aborts in its first
                epoch and rolls back): the adapted model, the report
                and its CSV sidecar
  ablate        the default method grid over that one seed; the same
                grid with --lr 1e308 (every cell aborts in its first
                epoch, so each row's diversity column is empty), saved
                as ablate_aborted.csv; and with --lambda-d 1e308 (the
                cells of the methods with a diversity term abort and
                the others complete, so the summary holds methods with
                and without cells), saved as ablate_mixed.csv
  gradcheck     its stdout, with --seed N, saved as gradcheck.out
  wide_*        the widest task (data.MAX_CLASSES classes, default
                counts), its source model, and its cdl adapt: the
                adapted model, the report and its CSV sidecar

and prints one `<sha256>  seed<N>/<file>` line per file, in a fixed
order. Two trees that print the same lines wrote byte-identical
artifacts and the same gradient-check report, so a change that claims
to alter no output can be checked by diffing this script's output on
both:

  PYTHONPATH=src python scripts/artifact_digests.py --seeds 0,1,2

`--epochs` shortens train-source, adapt and ablate; without it every
command runs at its own default (gradcheck has no epochs). The script
imports `ssht` from wherever PYTHONPATH points and names that location
on stderr.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from ssht import cli


def _run(argv) -> str:
    """The command's stdout; SystemExit unless it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"ssht {' '.join(argv)} exited {rc}")
    return out.getvalue()


def _seed_artifacts(seed: int, epochs, root: str):
    """Run every command for one seed; yield the paths written, in order."""
    loop = [] if epochs is None else ["--epochs", str(epochs)]
    d = os.path.join(root, f"seed{seed}")
    os.mkdir(d)

    def source(prefix: str, flags):
        task = os.path.join(d, f"{prefix}task.txt")
        model = os.path.join(d, f"{prefix}source.txt")
        _run(["gen-data", "--seed", str(seed), "--out", task] + flags)
        _run(["train-source", "--data", task, "--seed", str(seed),
              "--out", model] + loop)
        return task, model

    def adapt(task: str, model: str, name: str, method: str, extra):
        adapted = os.path.join(d, f"{name}.model.txt")
        report = os.path.join(d, f"{name}.report.txt")
        _run(["adapt", "--model", model, "--data", task, "--method", method,
              "--seed", str(seed), "--out-model", adapted, "--report", report]
             + loop + extra)
        return adapted, report, report + ".csv"

    task, model = source("", [])
    yield from (task, model)
    runs = [(m, m, []) for m in cli.pipeline.METHODS] + \
        [("cdl_frozen", "cdl", ["--freeze-classifier"]),
         ("cdl_aborted", "cdl", ["--lr", "1e308"])]
    for name, method, extra in runs:
        yield from adapt(task, model, name, method, extra)
    for name, extra in (("ablate", []), ("ablate_aborted", ["--lr", "1e308"]),
                        ("ablate_mixed", ["--lambda-d", "1e308"])):
        grid = os.path.join(d, f"{name}.csv")
        _run(["ablate", "--model", model, "--data", task, "--seeds",
              str(seed), "--out", grid] + loop + extra)
        yield grid
    checks = os.path.join(d, "gradcheck.out")
    with open(checks, "w") as f:
        f.write(_run(["gradcheck", "--seed", str(seed)]))
    yield checks
    task, model = source("wide_", ["--classes", str(cli.data.MAX_CLASSES)])
    yield from (task, model)
    yield from adapt(task, model, "wide_cdl", "cdl", [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0",
                        help="comma-separated integer seeds")
    parser.add_argument("--epochs", type=int, default=None,
                        help="epochs for train-source, adapt and ablate")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    print(f"ssht from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as root:
        for seed in seeds:
            for path in _seed_artifacts(seed, args.epochs, root):
                with open(path, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                print(f"{digest}  {os.path.relpath(path, root)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
