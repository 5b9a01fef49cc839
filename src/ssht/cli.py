"""Command-line surface.

Subcommands: gen-data, train-source, adapt, evaluate, ablate,
gradcheck, version. Exit codes: 0 success, 1 runtime or file error,
2 usage error (argparse), 3 gradient-check failure. An output path in
a missing directory, or one that names a directory, fails a command
before it starts any work, as do two output flags that would write the
same file (after os.path.realpath, a report's CSV sidecar included).
An output may name an input file, which is read first.

A flag that sets a library setting has no default of its own: its
destination is the name of that setting, it is absent from the parsed
arguments unless given, and each command passes on only the flags
given, so the library's defaults apply to the rest.
"""

import argparse
import csv
import inspect
import io
import math
import os
import sys
from dataclasses import replace

from . import __version__, data, gradcheck, network, pipeline, reports
from .fileio import atomic_write_text, read_text
from .linalg import NumericalError


class _Output(str):
    """The type of an output flag's path, which main checks up front."""
    suffixes = ("",)  # of the files written at the path


class _Report(_Output):
    suffixes = ("", ".csv")  # the report and its CSV sidecar


def _given(args, target) -> dict:
    """The parsed flags that name a parameter of `target` (a wrapper of
    a function must keep its signature, as functools.wraps does)."""
    names = inspect.signature(target).parameters
    return {k: v for k, v in vars(args).items() if k in names}


def _parse_list(flag: str, text: str, kind, what: str) -> list:
    """A comma-separated flag value as a list of kind; a ValueError that
    names the flag if an item does not convert."""
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated {what}, "
                         f"got {text!r}") from None


def _check_seed(flag: str, seed: int) -> None:
    if seed < 0:
        raise ValueError(f"{flag} must be non-negative, got {seed}")


def _distinct(flag: str, values: list) -> list:
    """values, or a ValueError that names the first one repeated."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{flag} repeats {v}")
    return values


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, dest="num_classes",
                   metavar="CLASSES")
    p.add_argument("--input-dim", type=int)
    p.add_argument("--geometry", choices=data.GEOMETRIES,
                   dest="class_geometry")
    p.add_argument("--rotation-deg", type=float,
                   help="target rotation shift in degrees")
    p.add_argument("--translation",
                   help="comma-separated target translation shift")
    p.add_argument("--scale", type=float, dest="shift_scale", metavar="SCALE")
    p.add_argument("--imbalance", type=float, dest="source_imbalance_ratio",
                   metavar="IMBALANCE",
                   help="source majority:minority class ratio")
    p.add_argument("--noise-std", type=float)


def _add_adapt_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float)
    p.add_argument("--lambda-u", type=float)
    p.add_argument("--lambda-d", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--unlabeled-batch", type=int)
    p.add_argument("--labeled-batch", type=int,
                   help="defaults to min(labeled set size, unlabeled batch)")
    p.add_argument("--freeze-classifier", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssht",
        description="Source-free semi-supervised adaptation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary,
                              argument_default=argparse.SUPPRESS)

    p = add("gen-data", "generate a domain-shift task file")
    _add_spec_flags(p)
    p.add_argument("--n-source", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--n-unlabeled", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, type=_Output)

    p = add("train-source", "train and checkpoint a source model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, type=_Output)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden", help="comma-separated extractor layer widths")
    p.add_argument("--feature-dim", type=int)
    p.add_argument("--activation", choices=network.ACTIVATIONS)

    p = add("adapt", "adapt a source model to the target split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=pipeline.METHODS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-model", required=True, type=_Output)
    p.add_argument("--report", required=True, type=_Report)
    _add_adapt_flags(p)

    p = sub.add_parser("evaluate", help="accuracy of a model on a task split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("test", "labeled", "unlabeled"),
                   default="test")

    p = add("ablate", "run a method x seed comparison grid")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--methods", default="cdl,cdl_no_cl,cdl_no_dl,s_plus_t",
                   help="comma-separated method names")
    p.add_argument("--seeds", required=True,
                   help="comma-separated integer seeds")
    p.add_argument("--out", required=True, type=_Output,
                   help="CSV table destination")
    _add_adapt_flags(p)

    p = add("gradcheck", "finite-difference check of every gradient path")
    p.add_argument("--seed", type=int)

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_gen_data(args) -> int:
    if "rotation_deg" in args:
        args.shift_rotation = math.radians(args.rotation_deg)
    if "translation" in args:
        args.shift_translation = tuple(_parse_list(
            "--translation", args.translation, float, "numbers"))
    spec = data.DomainShiftSpec(**_given(args, data.DomainShiftSpec))
    task = data.generate_task(spec, **_given(args, data.generate_task))
    data.save_task(task, args.out)
    print(f"wrote task file {args.out} "
          f"({task.source_x.shape[0]} source, {task.labeled_x.shape[0]} "
          f"labeled, {task.num_unlabeled} unlabeled, {task.test_x.shape[0]} "
          f"test)")
    return 0


def _cmd_train_source(args) -> int:
    task = data.load_task(args.data)
    if "hidden" in args:
        args.hidden_dims = _parse_list("--hidden", args.hidden, int,
                                       "integers")
    spec = replace(network.default_spec(input_dim=task.spec.input_dim,
                                        num_classes=task.spec.num_classes),
                   **_given(args, network.NetworkSpec))
    model_text = pipeline.train_source(task, spec=spec,
                                       **_given(args, pipeline.train_source))
    atomic_write_text(args.out, model_text)
    net = network.deserialize(model_text)
    print(f"wrote model {args.out} "
          f"(validation accuracy {net.meta['source_val_accuracy']}, "
          f"best epoch {net.meta['best_epoch']})")
    return 0


def _cmd_adapt(args) -> int:
    model_text = read_text(args.model)
    task = data.load_task(args.data)
    config = pipeline.AdaptConfig(**_given(args, pipeline.AdaptConfig))
    report, adapted_text = pipeline.adapt(model_text, task, config)
    atomic_write_text(args.out_model, adapted_text)
    reports.write_report(report, args.report)
    print(f"method {config.method} seed {config.seed}: "
          f"final test accuracy {report.final_accuracy:.4f} "
          f"over {len(report.records)} epochs")
    if report.aborted_epoch is not None:
        print(f"warning: run aborted at epoch {report.aborted_epoch} "
              f"({report.abort_reason}); model and report hold the last "
              f"good epoch", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    net = network.deserialize(read_text(args.model))
    task = data.load_task(args.data)
    pipeline.check_model_fits(net.spec, task)
    if args.split == "test":
        xs, ys = task.test_x, task.test_y
    elif args.split == "labeled":
        xs, ys = task.labeled_x, task.labeled_y
    else:
        xs, ys = task.unlabeled_x, task.unlabeled_labels()
    result = pipeline.evaluate(net, xs, ys)
    print(f"accuracy {result.accuracy:.6f}")
    per_class = " ".join(f"{v:.6f}" for v in result.per_class_accuracy)
    print(f"per-class accuracy {per_class}")
    print("confusion (rows true, cols predicted):")
    for row in result.confusion:
        print(" ".join(f"{int(v):6d}" for v in row))
    return 0


def _cmd_ablate(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or not set(methods) <= set(pipeline.METHODS):
        raise ValueError(f"--methods must name methods from "
                         f"{', '.join(pipeline.METHODS)}, got {args.methods!r}")
    _distinct("--methods", methods)
    seeds = _distinct("--seeds", _parse_list("--seeds", args.seeds, int,
                                             "integers"))
    for seed in seeds:
        _check_seed("--seeds", seed)
    model_text = read_text(args.model)
    task = data.load_task(args.data)
    base = pipeline.AdaptConfig(**_given(args, pipeline.AdaptConfig))
    suite = pipeline.run_ablation_suite(task, model_text, base, methods, seeds)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "seed", "final_accuracy", "diversity_ratio",
                     "minority_recall", "error"])
    for row in suite.rows:
        writer.writerow([row.method, row.seed, repr(row.final_accuracy),
                         repr(row.diversity_ratio), repr(row.minority_recall),
                         row.error or ""])
    writer.writerow([])
    writer.writerow(["method", "n", "mean_accuracy", "std_accuracy",
                     "mean_diversity", "std_diversity"])
    for method in methods:
        s = suite.summary[method]
        if s["n"] == 0:
            writer.writerow([method, 0, "", "", "", ""])
            continue
        writer.writerow([method, int(s["n"]), repr(s["mean_accuracy"]),
                         repr(s["std_accuracy"]), repr(s["mean_diversity"]),
                         repr(s["std_diversity"])])
    atomic_write_text(args.out, buf.getvalue())

    for method in methods:
        s = suite.summary[method]
        if s["n"]:
            print(f"{method:10s} accuracy {s['mean_accuracy']:.4f} "
                  f"+/- {s['std_accuracy']:.4f}  diversity "
                  f"{s['mean_diversity']:.4f}")
        else:
            print(f"{method:10s} all cells failed")
    print(f"wrote {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(**_given(args, gradcheck.run_all))
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:20s} max rel err {r.max_rel_err:.3e} "
              f"(checked {r.checked}, skipped {r.skipped}) {status}")
        ok = ok and r.passed
    return 0 if ok else 3


def _check_outputs(args) -> None:
    """Raise OSError or ValueError naming the flag unless every file the
    output flags write can be created: its directory exists, no such
    file is a directory, and no two flags write the same file."""
    writers = {}  # real path -> the flag that writes it
    for dest, path in vars(args).items():
        if not isinstance(path, _Output):
            continue
        flag = f"--{dest.replace('_', '-')}"
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"{flag} {path}: no such directory")
        for name in (path + suffix for suffix in path.suffixes):
            if os.path.isdir(name):
                raise IsADirectoryError(f"{flag} {name}: is a directory")
            first = writers.setdefault(os.path.realpath(name), flag)
            if first != flag:
                raise ValueError(f"{first} and {flag} both write {name}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"gen-data": _cmd_gen_data, "train-source": _cmd_train_source,
                "adapt": _cmd_adapt, "evaluate": _cmd_evaluate,
                "ablate": _cmd_ablate, "gradcheck": _cmd_gradcheck}
    if args.command == "version":
        print(__version__)
        return 0
    try:
        if "seed" in args:
            _check_seed("--seed", args.seed)
        _check_outputs(args)
        return handlers[args.command](args)
    except (OSError, ValueError, NumericalError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
