"""Command-line surface.

Subcommands: gen-data, train-source, adapt, evaluate, ablate,
gradcheck, version. Exit codes: 0 success, 1 runtime or file error,
2 usage error (argparse), 3 gradient-check failure.
"""

import argparse
import csv
import io
import math
import sys

import numpy as np

from . import __version__, data, gradcheck, network, pipeline, reports
from .fileio import atomic_write_text, read_text
from .linalg import NumericalError


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--input-dim", type=int, default=2)
    p.add_argument("--geometry", choices=data.GEOMETRIES,
                   default="gaussian_ring")
    p.add_argument("--rotation-deg", type=float, default=30.0,
                   help="target rotation shift in degrees")
    p.add_argument("--translation", default="0.0,1.75",
                   help="comma-separated target translation shift")
    p.add_argument("--scale", type=float, default=0.85)
    p.add_argument("--imbalance", type=float, default=10.0,
                   help="source majority:minority class ratio")
    p.add_argument("--noise-std", type=float, default=1.0)


def _add_adapt_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=0.8)
    p.add_argument("--lambda-u", type=float, default=2.5)
    p.add_argument("--lambda-d", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=0.0005)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--unlabeled-batch", type=int, default=48)
    p.add_argument("--labeled-batch", type=int, default=None,
                   help="defaults to min(labeled set size, unlabeled batch)")
    p.add_argument("--freeze-classifier", action="store_true")
    p.add_argument("--labeled-aug", choices=pipeline.LABELED_AUG_MODES,
                   default="weak")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssht",
        description="Source-free semi-supervised adaptation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a domain-shift task file")
    _add_spec_flags(p)
    p.add_argument("--n-source", type=int, default=2000)
    p.add_argument("--shots", type=int, default=3)
    p.add_argument("--n-unlabeled", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-source", help="train and checkpoint a source model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--batch-size", type=int, default=96)
    p.add_argument("--hidden", default="64,64",
                   help="comma-separated extractor layer widths")
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--activation", choices=network.ACTIVATIONS, default="tanh")

    p = sub.add_parser("adapt", help="adapt a source model to the target split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=pipeline.METHODS, default="cdl")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--report", required=True)
    _add_adapt_flags(p)

    p = sub.add_parser("evaluate", help="accuracy of a model on a task split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("test", "labeled", "unlabeled"),
                   default="test")

    p = sub.add_parser("ablate", help="run a method x seed comparison grid")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--methods", default="cdl,cdl_no_cl,cdl_no_dl,s_plus_t",
                   help="comma-separated method names")
    p.add_argument("--seeds", required=True,
                   help="comma-separated integer seeds")
    p.add_argument("--out", required=True, help="CSV table destination")
    _add_adapt_flags(p)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every gradient path")
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_gen_data(args) -> int:
    translation = tuple(float(t) for t in args.translation.split(","))
    spec = data.DomainShiftSpec(
        num_classes=args.classes, input_dim=args.input_dim,
        class_geometry=args.geometry,
        shift_rotation=math.radians(args.rotation_deg),
        shift_translation=translation, shift_scale=args.scale,
        source_imbalance_ratio=args.imbalance, noise_std=args.noise_std)
    task = data.generate_task(spec, n_source=args.n_source, shots=args.shots,
                              n_unlabeled=args.n_unlabeled,
                              n_test=args.n_test, seed=args.seed)
    data.save_task(task, args.out)
    print(f"wrote task file {args.out} "
          f"({args.n_source} source, {args.shots * args.classes} labeled, "
          f"{args.n_unlabeled} unlabeled, {args.n_test} test)")
    return 0


def _cmd_train_source(args) -> int:
    task = data.load_task(args.data)
    spec = network.NetworkSpec(
        input_dim=task.spec.input_dim,
        hidden_dims=[int(h) for h in args.hidden.split(",")],
        feature_dim=args.feature_dim, num_classes=task.spec.num_classes,
        activation=args.activation)
    model_text = pipeline.train_source(task, spec=spec, epochs=args.epochs,
                                       seed=args.seed, lr=args.lr,
                                       batch_size=args.batch_size)
    atomic_write_text(args.out, model_text)
    net = network.deserialize(model_text)
    print(f"wrote model {args.out} "
          f"(validation accuracy {net.meta['source_val_accuracy']}, "
          f"best epoch {net.meta['best_epoch']})")
    return 0


def _config_from_args(args, method: str, seed: int) -> pipeline.AdaptConfig:
    return pipeline.AdaptConfig(
        method=method, tau=args.tau, lambda_u=args.lambda_u,
        lambda_d=args.lambda_d, lr=args.lr, momentum=args.momentum,
        weight_decay=args.weight_decay, labeled_batch=args.labeled_batch,
        unlabeled_batch=args.unlabeled_batch, epochs=args.epochs, seed=seed,
        freeze_classifier=args.freeze_classifier,
        labeled_aug=args.labeled_aug)


def _cmd_adapt(args) -> int:
    model_text = read_text(args.model)
    task = data.load_task(args.data)
    config = _config_from_args(args, args.method, args.seed)
    report, adapted_text = pipeline.adapt(model_text, task, config)
    atomic_write_text(args.out_model, adapted_text)
    reports.write_report(report, args.report)
    print(f"method {args.method} seed {args.seed}: "
          f"final test accuracy {report.final_accuracy:.4f} "
          f"over {len(report.records)} epochs")
    if report.aborted_epoch is not None:
        print(f"warning: run aborted at epoch {report.aborted_epoch} "
              f"on a non-finite loss; model and report hold the last good "
              f"epoch", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    net = network.deserialize(read_text(args.model))
    task = data.load_task(args.data)
    if net.spec.num_classes != task.spec.num_classes:
        raise ValueError(f"model has {net.spec.num_classes} classes, "
                         f"task has {task.spec.num_classes}")
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
    model_text = read_text(args.model)
    task = data.load_task(args.data)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or not set(methods) <= set(pipeline.METHODS):
        raise ValueError(f"--methods must name methods from "
                         f"{', '.join(pipeline.METHODS)}, got {args.methods!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ValueError(f"--seeds must be comma-separated integers, "
                         f"got {args.seeds!r}") from None
    base = _config_from_args(args, methods[0], seeds[0])
    base.validate()  # a bad setting would fail every cell alike
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
    results = gradcheck.run_all(seed=args.seed)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:20s} max rel err {r.max_rel_err:.3e} "
              f"(checked {r.checked}, skipped {r.skipped}) {status}")
        ok = ok and r.passed
    return 0 if ok else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"gen-data": _cmd_gen_data, "train-source": _cmd_train_source,
                "adapt": _cmd_adapt, "evaluate": _cmd_evaluate,
                "ablate": _cmd_ablate, "gradcheck": _cmd_gradcheck}
    if args.command == "version":
        print(__version__)
        return 0
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
