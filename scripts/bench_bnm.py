"""Time the nuclear-norm kernel of two `ssht` source trees side by side.

    python scripts/bench_bnm.py BEFORE_SRC AFTER_SRC

Each argument is a `src` directory (the one holding `ssht/`). The
script loads `ssht/linalg.py` from both into one process and times,
with the two trees interleaved round by round (ROUNDS rounds per step
row, SVD_ROUNDS for the svd):

  step n=4..16   the diversity term's kernel work for one adaptation
                 step: both views' 48xn softmax batches. A tree whose
                 `nuclear_norm_and_subgradient` takes a 3-D stack gets
                 them as one stacked call; an older tree, one call per
                 view. 48 is the default unlabeled batch, n the classes.
  svd 128x128    one `svd` of a random 128x128 matrix

It prints the median time per operation of each tree, the after/before
ratio, and the largest difference between the two trees' norms and
subgradients. Run it on an idle machine with OPENBLAS_NUM_THREADS=1, so
that the 128x128 products stay on one thread as the step's do.
"""

import argparse
import importlib.util
import os
import statistics
import time

import numpy as np

BATCH = 48
CLASSES = (4, 8, 12, 16)
TEMPERATURES = (0.3, 1.0, 3.0, 10.0)  # logit scales, soft to confident
ROUNDS = 15
SVD_ROUNDS = 3
SEED = 0


def load_linalg(src: str, name: str):
    path = os.path.join(src, "ssht", "linalg.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def takes_stacks(linalg) -> bool:
    try:
        linalg.nuclear_norm_and_subgradient(np.ones((2, 3, 2)))
    except ValueError:
        return False
    return True


def step_fn(linalg):
    """One step's two views, as this tree's kernel takes them."""
    kernel = linalg.nuclear_norm_and_subgradient
    if takes_stacks(linalg):
        return kernel
    return lambda views: tuple(np.stack(x) for x in
                               zip(*(kernel(p) for p in views)))


def softmax_steps(rng, n: int, count: int):
    out = []
    for i in range(count):
        z = rng.normal(size=(2, BATCH, n)) * TEMPERATURES[i % 4]
        p = np.exp(z - z.max(axis=2, keepdims=True))
        out.append(p / p.sum(axis=2, keepdims=True))
    return out


def interleaved(fns, work, rounds: int):
    """Median seconds per item of `work` for each fn, alternating order."""
    times = [[] for _ in fns]
    for r in range(rounds):
        order = range(len(fns)) if r % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            t0 = time.perf_counter()
            for item in work:
                fns[i](item)
            times[i].append((time.perf_counter() - t0) / len(work))
    return [statistics.median(t) for t in times]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before", help="src directory of the baseline tree")
    ap.add_argument("after", help="src directory of the changed tree")
    args = ap.parse_args(argv)
    trees = [load_linalg(args.before, "linalg_before"),
             load_linalg(args.after, "linalg_after")]
    steps = [step_fn(t) for t in trees]
    rng = np.random.default_rng(SEED)

    print(f"{'operation':<14}{'before':>12}{'after':>12}{'ratio':>8}"
          f"{'max diff':>11}")
    for n in CLASSES:
        work = softmax_steps(rng, n, 20)
        before, after = interleaved(steps, work, ROUNDS)
        diff = 0.0
        for views in work:
            (nb, sb), (na, sa) = steps[0](views), steps[1](views)
            diff = max(diff, float(np.max(np.abs(nb - na))),
                       float(np.max(np.abs(sb - sa))))
        print(f"{'step n=' + str(n):<14}{before * 1e6:>10.0f}us"
              f"{after * 1e6:>10.0f}us{after / before:>8.2f}{diff:>11.1e}")

    a = rng.normal(size=(128, 128))
    before, after = interleaved([t.svd for t in trees], [a], SVD_ROUNDS)
    diff = float(np.max(np.abs(trees[0].svd(a).sigma - trees[1].svd(a).sigma)))
    print(f"{'svd 128x128':<14}{before * 1e3:>10.1f}ms{after * 1e3:>10.1f}ms"
          f"{after / before:>8.2f}{diff:>11.1e}")


if __name__ == "__main__":
    main()
