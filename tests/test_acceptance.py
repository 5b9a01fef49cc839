"""Acceptance battery: one pass/fail line per criterion.

Each test exercises one shipping requirement end to end at its stated
tolerance and time budget, on the default task unless noted. The
method comparison grid (4 methods x 5 paired seeds, full-length runs)
is built once and shared by the ordering and diversity criteria.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import record
from ssht import cli, data, gradcheck, linalg, losses, pipeline

GRID_METHODS = ("cdl", "cdl_no_cl", "cdl_no_dl", "s_plus_t")
GRID_SEEDS = (0, 1, 2, 3, 4)


def nuclear_norm(a):
    return linalg.nuclear_norm_and_subgradient(a[None])[0][0]


@pytest.fixture(scope="module")
def suite():
    task = data.generate_task(data.DomainShiftSpec(), seed=0)
    model_text = pipeline.train_source(task, seed=0)
    t0 = time.perf_counter()
    reports = pipeline.run_ablation_suite(task, model_text,
                                          pipeline.AdaptConfig(),
                                          GRID_METHODS, GRID_SEEDS)
    elapsed = time.perf_counter() - t0
    means = {}
    for m in GRID_METHODS:
        cells = [r for r in reports if r.config.method == m]
        assert all(r.aborted_epoch is None for r in cells)
        means[m] = {
            "accuracy": float(np.mean([r.final_accuracy for r in cells])),
            "diversity": float(np.mean([r.records[-1].diversity_ratio
                                        for r in cells])),
            "minority": float(np.mean([r.per_class_accuracy[-1]
                                       for r in cells]))}
    return {"means": means, "elapsed": elapsed}


def test_gradient_suite():
    t0 = time.perf_counter()
    results = gradcheck.run_all(seed=0)
    dt = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    skipped = sum(r.skipped for r in results)
    ok = all(r.passed for r in results) and dt < 60.0
    assert record(
        "gradient-suite",
        ok,
        f"all {len(results)} paths within tolerance 1e-4, worst rel err "
        f"{worst:.2e}, {skipped} degenerate spectra skipped, "
        f"{dt:.1f}s < 60s")


def test_nuclear_norm_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    comps = [c for c in itertools.product(range(5), repeat=4) if sum(c) == 4]
    norms, _ = linalg.nuclear_norm_and_subgradient(
        np.array([np.repeat(np.eye(4), counts, axis=0) for counts in comps]))
    worst_onehot = 0.0
    for counts, got in zip(comps, norms):
        want = sum(np.sqrt(n) for n in counts)
        worst_onehot = max(worst_onehot, abs(got - want))
    ok = len(comps) == 35 and worst_onehot <= 1e-8

    worst_rel = 0.0
    for c in (-2.0, 0.5, 10.0):
        a = rng.normal(size=(9, 5))
        got = nuclear_norm(c * a)
        want = abs(c) * nuclear_norm(a)
        worst_rel = max(worst_rel, abs(got - want) / want)
    a = rng.normal(size=(8, 6))
    base = nuclear_norm(a)
    perm = nuclear_norm(a[rng.permutation(8)][:, rng.permutation(6)])
    worst_rel = max(worst_rel, abs(perm - base) / base)
    ok = ok and worst_rel <= 1e-10

    chain_ok = True
    for _ in range(1000):
        m, n = rng.integers(1, 13, size=2)
        a = rng.normal(size=(m, n))
        fro = np.linalg.norm(a)
        nuc = nuclear_norm(a)
        chain_ok = chain_ok and \
            fro <= nuc + 1e-10 and nuc <= np.sqrt(min(m, n)) * fro + 1e-10
    dt = time.perf_counter() - t0
    ok = ok and chain_ok and dt < 30.0
    assert record(
        "nuclear-norm-oracle",
        ok,
        f"35/35 one-hot compositions exact to 1e-8 (worst {worst_onehot:.1e}), "
        f"homogeneity/permutation rel err {worst_rel:.1e} <= 1e-10, "
        f"norm bound chain held on 1000 matrices, {dt:.1f}s < 30s")


def _svd_contract_violation(a: np.ndarray) -> float:
    """Worst constraint violation for one decomposition (0 when clean)."""
    res = linalg.svd(a[None])
    u, s, v = res.u[0], res.sigma[0], res.v[0]
    worst = 0.0
    worst = max(worst, np.abs(u.T @ u - np.eye(u.shape[1])).max() / 1e-10)
    worst = max(worst, np.abs(v.T @ v - np.eye(v.shape[1])).max() / 1e-10)
    recon_tol = 1e-8 * (1.0 + np.abs(a).max())
    worst = max(worst, np.abs(u @ np.diag(s) @ v.T - a).max() / recon_tol)
    if np.any(s < 0) or np.any(np.diff(s) > 0):
        worst = max(worst, 2.0)
    return worst


def test_svd_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for shape in ((1, 1), (3, 7), (17, 5), (48, 4), (64, 32), (128, 128)):
        worst = max(worst, _svd_contract_violation(rng.normal(size=shape)))
    for m, n, r in ((20, 12, 3), (50, 50, 1), (128, 40, 10)):
        a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        worst = max(worst, _svd_contract_violation(a))
    q1, _ = np.linalg.qr(rng.normal(size=(24, 24)))
    q2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    dup = q1[:, :6] @ np.diag([5.0, 5.0, 5.0, 2.0, 2.0, 0.5]) @ q2.T
    worst = max(worst, _svd_contract_violation(dup))
    dt = time.perf_counter() - t0
    ok = worst <= 1.0 and dt < 60.0
    assert record(
        "svd-suite",
        ok,
        f"reconstruction <= 1e-8*(1+max|A|) and orthonormality <= 1e-10 on "
        f"random/rank-deficient/repeated-spectrum matrices up to 128x128 "
        f"(worst violation ratio {worst:.3f}), {dt:.1f}s < 60s")


def _consistency_step(weak_logits, strong_logits, tau):
    """total_loss under consistency at weight 1 on one labeled row, then
    the weak and the strong rows."""
    logits = np.vstack((np.zeros((1, 4)), weak_logits, strong_logits))
    return losses.total_loss(logits, np.array([0]), {"consistency": 1.0}, tau)


def test_masking_property():
    rng = np.random.default_rng(2)
    grid = np.linspace(0.01, 1.0, 100)
    monotone = True
    for _ in range(20):
        weak = rng.normal(size=(48, 4)) * 2.0
        strong = rng.normal(size=(48, 4))
        rates = np.array([_consistency_step(weak, strong, t).mask_rate
                          for t in grid])
        monotone = monotone and bool(np.all(np.diff(rates) <= 0.0))

    step = _consistency_step(np.zeros((16, 4)), rng.normal(size=(16, 4)), 0.8)
    zero_ok = (step.l_u == 0.0 and step.mask_rate == 0.0 and
               bool(np.all(step.grad[1:] == 0.0)))
    ok = monotone and zero_ok
    assert record(
        "masking-property",
        ok,
        "mask rate non-increasing across a 100-point threshold grid on 20 "
        "random prediction matrices; fully sub-threshold batch contributes "
        "an exact 0.0 with all-zero gradients")


def test_ablation_ordering(suite):
    m = suite["means"]
    gap = (m["cdl"]["accuracy"] - m["s_plus_t"]["accuracy"]) * 100
    ok = (m["cdl"]["accuracy"] >= m["cdl_no_dl"]["accuracy"]
          and m["cdl"]["accuracy"] >= m["cdl_no_cl"]["accuracy"]
          and m["cdl"]["accuracy"] >= m["s_plus_t"]["accuracy"]
          and gap >= 2.0
          and suite["elapsed"] < 600.0)
    assert record(
        "ablation-ordering",
        ok,
        f"mean accuracy full {m['cdl']['accuracy']:.4f} >= "
        f"no-consistency {m['cdl_no_cl']['accuracy']:.4f} / "
        f"no-diversity {m['cdl_no_dl']['accuracy']:.4f} / "
        f"labeled-only {m['s_plus_t']['accuracy']:.4f}; "
        f"margin over labeled-only {gap:+.2f} points >= 2; "
        f"grid ran in {suite['elapsed']:.0f}s < 600s")


def test_diversity_direction(suite):
    m = suite["means"]
    ok = (m["cdl"]["diversity"] >= m["cdl_no_dl"]["diversity"]
          and m["cdl"]["minority"] >= m["s_plus_t"]["minority"])
    assert record(
        "diversity-direction",
        ok,
        f"mean prediction-diversity ratio full {m['cdl']['diversity']:.4f} "
        f">= no-diversity {m['cdl_no_dl']['diversity']:.4f}; minority-class "
        f"recall full {m['cdl']['minority']:.4f} >= labeled-only "
        f"{m['s_plus_t']['minority']:.4f}")


def test_source_free_contract():
    task = data.generate_task(data.DomainShiftSpec(), seed=11)
    model_text = pipeline.train_source(task, seed=0, epochs=3)
    reads_after_training = task.source_reads
    label_reads_before = task.unlabeled_label_reads

    report, _ = pipeline.adapt(model_text, task,
                               pipeline.AdaptConfig(epochs=2, seed=0))
    ok = (reads_after_training == 1
          and task.source_reads == reads_after_training
          and label_reads_before == 0
          and task.unlabeled_label_reads == 0
          and report.unlabeled_weak_passes > 0)
    assert record(
        "source-free-contract",
        ok,
        f"adaptation performed {report.unlabeled_weak_passes} unlabeled "
        f"passes with source-read counter stuck at "
        f"{task.source_reads} (training only) and private-label reads at "
        f"{task.unlabeled_label_reads}")


def test_deterministic_comparison_csv(tmp_path):
    task_path = str(tmp_path / "task.txt")
    model_path = str(tmp_path / "model.txt")
    assert cli.main(["gen-data", "--seed", "0", "--out", task_path]) == 0
    assert cli.main(["train-source", "--data", task_path, "--seed", "0",
                     "--out", model_path]) == 0
    argv = ["ablate", "--model", model_path, "--data", task_path,
            "--methods", "cdl,s_plus_t", "--seeds", "0,1", "--out"]
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert cli.main(argv + [out_a]) == 0
    assert cli.main(argv + [out_b]) == 0
    with open(out_a, "rb") as fh:
        bytes_a = fh.read()
    with open(out_b, "rb") as fh:
        bytes_b = fh.read()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    assert record(
        "deterministic-comparison-csv",
        ok,
        f"two identical full comparison invocations wrote byte-identical "
        f"CSVs ({len(bytes_a)} bytes)")
