"""Smoke test of scripts/artifact_digests.py at one epoch on one seed."""

import hashlib
import importlib.util
import os
import re

from ssht import data, pipeline

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "artifact_digests.py")


def test_artifact_digests_one_line_per_file(capsys):
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--seeds", "0", "--epochs", "1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    # the cdl_aborted run covers adapt's abort and rollback, the
    # ablate_aborted grid the warning of each aborted cell, and the
    # ablate_mixed grid those of its methods with a diversity term
    assert "warning: run aborted at epoch 1 (step 2: overflow encountered " \
        "in matmul)" in captured.err
    assert [ln for ln in captured.err.splitlines()
            if ln.startswith("warning: cell ")] == [
        f"warning: cell {m} seed 0 aborted at epoch 1: step 2: overflow "
        f"encountered in matmul"
        for m in ("cdl", "cdl_no_cl", "cdl_no_dl", "s_plus_t")] + [
        f"warning: cell {m} seed 0 aborted at epoch 1: step 5: overflow "
        f"encountered in add" for m in ("cdl", "cdl_no_cl")]

    runs = [*pipeline.METHODS, "cdl_frozen", "cdl_aborted"]
    names = ["task.txt", "source.txt"] + [
        f"{run}.{kind}" for run in runs
        for kind in ("model.txt", "report.txt", "report.txt.csv")] + \
        ["ablate.csv", "ablate_aborted.csv", "ablate_mixed.csv",
         "gradcheck.out", "wide_task.txt", "wide_source.txt",
         "wide_cdl.model.txt", "wide_cdl.report.txt",
         "wide_cdl.report.txt.csv"]
    assert [ln.split("  ")[1] for ln in lines] == \
        [f"seed0/{name}" for name in names]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", ln) for ln in lines)
    for line, spec in ((lines[0], data.DomainShiftSpec()),
                       (lines[-5], data.DomainShiftSpec(
                           num_classes=data.MAX_CLASSES))):
        task = data.serialize_task(data.generate_task(spec, seed=0))
        assert line.split()[0] == hashlib.sha256(task.encode()).hexdigest()
