"""Tiny-size runs of every workload, traced and untraced, and the
contract of the command's output."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import workloads

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_iteration_passes_its_checks(name, tmp_path):
    tasks = workloads.TINY.tasks
    w = workloads.WORKLOADS[name](7, str(tmp_path), workloads.TINY)
    for _ in range(tasks):
        w.setup()
    outs = [w.check(w.run(i), i) for i in range(2 * tasks)]
    assert all(o.ops > 0 and o.failures == [] for o in outs)
    assert all(o.accs and 0.0 <= min(o.accs) <= max(o.accs) <= 1.0
               for o in outs)
    # iteration i runs on task i mod tasks, and the tasks differ
    assert [o.fingerprint for o in outs[:tasks]] == \
        [o.fingerprint for o in outs[tasks:]]
    assert outs[0].fingerprint != outs[1].fingerprint


def test_grid_check_catches_an_adapt_that_reads_unlabeled_labels(
        tmp_path, monkeypatch):
    from ssht import pipeline
    w = workloads.AblateGrid(7, str(tmp_path), workloads.TINY)
    w.setup()
    honest = pipeline.adapt

    def peeking(model_text, task, config, *args, **kwargs):
        task.unlabeled_labels()
        return honest(model_text, task, config, *args, **kwargs)

    monkeypatch.setattr(pipeline, "adapt", peeking)
    out = w.check(w.run(0), 0)
    assert pipeline.adapt is peeking
    cells = len(workloads.GRID_METHODS) * workloads.GRID_SEEDS
    assert len(out.failures) == cells
    assert all("unlabeled labels read 1 times" in f for f in out.failures)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_prints_the_contract_line(name, trace, tmp_path, monkeypatch,
                                           capsys, benchmark_json):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)], sizes=workloads.TINY)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # the traced run starts untraced, and its outputs must match
    assert result["attempted"] >= (2 if trace else 1)
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in benchmark_json[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code(benchmark_json):
    assert benchmark_json["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in benchmark_json["workloads"]} == set(WORKLOADS)
    gated = {k: unit for k, (unit, on) in run.END_TO_END.items() if on}
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == gated
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in benchmark_json["end_to_end"])
    specs = tracing.metric_specs()
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark_json["per_layer"]] == \
        [(k, unit, better) for k, (unit, better) in specs.items()]


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adapt_cdl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_out").exists()
