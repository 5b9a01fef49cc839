"""Smoke test of scripts/bench_step.py: the repo's tree against itself."""

import importlib.util
import json
import os

from ssht import pipeline

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPT = os.path.join(ROOT, "scripts", "bench_step.py")


def test_bench_step_one_epoch_tree_against_itself(capsys):
    spec = importlib.util.spec_from_file_location("bench_step", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    src = os.path.join(ROOT, "src")
    assert script.main([src, src, "--epochs", "1", "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = json.loads(lines[-1])
    assert list(results) == sorted(pipeline.METHODS)
    assert [ln.split()[0] for ln in lines[:-1]] == list(pipeline.METHODS)
    for r in results.values():
        assert r["identical"] and r["rounds"] == 2
        assert 0 <= r["after_wins"] <= 2
        assert r["before_cpu_s"] > 0 and r["after_cpu_s"] > 0
