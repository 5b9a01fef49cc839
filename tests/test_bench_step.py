"""Smoke tests of scripts/bench_step.py: the repo's tree against itself."""

import importlib.util
import json
import os

from ssht import pipeline

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPT = os.path.join(ROOT, "scripts", "bench_step.py")
SRC = os.path.join(ROOT, "src")


def load_script():
    spec = importlib.util.spec_from_file_location("bench_step", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bench_step_one_epoch_tree_against_itself(capsys):
    script = load_script()
    assert script.main([SRC, SRC, "--epochs", "1", "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = json.loads(lines[-1])
    rows = list(pipeline.METHODS) + ["train_source"]
    assert list(results) == sorted(rows)
    assert [ln.split()[0] for ln in lines[:-1]] == rows
    for r in results.values():
        assert r["identical"] and r["rounds"] == 2
        assert 0 <= r["after_wins"] <= 2
        assert r["before_cpu_s"] > 0 and r["after_cpu_s"] > 0


def test_bench_step_train_source_row_compares_model_texts(monkeypatch):
    # an AFTER tree whose source training writes another model document
    # is not identical on that row, and only there
    script = load_script()
    sides = {"before": script.load_package(SRC, "ssht_before"),
             "after": script.load_package(SRC, "ssht_after")}
    train_source = sides["after"].pipeline.train_source
    monkeypatch.setattr(sides["after"].pipeline, "train_source",
                        lambda *args, **kw: train_source(*args, **kw) + "\n")
    results = script.run(sides, ["s_plus_t", "train_source"], 2, 1)
    assert results["s_plus_t"]["identical"]
    assert not results["train_source"]["identical"]
    assert results["train_source"]["before_cpu_s"] > 0


def test_bench_step_ablate_row_compares_cell_reports(monkeypatch, capsys):
    # the ablate row runs only when named; an AFTER tree whose grid gives
    # one cell's report another value in one epoch record is not
    # identical on it
    script = load_script()
    assert script.main([SRC, SRC, "--methods", "ablate", "--epochs", "1",
                        "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])["ablate"]
    assert [ln.split()[0] for ln in lines[:-1]] == ["ablate"]
    assert lines[0].endswith("identical yes")
    assert result["identical"] and result["rounds"] == 2
    assert result["before_cpu_s"] > 0 and result["after_cpu_s"] > 0

    load_package = script.load_package

    def load_shifted(src, name):
        pkg = load_package(src, name)
        if name == "ssht_after":
            suite = pkg.pipeline.run_ablation_suite

            def shifted(*args):
                cells = suite(*args)
                cells[-1].records[0].l_u += 1.0
                return cells
            monkeypatch.setattr(pkg.pipeline, "run_ablation_suite", shifted)
        return pkg
    monkeypatch.setattr(script, "load_package", load_shifted)
    assert script.main([SRC, SRC, "--methods", "ablate", "--epochs", "1",
                        "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("identical NO")
    assert not json.loads(lines[-1])["ablate"]["identical"]
