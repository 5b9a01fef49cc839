"""Report persistence and command-line round-trip tests."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from ssht import cli, data, network, pipeline, reports


@pytest.fixture(scope="module")
def task():
    return data.generate_task(data.DomainShiftSpec(), seed=0)


@pytest.fixture(scope="module")
def model_text(task):
    return pipeline.train_source(task, seed=0)


@pytest.fixture(scope="module")
def small_report(task, model_text):
    cfg = pipeline.AdaptConfig(method="cdl", epochs=3, seed=0)
    report, _ = pipeline.adapt(model_text, task, cfg)
    return report


# ----------------------------------------------------------- report files

def test_report_round_trip_idempotent(small_report):
    text = reports.serialize_report(small_report)
    loaded = reports.deserialize_report(text)
    assert reports.serialize_report(loaded) == text
    assert loaded.final_accuracy == small_report.final_accuracy
    assert loaded.config == small_report.config
    assert loaded.confusion == small_report.confusion
    assert len(loaded.records) == len(small_report.records)
    for a, b in zip(loaded.records, small_report.records):
        assert a == b


def test_report_numpy_float_config_round_trips(small_report):
    cfg = replace(small_report.config, tau=np.float64(0.75))
    text = reports.serialize_report(replace(small_report, config=cfg))
    assert "config.tau = 0.75\n" in text
    assert reports.deserialize_report(text).config.tau == 0.75


def test_report_header_checked(small_report):
    text = reports.serialize_report(small_report)
    with pytest.raises(reports.ReportFormatError):
        reports.deserialize_report("ssht-report/9\n" + text.split("\n", 1)[1])
    with pytest.raises(reports.ReportFormatError):
        reports.deserialize_report("")


def test_report_missing_field_rejected(small_report):
    text = reports.serialize_report(small_report)
    broken = "\n".join(ln for ln in text.splitlines()
                       if not ln.startswith("final.accuracy")) + "\n"
    with pytest.raises(reports.ReportFormatError):
        reports.deserialize_report(broken)


def test_report_tampered_confusion_rejected(small_report):
    text = reports.serialize_report(small_report)
    lines = []
    for ln in text.splitlines():
        if ln.startswith("final.confusion = "):
            ln = ln + " 7"
        lines.append(ln)
    with pytest.raises(reports.ReportFormatError):
        reports.deserialize_report("\n".join(lines) + "\n")


def test_report_csv_shape_and_values(small_report):
    rows = list(csv.reader(reports.report_csv(small_report).splitlines()))
    assert rows[0] == list(reports.CSV_COLUMNS)
    assert len(rows) == 1 + len(small_report.records)
    for row, rec in zip(rows[1:], small_report.records):
        assert int(row[0]) == rec.epoch
        assert float(row[4]) == rec.total
        assert float(row[6]) == rec.test_acc


def test_write_report_writes_pair(tmp_path, small_report):
    path = tmp_path / "run.txt"
    reports.write_report(small_report, str(path))
    assert path.exists()
    assert (tmp_path / "run.txt.csv").exists()
    loaded = reports.read_report(str(path))
    assert loaded.final_accuracy == small_report.final_accuracy


# ------------------------------------------------------------ cli happy path

@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    task_path = str(root / "task.txt")
    model_path = str(root / "model.txt")
    assert cli.main(["gen-data", "--seed", "0", "--out", task_path]) == 0
    assert cli.main(["train-source", "--data", task_path, "--seed", "0",
                     "--out", model_path]) == 0
    return root, task_path, model_path


def test_cli_gen_data_matches_library(cli_files):
    _, task_path, _ = cli_files
    loaded = data.load_task(task_path)
    direct = data.generate_task(data.DomainShiftSpec(), seed=0)
    np.testing.assert_array_equal(loaded.test_x, direct.test_x)
    np.testing.assert_array_equal(loaded.labeled_y, direct.labeled_y)


def test_cli_train_source_matches_library(cli_files, model_text):
    _, _, model_path = cli_files
    from ssht.fileio import read_text
    assert read_text(model_path) == model_text


def test_cli_adapt_and_evaluate_agree(cli_files, capsys):
    root, task_path, model_path = cli_files
    adapted = str(root / "adapted.txt")
    report_path = str(root / "report.txt")
    rc = cli.main(["adapt", "--model", model_path, "--data", task_path,
                   "--seed", "0", "--epochs", "2",
                   "--out-model", adapted, "--report", report_path])
    assert rc == 0
    capsys.readouterr()

    report = reports.read_report(report_path)
    assert len(report.records) == 2
    assert (root / "report.txt.csv").exists()

    rc = cli.main(["evaluate", "--model", adapted, "--data", task_path,
                   "--split", "test"])
    assert rc == 0
    out = capsys.readouterr().out
    printed = float(out.splitlines()[0].split()[-1])
    assert printed == pytest.approx(report.final_accuracy, abs=1e-6)


def test_cli_evaluate_other_splits(cli_files, capsys):
    _, task_path, model_path = cli_files
    for split in ("labeled", "unlabeled"):
        assert cli.main(["evaluate", "--model", model_path, "--data",
                         task_path, "--split", split]) == 0
    capsys.readouterr()


def test_cli_ablate_csv_shape_and_rerun(cli_files, capsys):
    root, task_path, model_path = cli_files
    out_a = str(root / "ablate_a.csv")
    out_b = str(root / "ablate_b.csv")
    argv = ["ablate", "--model", model_path, "--data", task_path,
            "--methods", "cdl,s_plus_t", "--seeds", "0,1",
            "--epochs", "2", "--out"]
    assert cli.main(argv + [out_a]) == 0
    assert cli.main(argv + [out_b]) == 0
    capsys.readouterr()

    with open(out_a) as fh:
        text_a = fh.read()
    with open(out_b) as fh:
        text_b = fh.read()
    assert text_a == text_b

    rows = list(csv.reader(text_a.splitlines()))
    assert rows[0] == ["method", "seed", "final_accuracy", "diversity_ratio",
                       "minority_recall", "error"]
    body = rows[1:5]
    assert [r[0] for r in body] == ["cdl", "cdl", "s_plus_t", "s_plus_t"]
    assert all(r[5] == "" for r in body)
    assert rows[5] == []
    assert rows[6][0] == "method"
    assert {r[0] for r in rows[7:9]} == {"cdl", "s_plus_t"}


def test_cli_gradcheck_passes(capsys):
    assert cli.main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_version(capsys):
    assert cli.main(["version"]) == 0
    from ssht import __version__
    assert capsys.readouterr().out.strip() == __version__


# ------------------------------------------------------------- cli failures

def test_cli_missing_file_is_exit_1(tmp_path, capsys):
    rc = cli.main(["train-source", "--data", str(tmp_path / "nope.txt"),
                   "--seed", "0", "--out", str(tmp_path / "m.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,name", [("--epochs", "epochs"),
                                       ("--batch-size", "batch_size")])
def test_cli_train_source_bad_loop_size_is_exit_1(cli_files, tmp_path, capsys,
                                                  flag, name):
    _, task_path, _ = cli_files
    out = tmp_path / "m.txt"
    rc = cli.main(["train-source", "--data", task_path, "--seed", "0",
                   flag, "0", "--out", str(out)])
    assert rc == 1
    assert f"error: {name} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_non_finite_task_sample_is_exit_1(cli_files, tmp_path, capsys):
    _, task_path, model_path = cli_files
    with open(task_path) as f:
        lines = f.read().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("split.test.x = "):
            head, vals = ln.split(" = ", 1)
            lines[i] = head + " = " + " ".join(["nan"] + vals.split()[1:])
    bad_path = tmp_path / "bad_task.txt"
    bad_path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["adapt", "--model", model_path, "--data", str(bad_path),
                   "--method", "s_plus_t", "--seed", "0", "--epochs", "1",
                   "--out-model", str(tmp_path / "m.txt"),
                   "--report", str(tmp_path / "r.txt")])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("flag", ["--noise-std", "--scale"])
def test_cli_gen_data_overflowing_spec_is_exit_1(tmp_path, capsys, flag):
    out = tmp_path / "task.txt"
    rc = cli.main(["gen-data", flag, "1e308", "--out", str(out)])
    assert rc == 1
    assert "non-finite sample values" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_method_is_exit_1(cli_files, tmp_path, capsys):
    _, task_path, model_path = cli_files
    rc = cli.main(["ablate", "--model", model_path, "--data", task_path,
                   "--methods", "cdl,nope", "--seeds", "0",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("classes", [3, 5])
def test_cli_evaluate_class_mismatch_is_exit_1(cli_files, tmp_path, capsys,
                                               classes):
    _, task_path, _ = cli_files
    net = network.init_network(network.default_spec(num_classes=classes),
                               seed=0)
    model_path = tmp_path / "model.txt"
    model_path.write_text(network.serialize(net))
    rc = cli.main(["evaluate", "--model", str(model_path), "--data",
                   task_path])
    assert rc == 1
    assert f"error: model has {classes} classes, task has 4" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--methods", ","), ("--seeds", ""),
                                        ("--seeds", "1,")])
def test_cli_ablate_empty_list_is_exit_1(cli_files, tmp_path, capsys, flag,
                                         value):
    _, task_path, model_path = cli_files
    lists = {"--methods": "cdl", "--seeds": "0", flag: value}
    out = tmp_path / "x.csv"
    rc = cli.main(["ablate", "--model", model_path, "--data", task_path,
                   "--methods", lists["--methods"], "--seeds",
                   lists["--seeds"], "--epochs", "1", "--out", str(out)])
    assert rc == 1
    assert f"error: {flag} " in capsys.readouterr().err
    assert not out.exists()


def test_cli_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_gradcheck_failure_is_exit_3(monkeypatch, capsys):
    from ssht import gradcheck

    def fake(seed=0):
        return [gradcheck.SuiteReport(name="stub", max_rel_err=1.0,
                                      checked=1, skipped=0, passed=False)]

    monkeypatch.setattr(cli.gradcheck, "run_all", fake)
    assert cli.main(["gradcheck"]) == 3
    capsys.readouterr()
