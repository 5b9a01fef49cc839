"""Report persistence and command-line round-trip tests."""

import argparse
import contextlib
import csv
import functools
import inspect
import io
import math
import os
import re
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ssht import cli, data, network, pipeline, reports
from ssht.fileio import read_text


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


def test_aborted_report_round_trips_with_its_reason(task, model_text):
    report, _ = pipeline.adapt(model_text, task,
                               pipeline.AdaptConfig(lr=1e20, epochs=2))
    assert report.aborted_epoch == 1
    assert report.abort_reason.startswith("step ")
    assert "overflow" in report.abort_reason
    text = reports.serialize_report(report)
    assert f"\nabort_reason = {report.abort_reason}\n" in text
    loaded = reports.deserialize_report(text)
    assert loaded == report
    assert reports.serialize_report(loaded) == text


def test_report_without_an_abort_reason_loads(small_report):
    # a clean run writes no abort_reason line; a report written before the
    # line existed, aborted or not, loads with abort_reason None; a run
    # aborts at the epoch after its last record, here the fourth
    text = reports.serialize_report(small_report)
    assert "abort_reason" not in text
    assert reports.deserialize_report(text).abort_reason is None
    aborted = text.replace("aborted_epoch = none", "aborted_epoch = 4")
    loaded = reports.deserialize_report(aborted)
    assert loaded.aborted_epoch == 4 and loaded.abort_reason is None


def test_report_epoch_keys_run_from_1_to_their_count(small_report):
    # epoch lines are read by key, as serialize_report writes them: N
    # epoch. keys must be epoch.1 ... epoch.N
    text = reports.serialize_report(small_report)
    assert len(small_report.records) == 3
    first = next(ln for ln in text.splitlines() if ln.startswith("epoch.1 "))
    padded = text.replace(first, first + "\n" + first.replace(
        "epoch.1 ", "epoch.01 ", 1))
    gap = text.replace("\nepoch.3 = ", "\nepoch.7 = ")
    for broken, missing in ((padded, "epoch.4"), (gap, "epoch.3")):
        with pytest.raises(reports.ReportFormatError,
                           match=f"^missing field {missing}$"):
            reports.deserialize_report(broken)
    aborted = replace(small_report, aborted_epoch=4,
                      abort_reason="step 1: overflow encountered in matmul")
    for report in (small_report, aborted):
        text = reports.serialize_report(report)
        assert reports.serialize_report(
            reports.deserialize_report(text)) == text


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


def _nth_value(key, n, value):
    """An edit of a report's text: value n (from 0) of key's line becomes
    value."""
    return lambda text: re.sub(rf"^({re.escape(key)} = (?:\S+ ){{{n}}})\S+",
                               rf"\g<1>{value}", text, count=1, flags=re.M)


def _first_value(key, value):
    return _nth_value(key, 0, value)


def _one_record_aborted_at(epoch):
    """An edit of a 3-epoch report's text: only epoch.1 is left, and the
    run reads as aborted at epoch."""
    return lambda text: _first_value("aborted_epoch", epoch)(
        re.sub(r"^epoch\.[23] = .*\n", "", text, flags=re.M))


@pytest.mark.parametrize("edit,field", [
    (_first_value("final.accuracy", "nan"), "final.accuracy"),
    (_first_value("final.accuracy", "inf"), "final.accuracy"),
    (_first_value("final.per_class", "inf"), "final.per_class"),
    (_first_value("epoch.1", "nan"), "epoch.1"),
    (_first_value("epoch.1", "-1e999"), "epoch.1"),
    (_first_value("final.confusion", "-5"), "final.confusion"),
    (_first_value("passes.unlabeled_weak", "-3"), "passes.unlabeled_weak"),
    (_first_value("passes.unlabeled_strong", "-1"), "passes.unlabeled_strong"),
    (_first_value("aborted_epoch", "-2"), "aborted_epoch"),
    (_first_value("aborted_epoch", "0"), "aborted_epoch"),
    (lambda text: text + "abort_reason = step 1: overflow\n", "abort_reason"),
    (_first_value("final.accuracy", "5.0"), "final.accuracy"),
    (_first_value("final.accuracy", "-0.25"), "final.accuracy"),
    (_first_value("final.per_class", "-0.5"), "final.per_class"),
    (_nth_value("final.per_class", 1, "1.5"), "final.per_class"),
    (_nth_value("epoch.1", 4, "1.5"), "epoch.1: mask_rate"),
    (_nth_value("epoch.2", 5, "-0.1"), "epoch.2: labeled_acc"),
    (_nth_value("epoch.3", 6, "2.0"), "epoch.3: test_acc"),
    (_first_value("aborted_epoch", "3"), "aborted_epoch"),
    (_first_value("aborted_epoch", "5"), "aborted_epoch"),
    (_one_record_aborted_at(7), "aborted_epoch")],
    ids=["accuracy-nan", "accuracy-inf", "per-class-inf", "epoch-nan",
         "epoch-overflow", "negative-confusion", "negative-weak-passes",
         "negative-strong-passes", "aborted-epoch-negative",
         "aborted-epoch-zero", "abort-reason-without-abort",
         "accuracy-above-one", "accuracy-negative", "per-class-negative",
         "per-class-above-one", "mask-rate-above-one",
         "labeled-acc-negative", "test-acc-above-one",
         "aborted-epoch-at-a-record", "aborted-epoch-past-the-next",
         "aborted-epoch-7-after-one-record"])
def test_report_values_adapt_cannot_write_are_rejected(small_report, edit,
                                                       field):
    # a report from adapt loads, and each edit makes it one that adapt
    # could never have written: the load fails and names the field
    text = reports.serialize_report(small_report)
    broken = edit(text)
    assert broken != text
    reports.deserialize_report(text)
    with pytest.raises(reports.ReportFormatError, match=re.escape(field)):
        reports.deserialize_report(broken)


# a count between 2**63 and 2**64: beside int64 tokens, numpy once read
# it, and so the whole list, as floats
PAST_INT64 = "12345678901234567890"


def test_report_confusion_count_past_int64_is_rejected(small_report,
                                                       tmp_path):
    path = tmp_path / "report.txt"
    edit = _nth_value("final.confusion", 3, PAST_INT64)
    path.write_text(edit(reports.serialize_report(small_report)))
    with pytest.raises(reports.ReportFormatError,
                       match=r"^bad field final\.confusion: .*int64"):
        reports.read_report(str(path))


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


def test_cli_ablate_flags_aborted_cells(cli_files, tmp_path):
    # --lr 1e308 overflows a step of every cell: the grid still exits 0,
    # each row names its abort, no method has a cell to summarize, and
    # stderr holds one warning line per cell
    _, task_path, model_path = cli_files
    out = str(tmp_path / "g.csv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(["ablate", "--model", model_path, "--data", task_path,
                       "--seeds", "0,1", "--lr", "1e308", "--epochs", "1",
                       "--out", out])
    assert rc == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    cells, summary = rows[1:9], rows[11:]
    assert [(r[0], r[1]) for r in cells] == [
        (m, s) for m in ("cdl", "cdl_no_cl", "cdl_no_dl", "s_plus_t")
        for s in ("0", "1")]
    assert all(r[5].startswith("aborted at epoch 1: step ") for r in cells)
    assert all(r[3] == "" for r in cells)  # no epoch, so no diversity
    assert [r[:2] for r in summary] == [
        [m, "0"] for m in ("cdl", "cdl_no_cl", "cdl_no_dl", "s_plus_t")]
    assert err.getvalue().splitlines() == [
        f"warning: cell {r[0]} seed {r[1]} {r[5]}" for r in cells]


def test_cli_ablate_summarizes_only_the_completed_cells(cli_files, tmp_path,
                                                        capsys):
    # --lambda-d 1e308 overflows a step of the methods with a diversity
    # term, so cdl and cdl_no_cl abort in epoch 1 and cdl_no_dl and
    # s_plus_t complete: each method's summary, in the CSV and on stdout,
    # covers its completed cells alone, and each aborted cell warns once
    _, task_path, model_path = cli_files
    out = str(tmp_path / "mixed.csv")
    rc = cli.main(["ablate", "--model", model_path, "--data", task_path,
                   "--seeds", "0,1", "--epochs", "2", "--lambda-d", "1e308",
                   "--out", out])
    assert rc == 0
    captured = capsys.readouterr()
    with open(out) as f:
        rows = list(csv.reader(f))
    cells, summary = rows[1:9], rows[11:]
    methods = ("cdl", "cdl_no_cl", "cdl_no_dl", "s_plus_t")
    aborted = {"cdl", "cdl_no_cl"}
    assert [(r[0], r[1]) for r in cells] == [
        (m, s) for m in methods for s in ("0", "1")]
    for r in cells:
        assert r[5].startswith("aborted at epoch 1: step ") == (r[0] in aborted)
        assert (r[3] == "") == (r[0] in aborted)
    lines = []
    assert [r[0] for r in summary] == list(methods)
    for method, row in zip(methods, summary):
        if method in aborted:
            assert row == [method, "0", "", "", "", ""]
            lines.append(f"{method:10s} all cells aborted")
            continue
        done = [r for r in cells if r[0] == method]
        accs = np.array([float(r[2]) for r in done])
        divs = np.array([float(r[3]) for r in done])
        want = [float(accs.mean()), float(accs.std()), float(divs.mean()),
                float(divs.std())]
        assert row == [method, "2"] + [repr(v) for v in want]
        lines.append(f"{method:10s} accuracy {want[0]:.4f} +/- "
                     f"{want[1]:.4f}  diversity {want[2]:.4f}")
    assert captured.out.splitlines() == lines + [f"wrote {out}"]
    assert captured.err.splitlines() == [
        f"warning: cell {r[0]} seed {r[1]} {r[5]}" for r in cells
        if r[0] in aborted]


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


def test_cli_gen_data_too_many_classes_is_exit_1(tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert cli.main(["gen-data", "--classes", "17", "--out", str(out)]) == 1
    assert "error: num_classes must be in [2, 16], got 17" in \
        capsys.readouterr().err
    assert not out.exists()


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


def test_cli_train_source_one_row_source_split_is_exit_1(tmp_path, capsys):
    task_path, out = str(tmp_path / "task.txt"), tmp_path / "m.txt"
    assert cli.main(["gen-data", "--n-source", "1", "--out", task_path]) == 0
    rc = cli.main(["train-source", "--data", task_path, "--seed", "0",
                   "--out", str(out)])
    assert rc == 1
    assert "error: source split has 1 row; train_source needs at least 2 " \
        "(one is held out for validation)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_source_non_finite_lr_is_exit_1(cli_files, tmp_path,
                                                  capsys):
    _, task_path, _ = cli_files
    out = tmp_path / "m.txt"
    for value in ("nan", "inf"):
        rc = cli.main(["train-source", "--data", task_path, "--seed", "0",
                       "--lr", value, "--out", str(out)])
        assert rc == 1
        assert f"error: learning_rate must be finite and positive, " \
            f"got {value}" in capsys.readouterr().err
        assert not out.exists()


def test_cli_train_source_diverging_lr_is_exit_1(cli_files, tmp_path,
                                                 capsys):
    # the step's floating-point guard turns the overflow into one error
    # line: no numpy warning, no traceback, no model
    _, task_path, _ = cli_files
    out = tmp_path / "m.txt"
    rc = cli.main(["train-source", "--data", task_path, "--seed", "0",
                   "--lr", "1e308", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: source training diverged at epoch 1, "
                          "step ")
    assert err.count("\n") == 1 and "overflow" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--lambda-d", "--lr"])
def test_cli_adapt_overflowing_step_aborts_with_only_the_warning(
        cli_files, tmp_path, flag):
    # --lambda-d 1e308 gives finite step losses whose epoch sum overflows;
    # --lr 1e308 overflows inside the step. Each run aborts: no total of
    # -inf in the report or its CSV, no numpy warning on stderr.
    _, task_path, model_path = cli_files
    report_path = str(tmp_path / "r.txt")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(["adapt", "--model", model_path, "--data", task_path,
                       "--seed", "0", "--epochs", "1", flag, "1e308",
                       "--out-model", str(tmp_path / "m.txt"),
                       "--report", report_path])
    assert rc == 0
    text = read_text(report_path)
    assert "inf" not in text and "inf" not in read_text(report_path + ".csv")
    report = reports.deserialize_report(text)
    assert report.aborted_epoch == 1 and report.records == []
    assert report.abort_reason.startswith("step ")
    assert "overflow" in report.abort_reason
    assert err.getvalue() == (f"warning: run aborted at epoch 1 "
                              f"({report.abort_reason}); model and report "
                              f"hold the last good epoch\n")


# every adapt hyperparameter flag, with a value that NaN or inf slips past
# a plain `x < 0` check, and the error it must give
BAD_ADAPT_FLAGS = [
    ("--lr", "nan", "learning_rate must be finite and positive, got nan"),
    ("--lr", "inf", "learning_rate must be finite and positive, got inf"),
    ("--lambda-u", "nan", "lambda_u must be finite and non-negative, got nan"),
    ("--lambda-d", "inf", "lambda_d must be finite and non-negative, got inf"),
]


@pytest.mark.parametrize("flag,value,message", BAD_ADAPT_FLAGS)
def test_cli_adapt_non_finite_setting_is_exit_1(cli_files, tmp_path, capsys,
                                                flag, value, message):
    _, task_path, model_path = cli_files
    rc = cli.main(["adapt", "--model", model_path, "--data", task_path,
                   "--seed", "0", "--epochs", "1", flag, value,
                   "--out-model", str(tmp_path / "m.txt"),
                   "--report", str(tmp_path / "r.txt")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value,message", BAD_ADAPT_FLAGS)
def test_cli_ablate_non_finite_setting_is_exit_1(cli_files, tmp_path, capsys,
                                                 flag, value, message):
    _, task_path, model_path = cli_files
    out = tmp_path / "x.csv"
    rc = cli.main(["ablate", "--model", model_path, "--data", task_path,
                   "--seeds", "0", "--epochs", "1", flag, value,
                   "--out", str(out)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
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


@pytest.mark.parametrize("key,token,words", [
    ("split.test.y", PAST_INT64, "int64"),
    ("split.test.x", "nan", "non-finite")])
def test_cli_evaluate_bad_task_number_is_one_error_line(cli_files, tmp_path,
                                                        capsys, key, token,
                                                        words):
    _, task_path, model_path = cli_files
    bad_path = tmp_path / "bad_task.txt"
    bad_path.write_text(_nth_value(key, 1, token)(read_text(task_path)))
    rc = cli.main(["evaluate", "--model", model_path, "--data",
                   str(bad_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: bad field {key}: ") and \
        err.count("\n") == 1
    assert words in err and "Traceback" not in err


def _empty_split(text, split):
    """`text` with every line of one split emptied and its count set to 0."""
    lines = []
    for ln in text.splitlines():
        head = ln.split(" = ", 1)[0]
        if head.startswith(f"split.{split}."):
            ln = head + (" = 0" if head.endswith(".count") else " = ")
        lines.append(ln)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("split", ["source", "labeled", "unlabeled", "test"])
def test_cli_empty_split_is_exit_1(cli_files, tmp_path, capsys, split):
    _, task_path, model_path = cli_files
    with open(task_path) as f:
        bad_path = tmp_path / "bad_task.txt"
        bad_path.write_text(_empty_split(f.read(), split))
    message = f"split {split}: count must be >= 1, got 0"
    with pytest.raises(data.DataFormatError, match=message):
        data.load_task(str(bad_path))
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["evaluate", "--model", model_path],
                 ["adapt", "--model", model_path, "--seed", "0",
                  "--out-model", str(out / "m.txt"),
                  "--report", str(out / "r.txt")],
                 ["train-source", "--seed", "0", "--out", str(out / "s.txt")]):
        assert cli.main(argv + ["--data", str(bad_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


# ------------------------------------------- cli flags and library defaults

def _capture(monkeypatch, module, name, then=None):
    """Replace module.name with a stub that records its arguments and
    fails, so the command stops with exit 1 right after the call, or
    returns then(*args, **kwargs) if then is given. The stub keeps the
    signature the CLI matches its flags against."""
    calls = []

    @functools.wraps(getattr(module, name))
    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        if then is None:
            raise ValueError("stub")
        return then(*args, **kwargs)

    monkeypatch.setattr(module, name, stub)
    return calls


def test_cli_gen_data_defaults_are_the_library_defaults(tmp_path, monkeypatch,
                                                        capsys):
    calls = _capture(monkeypatch, data, "generate_task")
    assert cli.main(["gen-data", "--out", str(tmp_path / "t.txt")]) == 1
    assert calls == [((data.DomainShiftSpec(),), {})]
    capsys.readouterr()


def test_cli_gen_data_converts_given_flags(tmp_path, monkeypatch, capsys):
    calls = _capture(monkeypatch, data, "generate_task")
    assert cli.main(["gen-data", "--classes", "3", "--rotation-deg", "45",
                     "--translation", "1,-2", "--imbalance", "4",
                     "--n-test", "50", "--seed", "9",
                     "--out", str(tmp_path / "t.txt")]) == 1
    spec = data.DomainShiftSpec(num_classes=3, shift_rotation=math.pi / 4,
                                shift_translation=(1.0, -2.0),
                                source_imbalance_ratio=4.0)
    assert calls == [((spec,), {"n_test": 50, "seed": 9})]
    capsys.readouterr()


def test_cli_train_source_defaults_are_the_library_defaults(
        cli_files, tmp_path, monkeypatch, capsys):
    _, task_path, _ = cli_files
    calls = _capture(monkeypatch, pipeline, "train_source")
    assert cli.main(["train-source", "--data", task_path, "--seed", "4",
                     "--out", str(tmp_path / "m.txt")]) == 1
    (args, kwargs), = calls
    assert kwargs == {"spec": network.default_spec(input_dim=2, num_classes=4),
                      "seed": 4}
    capsys.readouterr()


@pytest.mark.parametrize("command", ["adapt", "ablate"])
def test_cli_adapt_defaults_are_the_library_defaults(cli_files, tmp_path,
                                                     monkeypatch, capsys,
                                                     command):
    # ablate's cells run on after the stub: it records each cell's config
    # and adapts for one epoch with the real adapt
    _, task_path, model_path = cli_files
    adapt = pipeline.adapt
    then = None if command == "adapt" else \
        lambda model, task, cfg: adapt(model, task, replace(cfg, epochs=1))
    calls = _capture(monkeypatch, pipeline, "adapt", then)
    files = {"adapt": ["--seed", "3", "--out-model", str(tmp_path / "m.txt"),
                       "--report", str(tmp_path / "r.txt")],
             "ablate": ["--seeds", "3", "--out", str(tmp_path / "x.csv")]}
    assert cli.main([command, "--model", model_path, "--data", task_path]
                    + files[command]) == (1 if command == "adapt" else 0)
    methods = ["cdl"] if command == "adapt" else \
        ["cdl", "cdl_no_cl", "cdl_no_dl", "s_plus_t"]
    assert [args[2] for args, _ in calls] == \
        [pipeline.AdaptConfig(method=m, seed=3) for m in methods]
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--noise-std", "--scale"])
def test_cli_gen_data_overflowing_spec_is_exit_1(tmp_path, capsys, flag):
    out = tmp_path / "task.txt"
    rc = cli.main(["gen-data", flag, "1e308", "--out", str(out)])
    assert rc == 1
    assert "non-finite sample values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,split", [("--n-source", "source"),
                                        ("--n-unlabeled", "unlabeled"),
                                        ("--n-test", "test")])
def test_cli_gen_data_count_numpy_cannot_index_is_exit_1(tmp_path, capsys,
                                                         flag, split):
    rc = cli.main(["gen-data", flag, "99999999999999999999",
                   "--out", str(tmp_path / "task.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: split {split}: 99999999999999999999 rows" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_out_of_memory_is_exit_1(tmp_path, monkeypatch, capsys):
    # what numpy raises for --n-unlabeled 1000000000000, without the
    # allocation
    @functools.wraps(data.generate_task)
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                          "shape (1000000000000,) and data type int64")

    monkeypatch.setattr(data, "generate_task", no_memory)
    rc = cli.main(["gen-data", "--n-unlabeled", "1000000000000",
                   "--out", str(tmp_path / "task.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: Unable to allocate 7.28 TiB" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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


def test_cli_evaluate_input_dim_mismatch_is_exit_1(cli_files, tmp_path,
                                                   capsys):
    # the 2-input model against a 3-input task: adapt's message, not the
    # network's batch-shape one
    _, _, model_path = cli_files
    task_path = str(tmp_path / "task3.txt")
    assert cli.main(["gen-data", "--input-dim", "3", "--translation",
                     "0,1,2", "--out", task_path]) == 0
    capsys.readouterr()
    rc = cli.main(["evaluate", "--model", model_path, "--data", task_path])
    assert rc == 1
    assert "error: model expects input_dim 2, task provides 3" in \
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


# the flags of settings that no caller changed, deleted with them
REMOVED_FLAGS = [["--labeled-aug", "weak"], ["--momentum", "0.9"],
                 ["--weight-decay", "0.0005"]]


@pytest.mark.parametrize("removed", REMOVED_FLAGS, ids=lambda f: f[0][2:])
@pytest.mark.parametrize("command", ["adapt", "ablate"])
def test_cli_removed_setting_flag_is_a_usage_error(cli_files, tmp_path, capsys,
                                                   command, removed):
    _, task_path, model_path = cli_files
    files = {"adapt": ["--seed", "0", "--out-model", str(tmp_path / "m.txt"),
                       "--report", str(tmp_path / "r.txt")],
             "ablate": ["--seeds", "0", "--out", str(tmp_path / "x.csv")]}
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--model", model_path, "--data", task_path]
                 + files[command] + removed)
    assert exc.value.code == 2
    assert removed[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _destinations(command):
    """The destinations of one subcommand's arguments."""
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions}


def test_every_adapt_setting_has_a_flag():
    """No AdaptConfig field is settable from the library only: each is
    a destination of adapt, and of ablate but for the method and the
    seed, which its --methods and --seeds lists give."""
    names = {f.name for f in fields(pipeline.AdaptConfig)}
    assert names - _destinations("adapt") == set()
    assert names - _destinations("ablate") == {"method", "seed"}


def test_cli_gradcheck_failure_is_exit_3(monkeypatch, capsys):
    from ssht import gradcheck

    def fake(seed=0):
        return [gradcheck.SuiteReport(name="stub", max_rel_err=1.0,
                                      checked=1, skipped=0, passed=False)]

    monkeypatch.setattr(cli.gradcheck, "run_all", fake)
    assert cli.main(["gradcheck"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv,flag", [
    (["gen-data", "--translation", "a,b"], "--translation"),
    (["train-source", "--seed", "0", "--hidden", "64,,64"], "--hidden")])
def test_cli_unparsable_list_flag_is_exit_1(cli_files, tmp_path, capsys, argv,
                                            flag):
    _, task_path, _ = cli_files
    data_flag = ["--data", task_path] if argv[0] == "train-source" else []
    rc = cli.main(argv + data_flag + ["--out", str(tmp_path / "out.txt")])
    assert rc == 1
    assert f"error: {flag} must be comma-separated " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["garbage-model", "class-mismatch",
                                  "unlabeled-batch"])
def test_cli_ablate_stops_before_a_grid_every_cell_would_fail(
        cli_files, tmp_path, monkeypatch, capsys, case):
    _, task_path, model_path = cli_files
    extra = []
    if case == "garbage-model":
        model_path = str(tmp_path / "garbage.txt")
        with open(model_path, "w") as f:
            f.write("garbage\n")
        message = "expected header 'ssht-model/1'"
    elif case == "class-mismatch":
        task_path = str(tmp_path / "task3.txt")
        assert cli.main(["gen-data", "--classes", "3", "--out", task_path]) == 0
        message = "model has 4 classes, task has 3"
    else:
        extra = ["--unlabeled-batch", "5000"]
        message = "unlabeled_batch must be in [1, 1000]"
    capsys.readouterr()
    loaded, adapts = [], []
    load_task, adapt = data.load_task, pipeline.adapt
    monkeypatch.setattr(data, "load_task",
                        lambda path: loaded.append(load_task(path)) or loaded[-1])
    monkeypatch.setattr(pipeline, "adapt",
                        lambda *a: adapts.append(1) or adapt(*a))
    out = tmp_path / "x.csv"
    rc = cli.main(["ablate", "--model", model_path, "--data", task_path,
                   "--seeds", "0,1", "--epochs", "1", "--out", str(out)]
                  + extra)
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists() and adapts == []
    task, = loaded
    assert (task.source_reads, task.unlabeled_label_reads) == (0, 0)


# the split sizes of the task in the batch-size property test
N_LABELED, N_UNLABELED = 12, 240


def _batch_size(split: int):
    """A --labeled-batch or --unlabeled-batch value: absent, an edge of
    [1, split], any small integer, or a 20-digit one of either sign."""
    twenty_digits = [10 ** 19, 10 ** 20 - 1]
    return st.none() | st.sampled_from([0, -1, 1, split, split + 1]) | \
        st.integers(-3, split + 3) | \
        st.sampled_from(twenty_digits + [-v for v in twenty_digits])


def _small_cli_files(root, source_epochs=1):
    """A task with N_LABELED labeled and N_UNLABELED unlabeled rows, and
    a source model of it, written under root: their paths."""
    task_path = os.path.join(root, "task.txt")
    model_path = os.path.join(root, "model.txt")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--n-source", "200", "--n-unlabeled",
                         str(N_UNLABELED), "--n-test", "100",
                         "--out", task_path]) == 0
        assert cli.main(["train-source", "--data", task_path, "--seed", "0",
                         "--epochs", str(source_epochs),
                         "--out", model_path]) == 0
    return task_path, model_path


def test_cli_adapt_overflowing_evaluation_aborts_with_only_the_warning(
        tmp_path):
    # one step per epoch leaves weights that overflow nothing in the step
    # but overflow the epoch's evaluation: the run aborts at epoch 1 and
    # the model and the report hold the source model
    task_path, model_path = _small_cli_files(str(tmp_path), source_epochs=2)
    out_model, report_path = str(tmp_path / "m.txt"), str(tmp_path / "r.txt")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(["adapt", "--model", model_path, "--data", task_path,
                       "--seed", "0", "--epochs", "1",
                       "--unlabeled-batch", str(N_UNLABELED),
                       "--labeled-batch", str(N_LABELED), "--lr", "1e308",
                       "--out-model", out_model, "--report", report_path])
    assert rc == 0
    report = reports.read_report(report_path)
    assert report.aborted_epoch == 1 and report.records == []
    assert report.abort_reason.startswith("evaluation: overflow")
    assert err.getvalue() == (f"warning: run aborted at epoch 1 "
                              f"({report.abort_reason}); model and report "
                              f"hold the last good epoch\n")
    source = network.deserialize(read_text(model_path))
    assert np.array_equal(network.deserialize(read_text(out_model)).flat,
                          source.flat)
    task = data.load_task(task_path)
    assert report.final_accuracy == pipeline.evaluate(
        source, task.test_x, task.test_y).accuracy


def _adapt_argv(command, task_path, model_path, out):
    """adapt (cdl) or ablate (its default grid) at --epochs 1 and seed 0,
    writing into the directory out."""
    argv = [command, "--model", model_path, "--data", task_path,
            "--epochs", "1"]
    if command == "adapt":
        return argv + ["--seed", "0", "--method", "cdl",
                       "--out-model", os.path.join(out, "m.txt"),
                       "--report", os.path.join(out, "r.txt")]
    return argv + ["--seeds", "0", "--out", os.path.join(out, "g.csv")]


def _check_written(command, out):
    """Check that the files a successful adapt or ablate wrote into out
    load; return adapt's report, or ablate's grid rows (one per cell)."""
    written = sorted(os.listdir(out))
    if command == "adapt":
        assert written == ["m.txt", "r.txt", "r.txt.csv"]
        network.deserialize(read_text(os.path.join(out, "m.txt")))
        report = reports.read_report(os.path.join(out, "r.txt"))
        with open(os.path.join(out, "r.txt.csv")) as f:
            assert len(list(csv.reader(f))) == 1 + len(report.records)
        return report
    assert written == ["g.csv"]
    with open(os.path.join(out, "g.csv")) as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "method" and len(rows) == 11
    return rows[1:5]


def test_cli_batch_size_flags_exit_cleanly():
    """adapt and ablate at --epochs 1 either succeed and write files that
    load, or exit 1 with an error line and write nothing."""
    with tempfile.TemporaryDirectory() as root:
        task_path, model_path = _small_cli_files(root)

        @settings(max_examples=60, deadline=None)
        @given(command=st.sampled_from(["adapt", "ablate"]),
               lb=_batch_size(N_LABELED), ub=_batch_size(N_UNLABELED))
        @example(command="adapt", lb=N_LABELED + 1, ub=N_UNLABELED)
        @example(command="ablate", lb=N_LABELED, ub=N_UNLABELED + 1)
        @example(command="adapt", lb=-10 ** 19, ub=10 ** 19)
        @example(command="ablate", lb=0, ub=1)
        @example(command="ablate", lb=1, ub=1)
        def check(command, lb, ub):
            out = tempfile.mkdtemp(dir=root)
            argv = _adapt_argv(command, task_path, model_path, out)
            argv += [f"--labeled-batch={lb}"] if lb is not None else []
            argv += [f"--unlabeled-batch={ub}"] if ub is not None else []
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            if ub is None:
                ub = pipeline.AdaptConfig().unlabeled_batch
            fits = (lb is None or 1 <= lb <= N_LABELED) and \
                1 <= ub <= N_UNLABELED
            assert "Traceback" not in err.getvalue()
            assert rc == (0 if fits else 1), err.getvalue()
            if rc == 1:
                assert err.getvalue().startswith("error: ")
                assert os.listdir(out) == []
                return
            written = _check_written(command, out)
            if command == "adapt":
                assert len(written.records) == 1
            else:
                assert all(row[-1] == "" for row in written)
            assert err.getvalue() == ""

        check()


# adapt's real-valued setting flags -> the word an error that rejects the
# value names it by (lr is the optimizer's learning_rate)
FLOAT_SETTINGS = {"--tau": "tau", "--lambda-u": "lambda_u",
                  "--lambda-d": "lambda_d", "--lr": "learning_rate"}
FLOAT_VALUES = ["0", "-0.0", "0.5", "1", "-1", "nan", "inf", "-inf", "1e308"]


def _validate_error(values):
    """The message AdaptConfig.validate gives for the drawn values (flag ->
    text), or None if it accepts them."""
    config = pipeline.AdaptConfig(**{flag[2:].replace("-", "_"): float(v)
                                     for flag, v in values.items()})
    try:
        config.validate()
    except ValueError as e:
        return str(e)
    return None


def test_cli_float_setting_flags_exit_cleanly():
    """adapt and ablate at --epochs 1, each real-valued setting absent or
    set to an edge value: exit 1 with AdaptConfig.validate's error,
    which names a rejected setting, and write nothing; or exit 0 and
    write files that load, with only the warning line on stderr if the
    run aborted (a huge learning rate overflows a step), or one per
    aborted grid cell."""
    with tempfile.TemporaryDirectory() as root:
        task_path, model_path = _small_cli_files(root)

        @settings(max_examples=80, deadline=None)
        @given(command=st.sampled_from(["adapt", "ablate"]),
               values=st.fixed_dictionaries(
                   {}, optional={flag: st.sampled_from(FLOAT_VALUES)
                                 for flag in FLOAT_SETTINGS}))
        @example(command="adapt", values={})
        @example(command="adapt", values={"--lr": "1e308"})
        @example(command="ablate", values={"--lambda-u": "1e308"})
        @example(command="ablate", values={"--lr": "1e308"})
        @example(command="adapt", values={"--tau": "1"})
        @example(command="ablate", values={"--tau": "-0.0", "--lr": "nan"})
        def check(command, values):
            out = tempfile.mkdtemp(dir=root)
            argv = _adapt_argv(command, task_path, model_path, out)
            argv += [f"{flag}={v}" for flag, v in values.items()]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            err = err.getvalue()
            assert "Traceback" not in err
            expected = _validate_error(values)
            assert rc == (0 if expected is None else 1), err
            if rc == 1:
                assert err == f"error: {expected}\n"
                assert any(FLOAT_SETTINGS[flag] in err
                           for flag, v in values.items()
                           if _validate_error({flag: v}) is not None), err
                assert os.listdir(out) == []
                return
            written = _check_written(command, out)
            if command == "ablate":
                # one warning line per aborted cell, in grid order
                assert all(row[-1].startswith("aborted at epoch 1: ")
                           for row in written if row[-1])
                assert err == "".join(
                    f"warning: cell {row[0]} seed {row[1]} {row[-1]}\n"
                    for row in written if row[-1])
            elif written.aborted_epoch is not None:
                assert err == (f"warning: run aborted at epoch 1 "
                               f"({written.abort_reason}); model and report "
                               f"hold the last good epoch\n")
            else:
                assert err == ""

        check()


# gen-data's count flags -> the words an error that rejects the count
# names it by: its setting, or the split it sizes
COUNT_NAMES = {"n_source": ("n_source", "split source", "source split"),
               "shots": ("shots", "split labeled"),
               "n_unlabeled": ("n_unlabeled", "split unlabeled"),
               "n_test": ("n_test", "split test")}
# what replaces a count that a draw breaks: the edge below 1, negatives
# and 20-digit values of either sign, all rejected before any allocation
BAD_COUNTS = [0, -1, -2, 10 ** 19, 10 ** 20 - 1, -10 ** 19, -(10 ** 20 - 1)]


@st.composite
def _gen_data_counts(draw):
    """n_source, shots, n_unlabeled and n_test: each absent or small
    (n_unlabeled sometimes one below or at its bound of 20 * shots *
    classes rows), then up to two of them replaced from BAD_COUNTS."""
    shots = draw(st.none() | st.integers(1, 4))
    bound = 20 * (3 if shots is None else shots) * 4
    counts = [draw(st.none() | st.integers(1, 60)), shots,
              draw(st.none() | st.integers(1, 400)
                   | st.sampled_from([bound - 1, bound])),
              draw(st.none() | st.integers(1, 60))]
    for i in draw(st.sets(st.integers(0, 3), max_size=2)):
        counts[i] = draw(st.sampled_from(BAD_COUNTS))
    return tuple(counts)


def _rejected_counts(n_source, shots, n_unlabeled, n_test):
    """The counts of a gen-data call that generate_task rejects."""
    defaults = inspect.signature(data.generate_task).parameters
    drawn = {"n_source": n_source, "shots": shots,
             "n_unlabeled": n_unlabeled, "n_test": n_test}
    n = {k: defaults[k].default if v is None else v for k, v in drawn.items()}
    max_rows = np.iinfo(np.intp).max
    rows = {"n_source": n["n_source"], "shots": 4 * n["shots"],
            "n_unlabeled": n["n_unlabeled"], "n_test": n["n_test"]}
    bad = {k for k, r in rows.items() if not 1 <= r <= max_rows}
    if n["shots"] >= 1 and n["n_unlabeled"] < 20 * rows["shots"]:
        bad.add("n_unlabeled")
    return bad


def test_cli_gen_data_counts_exit_cleanly():
    """gen-data, then train-source --epochs 1 on the task it wrote, either
    succeed and write a file that loads, or exit 1 with an error line
    that names a count they reject, and write nothing."""
    with tempfile.TemporaryDirectory() as root:

        def run(argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            assert "Traceback" not in err.getvalue()
            return rc, err.getvalue()

        def check_error(err, rejected):
            assert err.startswith("error: ")
            assert any(word in err.splitlines()[0] for name in rejected
                       for word in COUNT_NAMES[name]), (rejected, err)

        @settings(max_examples=40, deadline=None)
        @given(counts=_gen_data_counts())
        @example(counts=(1, None, None, None))
        @example(counts=(2, 1, 79, 1))
        @example(counts=(2, 1, 80, 1))
        @example(counts=(10 ** 19, None, None, -1))
        @example(counts=(None, 10 ** 20 - 1, None, None))
        def check(counts):
            out = tempfile.mkdtemp(dir=root)
            task_path = os.path.join(out, "task.txt")
            argv = ["gen-data", "--out", task_path]
            for flag, value in zip(("--n-source", "--shots", "--n-unlabeled",
                                    "--n-test"), counts):
                argv += [f"{flag}={value}"] if value is not None else []
            rejected = _rejected_counts(*counts)
            rc, err = run(argv)
            assert rc == (1 if rejected else 0), err
            if rc == 1:
                check_error(err, rejected)
                assert os.listdir(out) == []
                return
            data.load_task(task_path)
            model_path = os.path.join(out, "model.txt")
            rc, err = run(["train-source", "--data", task_path, "--seed", "0",
                           "--epochs", "1", "--out", model_path])
            n_source = 2000 if counts[0] is None else counts[0]
            assert rc == (0 if n_source >= 2 else 1), err
            if rc == 1:
                check_error(err, {"n_source"})
                assert os.listdir(out) == ["task.txt"]
            else:
                network.deserialize(read_text(model_path))

        check()


# gen-data's counts in the spec-flag property test: small splits that
# fit every class count up to data.MAX_CLASSES at one shot
SPEC_TEST_COUNTS = ["--n-source", "40", "--shots", "1", "--n-unlabeled",
                    str(20 * data.MAX_CLASSES), "--n-test", "20"]


def _spec_rejects(values, translation):
    """The words by which an error names each drawn gen-data spec setting
    that DomainShiftSpec rejects (values: flag -> text; translation: a
    list of texts or None). A spec can also pass and still overflow a
    split's draws; see the test."""
    bad = set()
    classes = values.get("--classes")
    if classes is not None and not 2 <= classes <= data.MAX_CLASSES:
        bad.add("num_classes")
    dim = values.get("--input-dim", 2)
    if dim < 2:
        bad.add("input_dim")
    if translation is not None and len(translation) != dim or \
            translation is None and dim != 2:
        bad.add("shift_translation")
    reals = {flag: float(values[flag]) for flag in
             ("--rotation-deg", "--scale", "--imbalance", "--noise-std")
             if flag in values}
    if not all(math.isfinite(v) for v in
               list(reals.values()) + [float(t) for t in translation or []]):
        bad.add("finite")
    if not reals.get("--scale", 1.0) > 0.0:
        bad.add("shift_scale")
    if not reals.get("--imbalance", 1.0) >= 1.0:
        bad.add("source_imbalance_ratio")
    if not reals.get("--noise-std", 1.0) > 0.0:
        bad.add("noise_std")
    return bad


@st.composite
def _spec_flags(draw):
    """gen-data's spec flags, each absent or drawn: (flag -> value, the
    --translation items or None). A translation list mostly matches the
    drawn input width, or misses it by one; its items are one value with
    up to two others in it."""
    values = draw(st.fixed_dictionaries({}, optional={
        "--classes": st.sampled_from([1, 2, data.MAX_CLASSES,
                                      data.MAX_CLASSES + 1, 10 ** 19])
        | st.integers(-1, data.MAX_CLASSES + 1),
        "--input-dim": st.sampled_from([0, 1, 2, 64]) | st.integers(-1, 64),
        "--geometry": st.sampled_from(data.GEOMETRIES + ("bogus",)),
        "--rotation-deg": st.sampled_from(FLOAT_VALUES),
        "--scale": st.sampled_from(FLOAT_VALUES),
        "--imbalance": st.sampled_from(FLOAT_VALUES),
        "--noise-std": st.sampled_from(FLOAT_VALUES)}))
    if not draw(st.booleans()):
        return values, None
    dim = values.get("--input-dim", 2)
    length = max(1, draw(st.sampled_from([dim, dim, dim + 1, dim - 1])))
    translation = [draw(st.sampled_from(FLOAT_VALUES))] * length
    for i in draw(st.sets(st.integers(0, length - 1), max_size=2)):
        translation[i] = draw(st.sampled_from(FLOAT_VALUES))
    return values, translation


def test_cli_gen_data_spec_flags_exit_cleanly():
    """gen-data with its spec flags each absent or drawn: exit 2 naming
    the flag for a geometry it does not offer; exit 1 with one error
    line naming a rejected setting, or the split whose draws a finite
    1e308 overflows, and write nothing; or exit 0 with nothing on stderr
    and write a task that loads with the spec asked for."""
    with tempfile.TemporaryDirectory() as root:

        @settings(max_examples=100, deadline=None)
        @given(drawn=_spec_flags())
        @example(drawn=({"--noise-std": "1e308"}, None))
        @example(drawn=({"--scale": "1e308"}, None))
        @example(drawn=({"--rotation-deg": "1e308"}, ["1e308", "1e308"]))
        @example(drawn=({"--input-dim": 3}, ["0", "1"]))
        @example(drawn=({"--input-dim": 64}, ["0.5"] * 64))
        @example(drawn=({"--classes": data.MAX_CLASSES, "--imbalance": "1",
                         "--geometry": "two_moons_multi"}, None))
        @example(drawn=({"--classes": 10 ** 19, "--noise-std": "-0.0"}, None))
        @example(drawn=({"--geometry": "bogus"}, None))
        def check(drawn):
            values, translation = drawn
            out = tempfile.mkdtemp(dir=root)
            task_path = os.path.join(out, "task.txt")
            argv = ["gen-data", "--out", task_path] + SPEC_TEST_COUNTS
            argv += [f"{flag}={v}" for flag, v in values.items()]
            if translation is not None:
                argv.append(f"--translation={','.join(translation)}")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as e:
                    rc = e.code
            err = err.getvalue()
            assert "Traceback" not in err
            if values.get("--geometry") == "bogus":
                assert rc == 2 and "error: argument --geometry" in err, err
                assert os.listdir(out) == []
                return
            rejected = _spec_rejects(values, translation)
            if rejected or rc == 1:
                assert rc == 1, err
                assert err.startswith("error: ") and err.count("\n") == 1
                if rejected:
                    assert any(word in err for word in rejected), err
                else:
                    assert "1e308" in list(values.values()) + \
                        (translation or []), err
                    assert re.fullmatch(r"error: split \w+: the spec draws "
                                        r"non-finite sample values\n", err)
                assert os.listdir(out) == []
                return
            assert rc == 0 and err == ""
            spec = data.load_task(task_path).spec
            assert spec.num_classes == values.get("--classes", 4)
            assert spec.input_dim == values.get("--input-dim", 2)

        check()


# the rows train-source fits on in the small task: 90% of its 200 source
# rows (the other 10% are its validation split)
N_SOURCE_TRAIN = 180
# --hidden values that are not comma-separated integers
BAD_HIDDEN = ["", "3,,4", "4,", "x", "1.5"]


def _width():
    """A --hidden item or a --feature-dim value: an edge below 1, a small
    width, or a 20-digit one of either sign."""
    twenty_digits = [10 ** 19, 10 ** 20 - 1]
    return st.sampled_from([0, -1, 1, 64]) | st.integers(-2, 64) | \
        st.sampled_from(twenty_digits + [-v for v in twenty_digits])


def _train_source_rejects(lr, batch_size, hidden, feature_dim):
    """The words by which an error names each drawn train-source setting
    that the command rejects: every width is at most 64 or 20 digits
    long, and a 20-digit one makes a network numpy cannot allocate."""
    bad = set()
    if lr is not None and not 0.0 < float(lr) < math.inf:
        bad.add("learning_rate")
    if batch_size is not None and batch_size < 1:
        bad.add("batch_size")
    if isinstance(hidden, str):
        bad.add("--hidden")
    elif hidden is not None and not all(1 <= w <= 64 for w in hidden):
        bad.add("hidden_dims")
    if feature_dim is not None and not 1 <= feature_dim <= 64:
        bad.add("feature_dim")
    return bad


def test_cli_train_source_flags_exit_cleanly():
    """train-source --epochs 1 with its learning rate, batch size and
    widths each absent or drawn: exit 1 with one error line naming a
    rejected setting and write nothing, or take its steps. A run that
    overflows (only a learning rate of 1e308 does) exits 1 with the
    divergence error and writes nothing; every other run exits 0, prints
    nothing on stderr and writes a model that loads with the widths
    asked for."""
    with tempfile.TemporaryDirectory() as root:
        task_path, _ = _small_cli_files(root)

        @settings(max_examples=80, deadline=None)
        @given(lr=st.none() | st.sampled_from(FLOAT_VALUES),
               batch_size=_batch_size(N_SOURCE_TRAIN),
               hidden=st.none() | st.lists(_width(), min_size=1, max_size=3)
               | st.sampled_from(BAD_HIDDEN),
               feature_dim=st.none() | _width())
        @example(lr="1e308", batch_size=None, hidden=None, feature_dim=None)
        # one step per epoch: the validation pass overflows
        @example(lr="1e308", batch_size=10 ** 19, hidden=None,
                 feature_dim=None)
        # one step per epoch: nothing overflows
        @example(lr="1e308", batch_size=N_SOURCE_TRAIN, hidden=[64, 1],
                 feature_dim=1)
        @example(lr=None, batch_size=10 ** 19, hidden=[10 ** 20 - 1],
                 feature_dim=None)
        @example(lr=None, batch_size=None, hidden=[4 * 10 ** 18],
                 feature_dim=None)
        @example(lr=None, batch_size=None, hidden=None, feature_dim=10 ** 19)
        @example(lr="0", batch_size=0, hidden="3,,4", feature_dim=0)
        def check(lr, batch_size, hidden, feature_dim):
            out = tempfile.mkdtemp(dir=root)
            model_path = os.path.join(out, "m.txt")
            argv = ["train-source", "--data", task_path, "--seed", "0",
                    "--epochs", "1", "--out", model_path]
            for flag, value in (("--lr", lr), ("--batch-size", batch_size),
                                ("--feature-dim", feature_dim)):
                argv += [f"{flag}={value}"] if value is not None else []
            if hidden is not None:
                text = hidden if isinstance(hidden, str) else \
                    ",".join(map(str, hidden))
                argv.append(f"--hidden={text}")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            err = err.getvalue()
            assert "Traceback" not in err
            rejected = _train_source_rejects(lr, batch_size, hidden,
                                             feature_dim)
            if rejected or rc == 1:
                assert rc == 1, err
                assert err.startswith("error: ") and err.count("\n") == 1
                if rejected:
                    assert any(word in err for word in rejected), err
                else:
                    assert lr == "1e308", err
                    assert err.startswith("error: source training diverged "
                                          "at epoch 1, "), err
                assert os.listdir(out) == []
                return
            assert rc == 0 and err == ""
            spec = network.deserialize(read_text(model_path)).spec
            if hidden is not None:
                assert spec.hidden_dims == hidden
            if feature_dim is not None:
                assert spec.feature_dim == feature_dim

        check()


# evaluate's task: the small task's 4 classes and 2 input features
EVAL_CLASSES, EVAL_INPUT_DIM = 4, 2
EVAL_SPLITS = ("test", "labeled", "unlabeled")


def _tree(root):
    """Every path under root with its size and modification time."""
    return sorted((path, os.stat(path).st_size, os.stat(path).st_mtime_ns)
                  for top, dirs, files in os.walk(root)
                  for path in [top] + [os.path.join(top, f) for f in files])


def test_cli_evaluate_paths_exit_cleanly():
    """evaluate with the model's class count and input width drawn
    against the task's, --split one of its choices or not, and --model
    and --data each a model or task file, a missing path or a directory:
    a bad --split exits 2, any other rejected input exits 1, each with
    one error line naming the rejected value or path, no traceback and
    no change under the directory; a run that fits prints the accuracy
    of pipeline.evaluate on the split."""
    with tempfile.TemporaryDirectory() as root:
        # the model that fits is a trained one, so that its accuracy
        # differs between the splits
        task_path, fit_path = _small_cli_files(root, source_epochs=3)
        task = data.load_task(task_path)
        models = {(EVAL_CLASSES, EVAL_INPUT_DIM): fit_path}
        for classes in range(2, 7):
            for input_dim in range(1, 5):
                path = os.path.join(root, f"model_{classes}_{input_dim}.txt")
                if (classes, input_dim) not in models:
                    with open(path, "w") as f:
                        f.write(network.serialize(network.init_network(
                            network.default_spec(input_dim=input_dim,
                                                 num_classes=classes),
                            seed=0)))
                    models[classes, input_dim] = path
        paths = {"missing": os.path.join(root, "absent.txt"),
                 "directory": tempfile.mkdtemp(dir=root)}
        before = _tree(root)

        @settings(max_examples=60, deadline=None)
        @given(classes=st.integers(2, 6), input_dim=st.integers(1, 4),
               split=st.sampled_from(EVAL_SPLITS + ("train",)),
               model_at=st.sampled_from(["file", "missing", "directory"]),
               data_at=st.sampled_from(["file", "missing", "directory"]))
        # a model of 3 or 5 classes, or of 3 inputs, against the task
        @example(classes=3, input_dim=2, split="test", model_at="file",
                 data_at="file")
        @example(classes=5, input_dim=2, split="test", model_at="file",
                 data_at="file")
        @example(classes=4, input_dim=3, split="test", model_at="file",
                 data_at="file")
        # the model that fits, on each split
        @example(classes=4, input_dim=2, split="test", model_at="file",
                 data_at="file")
        @example(classes=4, input_dim=2, split="labeled", model_at="file",
                 data_at="file")
        @example(classes=4, input_dim=2, split="unlabeled", model_at="file",
                 data_at="file")
        @example(classes=4, input_dim=2, split="labeled",
                 model_at="directory", data_at="missing")
        def check(classes, input_dim, split, model_at, data_at):
            model_path = paths.get(model_at, models[classes, input_dim])
            data_path = paths.get(data_at, task_path)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(["evaluate", "--model", model_path,
                                   "--data", data_path, "--split", split])
                except SystemExit as e:
                    rc = e.code
            err = err.getvalue()
            assert "Traceback" not in err
            assert _tree(root) == before
            if split not in EVAL_SPLITS:
                rejected, code = f"invalid choice: '{split}'", 2
            elif model_at != "file":
                rejected, code = f"'{model_path}'", 1
            elif data_at != "file":
                rejected, code = f"'{data_path}'", 1
            elif input_dim != EVAL_INPUT_DIM:
                rejected, code = (f"model expects input_dim {input_dim}, "
                                  f"task provides {EVAL_INPUT_DIM}"), 1
            elif classes != EVAL_CLASSES:
                rejected, code = (f"model has {classes} classes, task has "
                                  f"{EVAL_CLASSES}"), 1
            else:
                assert rc == 0 and err == ""
                xs, ys = {"test": (task.test_x, task.test_y),
                          "labeled": (task.labeled_x, task.labeled_y),
                          "unlabeled": (task.unlabeled_x,
                                        task.unlabeled_labels())}[split]
                net = network.deserialize(read_text(model_path))
                accuracy = pipeline.evaluate(net, xs, ys).accuracy
                assert out.getvalue().splitlines()[0] == \
                    f"accuracy {accuracy:.6f}"
                return
            assert rc == code, err
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and rejected in errors[0], err
            if code == 1:
                assert err == f"{errors[0]}\n" and \
                    errors[0].startswith("error: "), err

        check()


def _no_work(monkeypatch):
    """Make every entry point a command could start its work at fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("the command started work")
    for module, name in ((data, "generate_task"), (data, "load_task"),
                         (cli, "read_text"), (cli.gradcheck, "run_all")):
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("command", ["gen-data", "train-source", "adapt",
                                     "ablate", "gradcheck"])
def test_cli_negative_seed_is_exit_1(cli_files, tmp_path, monkeypatch, capsys,
                                     command):
    _, task_path, model_path = cli_files
    out = str(tmp_path / "out.txt")
    argv = {
        "gen-data": ["--seed", "-3", "--out", out],
        "train-source": ["--data", task_path, "--seed", "-1", "--out", out],
        "adapt": ["--model", model_path, "--data", task_path, "--seed", "-1",
                  "--out-model", out, "--report", str(tmp_path / "r.txt")],
        "ablate": ["--model", model_path, "--data", task_path,
                   "--seeds", "0,-1", "--out", out],
        "gradcheck": ["--seed", "-2"],
    }[command]
    _no_work(monkeypatch)
    assert cli.main([command] + argv) == 1
    flag = "--seeds" if command == "ablate" else "--seed"
    assert f"error: {flag} must be non-negative, got -" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("methods,seeds,message", [
    ("s_plus_t,s_plus_t", "0", "--methods repeats s_plus_t"),
    ("cdl,s_plus_t,cdl", "0", "--methods repeats cdl"),
    ("s_plus_t", "0,0", "--seeds repeats 0"),
    ("s_plus_t", "3,1,3", "--seeds repeats 3")])
def test_cli_ablate_repeated_cell_is_exit_1(cli_files, tmp_path, monkeypatch,
                                            capsys, methods, seeds, message):
    _, task_path, model_path = cli_files
    _no_work(monkeypatch)
    out = tmp_path / "x.csv"
    rc = cli.main(["ablate", "--model", model_path, "--data", task_path,
                   "--methods", methods, "--seeds", seeds, "--epochs", "1",
                   "--out", str(out)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def _output_argv(command, task_path, model_path, tmp_path, flag, path):
    """The command's argv with every output in tmp_path, flag's at path."""
    outputs = {"--out": str(tmp_path / "out.txt"),
               "--out-model": str(tmp_path / "model.txt"),
               "--report": str(tmp_path / "report.txt")}
    outputs[flag] = path
    return [command] + {
        "gen-data": ["--out", outputs["--out"]],
        "train-source": ["--data", task_path, "--seed", "0",
                         "--out", outputs["--out"]],
        "adapt": ["--model", model_path, "--data", task_path, "--seed", "0",
                  "--out-model", outputs["--out-model"],
                  "--report", outputs["--report"]],
        "ablate": ["--model", model_path, "--data", task_path,
                   "--seeds", "0", "--out", outputs["--out"]],
    }[command]


@pytest.mark.parametrize("command,flag", [
    ("gen-data", "--out"), ("train-source", "--out"),
    ("adapt", "--out-model"), ("adapt", "--report"), ("ablate", "--out")])
def test_cli_missing_output_directory_is_exit_1_before_any_work(
        cli_files, tmp_path, monkeypatch, capsys, command, flag):
    _, task_path, model_path = cli_files
    missing = str(tmp_path / "nodir" / "out.txt")
    argv = _output_argv(command, task_path, model_path, tmp_path, flag,
                        missing)
    _no_work(monkeypatch)
    assert cli.main(argv) == 1
    assert f"error: {flag} {missing}: no such directory" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag,suffix", [
    ("gen-data", "--out", ""), ("train-source", "--out", ""),
    ("adapt", "--out-model", ""), ("adapt", "--report", ""),
    ("adapt", "--report", ".csv"), ("ablate", "--out", "")])
def test_cli_output_naming_a_directory_is_exit_1_before_any_work(
        cli_files, tmp_path, monkeypatch, capsys, command, flag, suffix):
    # suffix ".csv": the report path is free but its CSV sidecar is a
    # directory
    _, task_path, model_path = cli_files
    path = str(tmp_path / "out")
    os.mkdir(path + suffix)
    argv = _output_argv(command, task_path, model_path, tmp_path, flag, path)
    _no_work(monkeypatch)
    assert cli.main(argv) == 1
    assert f"error: {flag} {path + suffix}: is a directory" in \
        capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out" + suffix]
    assert os.listdir(path + suffix) == []


@pytest.mark.parametrize("model,report,written", [
    ("out/x.txt", "out/x.txt", "out/x.txt"),
    ("out/r.csv", "out/r", "out/r.csv"),
    ("alias/x.txt", "out/x.txt", "out/x.txt"),
    ("alias/r.csv", "out/r", "out/r.csv")])
def test_cli_outputs_writing_one_file_are_exit_1_before_any_work(
        cli_files, tmp_path, monkeypatch, capsys, model, report, written):
    # alias is a symlink to the directory out; "r.csv" is the report's
    # CSV sidecar
    _, task_path, model_path = cli_files
    (tmp_path / "out").mkdir()
    os.symlink(tmp_path / "out", tmp_path / "alias")
    _no_work(monkeypatch)
    assert cli.main(["adapt", "--model", model_path, "--data", task_path,
                     "--seed", "0", "--out-model", str(tmp_path / model),
                     "--report", str(tmp_path / report)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out-model and --report both write {tmp_path / written}"]
    assert os.listdir(tmp_path / "out") == []


def test_cli_symlinked_output_keeps_its_link(cli_files, tmp_path, capsys):
    # the report's CSV sidecar r.csv links to a file in another
    # directory: the link stays and its target receives the CSV
    _, task_path, model_path = cli_files
    (tmp_path / "elsewhere").mkdir()
    target = tmp_path / "elsewhere" / "target.csv"
    target.write_text("old\n")
    os.symlink(target, tmp_path / "r.csv")
    assert cli.main(["adapt", "--model", model_path, "--data", task_path,
                     "--seed", "0", "--epochs", "1",
                     "--out-model", str(tmp_path / "m.txt"),
                     "--report", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    assert os.readlink(tmp_path / "r.csv") == str(target)
    report = reports.read_report(str(tmp_path / "r"))
    assert target.read_text() == reports.report_csv(report)
    assert sorted(os.listdir(tmp_path / "elsewhere")) == ["target.csv"]


def test_cli_sidecar_linked_to_its_report_is_exit_1_before_any_work(
        cli_files, tmp_path, monkeypatch, capsys):
    # writes follow links, so the CSV would overwrite the report
    _, task_path, model_path = cli_files
    os.symlink(tmp_path / "r", tmp_path / "r.csv")
    _no_work(monkeypatch)
    assert cli.main(["adapt", "--model", model_path, "--data", task_path,
                     "--seed", "0", "--out-model", str(tmp_path / "m.txt"),
                     "--report", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == \
        f"error: --report and --report both write {tmp_path / 'r.csv'}\n"
    assert os.listdir(tmp_path) == ["r.csv"]


def test_cli_dangling_output_link_into_a_missing_directory_is_exit_1(
        cli_files, tmp_path, monkeypatch, capsys):
    # the sidecar's link resolves into a missing directory: the command
    # fails before any work, not after writing the report
    _, task_path, model_path = cli_files
    os.symlink(tmp_path / "nodir" / "t.csv", tmp_path / "r.csv")
    _no_work(monkeypatch)
    assert cli.main(["adapt", "--model", model_path, "--data", task_path,
                     "--seed", "0", "--out-model", str(tmp_path / "m.txt"),
                     "--report", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == \
        f"error: --report {tmp_path / 'r.csv'}: no such directory\n"
    assert os.listdir(tmp_path) == ["r.csv"]


@pytest.mark.skipif(os.geteuid() != 0,
                    reason="giving a link another owner needs root")
def test_cli_output_link_that_is_not_followed_is_exit_1(
        cli_files, tmp_path, monkeypatch, capsys):
    # a link another user planted in a sticky shared directory: the
    # command fails before any work and the link's target is untouched
    _, task_path, model_path = cli_files
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o1777)
    target = tmp_path / "target.txt"
    target.write_text("mine\n")
    os.symlink(target, shared / "m.txt")
    os.lchown(shared / "m.txt", 54321, 54321)
    _no_work(monkeypatch)
    assert cli.main(["adapt", "--model", model_path, "--data", task_path,
                     "--seed", "0", "--out-model", str(shared / "m.txt"),
                     "--report", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sticky directory" in err
    assert err.count("\n") == 1
    assert target.read_text() == "mine\n"
    assert sorted(os.listdir(tmp_path)) == ["shared", "target.txt"]


def test_cli_adapt_output_may_name_its_input(cli_files, tmp_path, capsys):
    # inputs are read before any output is written
    _, task_path, model_path = cli_files
    model = tmp_path / "model.txt"
    model.write_text(read_text(model_path))
    assert cli.main(["adapt", "--model", str(model), "--data", task_path,
                     "--seed", "0", "--epochs", "1", "--out-model",
                     str(model), "--report", str(tmp_path / "r")]) == 0
    assert network.deserialize(read_text(str(model))).meta[
        "adapted_method"] == "cdl"
