"""The shared key-value document reader behind task, model and report
files, the settings codec and the atomic writer."""

import dataclasses
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssht import data, fileio, network, pipeline, reports


def _model_text():
    spec = network.NetworkSpec(input_dim=2, hidden_dims=[3], feature_dim=2,
                               num_classes=2)
    net = network.init_network(spec, seed=1)
    net.meta["seed"] = "1"
    return network.serialize(net)


def _task_text():
    task = data.generate_task(data.DomainShiftSpec(num_classes=2), n_source=6,
                              shots=1, n_unlabeled=40, n_test=4, seed=2)
    return data.serialize_task(task)


def _report_text():
    records = [pipeline.EpochRecord(epoch=e, l_c=0.5, l_u=0.25, l_d=-1.5,
                                    total=-0.75, mask_rate=0.125,
                                    labeled_acc=1.0, test_acc=0.625,
                                    diversity_ratio=0.875) for e in (1, 2)]
    report = pipeline.RunReport(
        config=pipeline.AdaptConfig(method="cdl", epochs=2, seed=3),
        model_fingerprint="0123456789abcdef", records=records,
        final_accuracy=0.625, per_class_accuracy=[0.5, 0.75],
        confusion=[[2, 2], [1, 3]], unlabeled_weak_passes=4,
        unlabeled_strong_passes=4)
    return reports.serialize_report(report)


FORMATS = {
    "model": (_model_text(), network.deserialize, network.ModelFormatError),
    "task": (_task_text(), data.deserialize_task, data.DataFormatError),
    "report": (_report_text(), reports.deserialize_report,
               reports.ReportFormatError),
}


def _broken(text, case):
    lines = text.splitlines()
    if case == "repeated field":
        lines.append(lines[1])
    elif case == "malformed line":
        lines.append("x" * 200)
    elif case == "missing field":
        del lines[-1]
    else:
        lines[0] = "ssht-other/1"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", ["repeated field", "malformed line",
                                  "missing field", "expected header"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_bad_document_raises_its_format_error(fmt, case):
    text, load, error = FORMATS[fmt]
    load(text)
    with pytest.raises(error, match=case) as info:
        load(_broken(text, case))
    assert isinstance(info.value, fileio.FormatError)
    assert "x" * 61 not in str(info.value)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FORMATS)), st.data())
def test_every_prefix_loads_or_raises_its_format_error(fmt, draw):
    text, load, error = FORMATS[fmt]
    lines = text.splitlines(keepends=True)
    k = draw.draw(st.integers(0, len(lines)), label="whole lines")
    cut = sum(len(ln) for ln in lines[:k])
    if k < len(lines):
        cut += draw.draw(st.integers(0, len(lines[k]) - 1), label="chars")
    try:
        load(text[:cut])
    except error:
        pass


# characters of the format itself, plus any character at all
EDIT_CHARS = st.sampled_from("0123456789.-+eE ,=_xnaif") | st.characters()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FORMATS)), st.data())
def test_corrupted_line_loads_or_raises_its_format_error(fmt, draw):
    """Delete, duplicate or replace a run of characters in one line."""
    text, load, error = FORMATS[fmt]
    lines = text.splitlines()
    i = draw.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[i]
    lo = draw.draw(st.integers(0, len(line)), label="start")
    hi = draw.draw(st.integers(lo, len(line)), label="stop")
    edit = draw.draw(st.sampled_from(["delete", "duplicate", "replace"]),
                     label="edit")
    if edit == "delete":
        middle = ""
    elif edit == "duplicate":
        middle = line[lo:hi] * 2
    else:
        middle = draw.draw(st.text(EDIT_CHARS, min_size=1, max_size=12),
                           label="new")
    lines[i] = line[:lo] + middle + line[hi:]
    try:
        load("\n".join(lines) + "\n")
    except error:
        pass


# token counts around the codecs' chunk; each value spans several pieces
CHUNK_COUNTS = [fileio.CHUNK - 1, fileio.CHUNK, fileio.CHUNK + 1,
                3 * fileio.CHUNK + 7]
SEPARATORS = [" ", " ", " ", "\t", " \t", "\t ", "   ", " \t  "]


def _long_value(n, seed, bad=()):
    """n float tokens of mixed lengths, joined by mixed runs of spaces
    and tabs, with the tokens at the indices in bad replaced by "x<i>"."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    tokens = list(map(repr, values.tolist()))
    tokens[::5] = ["1"] * len(tokens[::5])
    for i in bad:
        tokens[i] = f"x{i}"
    seps = rng.choice(SEPARATORS, size=n)
    return "".join(t + s for t, s in zip(tokens, seps)).rstrip(" ")


BAD = (3 * fileio.CHUNK // 2, 5 * fileio.CHUNK // 2)
LONG_VALUES = {f"{n} tokens": _long_value(n, n) for n in CHUNK_COUNTS}
# the first bad token is in the second piece, the other in a later one
LONG_VALUES["bad in second piece"] = _long_value(3 * fileio.CHUNK, 1, BAD)
# the first cut falls on a tab, then on a run of spaces
LONG_VALUES["tab at a cut"] = "1.5 " * (fileio.PIECE // 4) + "\t 2.5 \t" + \
    "   -0.25" * fileio.CHUNK
LONG_VALUES["runs of spaces"] = "0.5 " * (fileio.PIECE // 4 - 1) + "0.5" + \
    " " * 9 + "\t1e-300  " + "7 " * fileio.PIECE


@pytest.mark.parametrize("value", [
    "", "0.5 -0.0 5e-324 1.5e-310 1e400", "1_0 ١٢ Infinity +nan",
    "1 0x10", "1__0", "nan(1)", "2.5 x",
    *(pytest.param(v, id=k) for k, v in LONG_VALUES.items())])
def test_parse_floats_reads_each_token_as_float_does(value):
    try:
        want = [float(t) for t in value.split()]
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            fileio.parse_floats(value)
        return
    got = fileio.parse_floats(value)
    assert got.dtype == float and got.shape == (len(want),)
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]


@pytest.mark.parametrize("value", LONG_VALUES.values(), ids=LONG_VALUES)
def test_long_values_are_cut_at_spaces_into_bounded_pieces(value):
    pieces = list(fileio._pieces(value))
    assert " ".join(pieces) == value
    assert len(pieces) > 1
    # a piece ends at the first space PIECE characters on
    longest = max(map(len, value.split(" ")))
    assert all(fileio.PIECE <= len(p) <= fileio.PIECE + longest
               for p in pieces[:-1])
    if value is LONG_VALUES["bad in second piece"]:
        assert [[f"x{i}" in p.split() for i in BAD] for p in pieces[:2]] == \
            [[False, False], [True, False]]


@pytest.mark.parametrize("n", CHUNK_COUNTS)
def test_list_formats_equal_one_join_across_chunks(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-300, 300, size=(n, 1))
    assert fileio.format_floats(x) == " ".join(map(repr, x.ravel().tolist()))
    y = rng.integers(-10 ** 12, 10 ** 12, size=n)
    assert fileio.format_floats(y) == \
        " ".join(map(repr, y.astype(float).tolist()))
    assert fileio.format_ints(y) == " ".join(map(str, y.tolist()))
    big = np.array([10 ** 19 + i for i in range(n)], dtype=object)
    assert fileio.format_ints(big) == " ".join(map(str, big.tolist()))
    assert fileio.parse_ints(fileio.format_ints(y)).tolist() == y.tolist()


# CHUNK tokens across int64, about 20 characters each: two pieces
LONG_INTS = " \t".join(map(str, np.random.default_rng(0).integers(
    -2 ** 63, 2 ** 63, size=fileio.CHUNK, dtype=np.int64).tolist()))


def _int64(token):
    """token as int() reads it, a ValueError naming int64 outside it."""
    n = int(token)
    if not -2 ** 63 <= n < 2 ** 63:
        raise ValueError("int64")
    return n


@pytest.mark.parametrize("value", [
    "", "0.5 -0.0 5e-324 1.5e-310 1e400", "1_0 ١٢ Infinity +nan",
    "1 0x10", "1__0", "nan(1)", "2.5 x", "1_0 ١٢ +7 -0 007 \t 3",
    "9223372036854775807 -9223372036854775808", "1 9223372036854775808",
    "-9223372036854775809 x", "2 2 1 12345678901234567890",
    pytest.param(LONG_INTS, id="int64 tokens over pieces"),
    pytest.param(LONG_INTS + " 9223372036854775808", id="then one past"),
    *(pytest.param(v, id=k) for k, v in LONG_VALUES.items())])
def test_parse_ints_reads_each_token_as_int_does_inside_int64(value):
    try:
        want = [_int64(t) for t in value.split()]
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            fileio.parse_ints(value)
        return
    got = fileio.parse_ints(value)
    assert got.dtype == np.int64 and got.shape == (len(want),)
    assert got.tolist() == want


# 3 * CHUNK short tokens fit in one piece; PIECE of them do not
@pytest.mark.parametrize("n", [3 * fileio.CHUNK, fileio.PIECE])
def test_parse_ints_rejects_a_label_past_int64_in_a_later_piece(n):
    small = " ".join(["3"] * n)
    pieces = list(fileio._pieces(small + " 98765432109876543210"))
    assert (len(pieces) > 1) == (n == fileio.PIECE)
    got = fileio.parse_ints(small)
    assert got.dtype == np.int64 and got.tolist() == [3] * n
    for big in (98765432109876543210, 2 ** 63, 12345678901234567890,
                2 ** 64 - 1, -2 ** 63 - 1):
        with pytest.raises(ValueError, match="int64"):
            fileio.parse_ints(f"{small} {big}")
    with pytest.raises(ValueError, match=re.escape(
            "invalid literal for int() with base 10: 'x'")):
        fileio.parse_ints(small + " x 5")


def test_parse_consumes_the_field_it_converts():
    kv = fileio.read_document("doc/1\na = 1 2\nb = 3\n", "doc/1",
                              fileio.FormatError)
    assert kv.parse("a", fileio.parse_ints).tolist() == [1, 2]
    assert dict(kv) == {"b": "3"}
    with pytest.raises(fileio.FormatError, match="missing field a"):
        kv.parse("a", int)


def _transient_peak(fn, *args):
    """Bytes fn(*args) allocates at its peak beyond what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_task_codecs_hold_a_large_document_less_than_three_times(tmp_path):
    # perfbench's artifact_io task: 1.6 MB of text
    task = data.generate_task(data.DomainShiftSpec(), n_source=20_000,
                              n_unlabeled=10_000, n_test=10_000, seed=0)
    size = len(data.serialize_task(task))
    path = str(tmp_path / "task.txt")
    assert _transient_peak(data.save_task, task, path) <= 2.5 * size
    assert _transient_peak(data.load_task, path) <= 3.0 * size


# a task, a model whose meta holds non-ASCII text, and a report: each
# written and read back, under an ASCII locale, with every open that
# names no encoding an error
_ROUND_TRIP = """
import os, sys
from ssht import data, fileio, network, pipeline, reports
d = sys.argv[1]
task = data.generate_task(data.DomainShiftSpec(), n_source=20, shots=1,
                          n_unlabeled=80, n_test=8, seed=0)
data.save_task(task, os.path.join(d, "task.txt"))
assert data.serialize_task(data.load_task(os.path.join(d, "task.txt"))) \
    == data.serialize_task(task)
net = network.init_network(network.default_spec(), seed=0)
net.meta["note"] = "caf\\u00e9 \\u2211"
fileio.atomic_write_text(os.path.join(d, "model.txt"), network.serialize(net))
loaded = network.deserialize(fileio.read_text(os.path.join(d, "model.txt")))
assert loaded.meta == net.meta
report = pipeline.RunReport(
    config=pipeline.AdaptConfig(), model_fingerprint="0123456789abcdef",
    records=[], final_accuracy=0.5, per_class_accuracy=[0.5, 0.5],
    confusion=[[1, 1], [1, 1]], unlabeled_weak_passes=0,
    unlabeled_strong_passes=0)
reports.write_report(report, os.path.join(d, "report.txt"))
assert reports.read_report(os.path.join(d, "report.txt")) == report
"""


def test_files_are_utf_8_whatever_the_locale(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(data.__file__)))
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C",
               PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    run = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                          "-W", "error::EncodingWarning", "-c", _ROUND_TRIP,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    model = (tmp_path / "model.txt").read_bytes()
    assert "meta.note = caf\u00e9 \u2211\n".encode("utf-8") in model


# ------------------------------------------------------------ settings codec

NON_DEFAULT_NETWORK = network.NetworkSpec(
    input_dim=3, hidden_dims=[5, 4, 3], feature_dim=2, num_classes=3,
    activation="relu")
NON_DEFAULT_SHIFT = data.DomainShiftSpec(
    num_classes=3, input_dim=3, class_geometry="two_moons_multi",
    shift_rotation=-0.25, shift_translation=(0.5, -1.25, 0.1),
    shift_scale=1.5, source_imbalance_ratio=4.0, noise_std=0.5)
NON_DEFAULT_CONFIG = pipeline.AdaptConfig(
    method="ent", tau=0.5, lambda_u=1.0, lambda_d=0.25, lr=0.01,
    labeled_batch=5, unlabeled_batch=16, epochs=2, seed=7,
    freeze_classifier=True)


@pytest.mark.parametrize("obj,default", [
    (NON_DEFAULT_NETWORK, network.default_spec()),
    (NON_DEFAULT_SHIFT, data.DomainShiftSpec()),
    (NON_DEFAULT_CONFIG, pipeline.AdaptConfig())])
def test_non_default_settings_change_every_field(obj, default):
    """The round trips below cover every field with a value of its own."""
    same = [f.name for f in dataclasses.fields(obj)
            if getattr(obj, f.name) == getattr(default, f.name)]
    assert same == []


def _report(config):
    return pipeline.RunReport(
        config=config, model_fingerprint="0123456789abcdef", records=[],
        final_accuracy=0.5, per_class_accuracy=[0.5, 0.5],
        confusion=[[1, 1], [1, 1]], unlabeled_weak_passes=0,
        unlabeled_strong_passes=0)


def _round_trip(text, load, save, settings_of):
    loaded = load(text)
    assert save(loaded) == text
    return settings_of(loaded)


def test_network_spec_round_trips_through_a_model():
    text = network.serialize(network.init_network(NON_DEFAULT_NETWORK, 0))
    spec = _round_trip(text, network.deserialize, network.serialize,
                       lambda net: net.spec)
    assert spec == NON_DEFAULT_NETWORK
    assert "\nspec.hidden_dims = 5,4,3\nspec.feature_dim = 2\n" in text
    assert "\nspec.activation = relu\nparam.0.shape = 3,5\n" in text


def test_domain_shift_spec_round_trips_through_a_task():
    task = data.generate_task(NON_DEFAULT_SHIFT, n_source=9, shots=1,
                              n_unlabeled=60, n_test=3, seed=4)
    text = data.serialize_task(task)
    spec = _round_trip(text, data.deserialize_task, data.serialize_task,
                       lambda t: t.spec)
    assert spec == NON_DEFAULT_SHIFT
    assert fileio.format_settings("spec", spec) == [
        ("spec.num_classes", "3"), ("spec.input_dim", "3"),
        ("spec.class_geometry", "two_moons_multi"),
        ("spec.shift_rotation", "-0.25"),
        ("spec.shift_translation", "0.5 -1.25 0.1"),
        ("spec.shift_scale", "1.5"), ("spec.source_imbalance_ratio", "4.0"),
        ("spec.noise_std", "0.5")]


@pytest.mark.parametrize("labeled_batch", [5, None])
def test_adapt_config_round_trips_through_a_report(labeled_batch):
    config = dataclasses.replace(NON_DEFAULT_CONFIG,
                                 labeled_batch=labeled_batch)
    text = reports.serialize_report(_report(config))
    loaded = _round_trip(text, reports.deserialize_report,
                         reports.serialize_report, lambda r: r.config)
    assert loaded == config
    assert fileio.format_settings("config", config) == [
        ("config.method", "ent"), ("config.tau", "0.5"),
        ("config.lambda_u", "1.0"), ("config.lambda_d", "0.25"),
        ("config.lr", "0.01"), ("config.labeled_batch", str(labeled_batch)),
        ("config.unlabeled_batch", "16"), ("config.epochs", "2"),
        ("config.seed", "7"), ("config.freeze_classifier", "true")]


# the config lines a report had while the SGD recipe (Nesterov momentum,
# the momentum and the weight decay) and the labeled rows' weak
# augmentation were settings, each after the line its field followed
RECIPE_LINES = {"config.lr": ["config.momentum = 0.9",
                              "config.nesterov = true",
                              "config.weight_decay = 0.0005"],
                "config.freeze_classifier": ["config.labeled_aug = weak"]}


def _with_recipe_lines(text):
    """text with RECIPE_LINES at the places that report's field order
    put them."""
    lines = []
    for line in text.splitlines():
        lines.append(line)
        lines += RECIPE_LINES.get(line.partition(" = ")[0], [])
    return "\n".join(lines) + "\n"


def test_report_with_the_removed_recipe_settings_still_loads():
    text = _report_text()
    old = _with_recipe_lines(text)
    assert old.splitlines()[0] == text.splitlines()[0] == "ssht-report/1"
    dropped = set(old.splitlines()) - set(text.splitlines())
    assert dropped == {line for group in RECIPE_LINES.values()
                       for line in group}
    assert len(old.splitlines()) == len(text.splitlines()) + 4
    loaded = reports.deserialize_report(old)
    assert loaded == reports.deserialize_report(text)
    assert reports.serialize_report(loaded) == text


def test_int_given_to_a_float_setting_is_written_as_a_float():
    lines = dict(fileio.format_settings("config",
                                        pipeline.AdaptConfig(lambda_d=0)))
    assert lines["config.lambda_d"] == "0.0"


@dataclasses.dataclass
class _Odd:
    n: int
    weights: Dict[str, float]


def test_unknown_annotation_is_a_type_error_naming_the_field():
    with pytest.raises(TypeError, match=r"_Odd\.weights"):
        fileio.format_settings("odd", _Odd(1, {}))
    kv = fileio.read_document("odd/1\nodd.n = 1\nodd.weights = 2\n",
                              "odd/1", fileio.FormatError)
    with pytest.raises(TypeError, match=r"_Odd\.weights"):
        fileio.parse_settings(kv, "odd", _Odd)


# ------------------------------------------------------------ atomic writes

@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        fileio.atomic_write_text(str(tmp_path / "atomic.txt"), "x\n")
        with open(tmp_path / "plain.txt", "w") as f:
            f.write("x\n")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"atomic.txt": 0o666 & ~umask,
                     "plain.txt": 0o666 & ~umask}


def test_atomic_write_through_a_symlink_replaces_its_target(tmp_path):
    # the link survives, its target is replaced, and the temporary file
    # lives beside the target, so nothing is left beside the link
    (tmp_path / "elsewhere").mkdir()
    target = tmp_path / "elsewhere" / "target.csv"
    target.write_text("old\n")
    os.symlink(target, tmp_path / "link.csv")
    fileio.atomic_write_text(str(tmp_path / "link.csv"), "new\n")
    assert os.readlink(tmp_path / "link.csv") == str(target)
    assert target.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["elsewhere", "link.csv"]
    assert os.listdir(tmp_path / "elsewhere") == ["target.csv"]


needs_root = pytest.mark.skipif(os.geteuid() != 0,
                                reason="giving a link another owner needs root")


def _foreign_link(directory, target, mode):
    """A link in directory, owned by a uid neither the user nor the
    directory's owner has, to target; directory gets mode."""
    directory.mkdir()
    directory.chmod(mode)
    link = directory / "link.csv"
    os.symlink(target, link)
    os.lchown(link, 54321, 54321)
    return link


@needs_root
def test_atomic_write_refuses_a_foreign_link_in_a_sticky_shared_directory(
        tmp_path):
    # protected_symlinks' rule: open() would not follow this link, so the
    # write neither follows it nor replaces it
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = _foreign_link(tmp_path / "shared", target, 0o1777)
    with pytest.raises(PermissionError, match="sticky directory"):
        fileio.atomic_write_text(str(link), "new\n")
    assert target.read_text() == "old\n"
    assert os.readlink(link) == str(target)
    assert os.listdir(tmp_path / "shared") == ["link.csv"]


@needs_root
@pytest.mark.parametrize("mode,owner", [(0o777, None), (0o1775, None),
                                        (0o1777, 54321)])
def test_atomic_write_follows_a_foreign_link_the_kernel_would_follow(
        tmp_path, mode, owner):
    # not sticky, not world-writable, or the directory's owner owns the link
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = _foreign_link(tmp_path / "dir", target, mode)
    if owner is not None:
        os.chown(tmp_path / "dir", owner, owner)
    fileio.atomic_write_text(str(link), "new\n")
    assert target.read_text() == "new\n"
    assert os.path.islink(link)


@needs_root
def test_write_target_checks_every_link_it_follows(tmp_path):
    # an own link to a foreign link in a sticky shared directory: refused
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = _foreign_link(tmp_path / "shared", target, 0o1777)
    os.symlink(link, tmp_path / "mine.csv")
    with pytest.raises(PermissionError):
        fileio.write_target(str(tmp_path / "mine.csv"))
    assert fileio.write_target(str(target)) == str(target)
