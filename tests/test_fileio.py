"""The shared key-value document reader behind task, model and report
files, the settings codec and the atomic writer."""

import dataclasses
import os
import re
import stat
from typing import Dict

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


@pytest.mark.parametrize("value", [
    "", "0.5 -0.0 5e-324 1.5e-310 1e400", "1_0 ١٢ Infinity +nan",
    "1 0x10", "1__0", "nan(1)", "2.5 x"])
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
