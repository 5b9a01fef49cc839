"""The shared key-value document reader behind task, model and report files."""

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
