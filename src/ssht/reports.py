"""Run-report persistence: a key-value document plus a CSV sidecar.

The document, an "ssht-report/1" key-value document (see fileio),
round-trips every RunReport field losslessly: write -> read -> write is
byte identical; fileio's settings codec writes the config, and each
epoch line holds its EpochRecord's other fields in field order. The
epoch lines are read by key: a report with N `epoch.` keys must hold
exactly epoch.1 ... epoch.N, as they are written, or it fails to load
with "missing field epoch.k". Only an aborted run has an abort_reason
line; an aborted report without one (any from before the line existed)
loads with None, and an abort_reason beside aborted_epoch = none fails
to load. A report holds no value adapt cannot write: a NaN or infinity
in an epoch line, an epoch line's mask_rate, labeled_acc or test_acc,
final.accuracy or a final.per_class entry outside [0, 1], a negative
pass or confusion count, or an aborted_epoch other than the number of
epoch records plus one fails to load with a ReportFormatError naming
the field. Keys the format does not name are ignored on read, so a
report written while Nesterov momentum, the labeled rows' weak
augmentation, the momentum or the weight decay were settings loads,
and a rewrite drops its lines for them. The sidecar
at <path> + CSV_SUFFIX (<path>.csv) holds the per-epoch curves with
exactly the columns

    epoch,l_c,l_u,l_d,total,mask_rate,test_acc,diversity_ratio

for external plotting tools.
"""

import csv
import io
import dataclasses
from functools import partial
from typing import Optional

import numpy as np

from .fileio import (FormatError, atomic_write_text, format_document,
                     format_floats, format_ints, format_settings, parse_floats,
                     parse_ints, parse_settings, read_document, read_text)
from .pipeline import AdaptConfig, EpochRecord, RunReport

REPORT_FORMAT = "ssht-report/1"
CSV_SUFFIX = ".csv"  # the sidecar's path is the report's plus this

CSV_COLUMNS = ("epoch", "l_c", "l_u", "l_d", "total", "mask_rate",
               "test_acc", "diversity_ratio")

# the values of an epoch line; its key holds the epoch
_EPOCH_FIELDS = tuple(f.name for f in dataclasses.fields(EpochRecord)
                      if f.name != "epoch")
# the values of an epoch line that are fractions of rows
_EPOCH_FRACTIONS = ("mask_rate", "labeled_acc", "test_acc")


class ReportFormatError(FormatError):
    """Raised when a report document fails to parse."""


def serialize_report(report: RunReport) -> str:
    fields = format_settings("config", report.config)
    fields += [("fingerprint", report.model_fingerprint),
               ("passes.unlabeled_weak", report.unlabeled_weak_passes),
               ("passes.unlabeled_strong", report.unlabeled_strong_passes),
               ("aborted_epoch", "none" if report.aborted_epoch is None
                else report.aborted_epoch)]
    if report.abort_reason is not None:
        fields.append(("abort_reason", report.abort_reason))
    fields += [(f"epoch.{rec.epoch}",
                format_floats([getattr(rec, f) for f in _EPOCH_FIELDS]))
               for rec in report.records]
    fields += [("final.accuracy", repr(float(report.final_accuracy))),
               ("final.per_class", format_floats(report.per_class_accuracy)),
               ("final.confusion", format_ints(report.confusion))]
    return format_document(REPORT_FORMAT, fields)


def report_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in report.records:
        writer.writerow([rec.epoch] + [repr(getattr(rec, c))
                                       for c in CSV_COLUMNS[1:]])
    return buf.getvalue()


def write_report(report: RunReport, path: str) -> None:
    atomic_write_text(path, serialize_report(report))
    atomic_write_text(path + CSV_SUFFIX, report_csv(report))


def _checked(ok, what: str, parse):
    """A converter: parse(value), raising ValueError, with the first
    offending number, unless ok holds for every number it holds."""
    def convert(value: str):
        parsed = parse(value)
        numbers = np.asarray(parsed).ravel()
        bad = numbers[~ok(numbers)]
        if bad.size:
            raise ValueError(f"{what}, got {bad[0]}")
        return parsed
    return convert


_finite = partial(_checked, np.isfinite, "values must be finite")
_count = partial(_checked, lambda v: v >= 0, "counts must be non-negative")
# NaN fails the comparison too
_fraction = partial(_checked, lambda v: (v >= 0.0) & (v <= 1.0),
                    "fractions must lie in [0, 1]")


def _aborted_epoch(epochs: int, value: str) -> Optional[int]:
    """None, or the epoch after the report's epochs completed ones: the
    only epoch adapt can abort at."""
    if value == "none":
        return None
    epoch = int(value)
    if epoch != epochs + 1:
        raise ValueError(f"must be none or {epochs + 1}, one past the last "
                         f"epoch record, got {epoch}")
    return epoch


def _parse_epoch(epoch: int, value: str) -> EpochRecord:
    vals = _finite(parse_floats)(value).tolist()
    if len(vals) != len(_EPOCH_FIELDS):
        raise ValueError(f"{len(vals)} values, wants {len(_EPOCH_FIELDS)}")
    record = EpochRecord(epoch=epoch, **dict(zip(_EPOCH_FIELDS, vals)))
    for name in _EPOCH_FRACTIONS:
        fraction = getattr(record, name)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {fraction}")
    return record


def deserialize_report(text: str) -> RunReport:
    kv = read_document(text, REPORT_FORMAT, ReportFormatError)
    cfg = parse_settings(kv, "config", AdaptConfig)
    epochs = sum(key.startswith("epoch.") for key in kv)
    records = [kv.parse(f"epoch.{k}", partial(_parse_epoch, k))
               for k in range(1, epochs + 1)]
    per_class = kv.parse("final.per_class", _fraction(parse_floats)).tolist()
    flat = kv.parse("final.confusion", _count(parse_ints)).tolist()
    c = len(per_class)
    if c == 0 or len(flat) != c * c:
        raise ReportFormatError("confusion matrix does not square with "
                                "per-class accuracy length")
    aborted = kv.parse("aborted_epoch", partial(_aborted_epoch, epochs))
    if aborted is None and "abort_reason" in kv:
        raise ReportFormatError("abort_reason on a report with "
                                "aborted_epoch = none")
    return RunReport(
        config=cfg,
        model_fingerprint=kv["fingerprint"],
        records=records,
        final_accuracy=kv.parse("final.accuracy", _fraction(float)),
        per_class_accuracy=per_class,
        confusion=[flat[i * c:(i + 1) * c] for i in range(c)],
        unlabeled_weak_passes=kv.parse("passes.unlabeled_weak", _count(int)),
        unlabeled_strong_passes=kv.parse("passes.unlabeled_strong",
                                         _count(int)),
        aborted_epoch=aborted, abort_reason=kv.get("abort_reason"))


def read_report(path: str) -> RunReport:
    return deserialize_report(read_text(path))
