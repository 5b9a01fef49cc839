"""Whole-file atomic text IO and the key-value document format.

Every artifact (task, model, report) is a document: a version header
line, then one `key = value` line per field; blank lines are skipped.
A key appears at most once. Float lists are written with repr(), so a
write -> read -> write round trip is byte identical; int lists with
str(). Each artifact module passes its own FormatError subclass, so a
bad document raises that format's error and nothing else. A settings
dataclass is one `<prefix>.<field> = value` line per field, in field
declaration order, each value in the format of its annotation (CODECS).
"""

import dataclasses
import errno
import os
import stat
import tempfile
from typing import Iterable, List, Optional, Tuple, Type

import numpy as np


def write_target(path: str) -> str:
    """The real path of the file a write to path replaces: path itself,
    or the file at the end of the symlinks it names.

    Each of those links is followed only where the kernel's
    protected_symlinks rule lets open() follow it: it lies outside a
    sticky world-writable directory (such as /tmp), or it is owned by
    the user or by that directory's owner. Otherwise PermissionError, as
    open(path, "w") would raise there, so a link planted in a shared
    directory does not redirect the write.
    """
    shared = stat.S_ISVTX | stat.S_IWOTH
    for _ in range(40):  # the kernel's limit on links in one lookup
        if not os.path.islink(path):
            break
        directory = os.path.realpath(os.path.dirname(path))
        parent, link = os.stat(directory), os.lstat(path)
        if (parent.st_mode & shared == shared
                and link.st_uid not in (os.geteuid(), parent.st_uid)):
            raise PermissionError(errno.EACCES, "not following a symlink "
                                  "another user owns in a sticky directory",
                                  path)
        path = os.path.join(directory, os.readlink(path))
    return os.path.realpath(path)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, never a partial file.

    The file written is write_target(path), with the temp file beside
    it: a symlinked path keeps its link, and the link's target is
    replaced.
    """
    path = write_target(path)
    directory = os.path.dirname(path)
    umask = os.umask(0)  # os reads the umask only by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            os.fchmod(fd, 0o666 & ~umask)  # open(path, "w")'s mode, not 0600
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path: str) -> str:
    with open(path, "r") as f:
        return f.read()


class FormatError(ValueError):
    """Raised when a key-value document fails to parse."""


class Fields(dict):
    """The fields of one document by key. A missing key, or a value its
    converter rejects, raises the document's format error."""

    def __init__(self, error: Type[FormatError]) -> None:
        super().__init__()
        self.error = error

    def __missing__(self, key: str):
        raise self.error(f"missing field {key}")

    def parse(self, key: str, convert):
        """convert(self[key]), a ValueError from it raised as the format's."""
        value = self[key]
        try:
            return convert(value)
        except ValueError as e:
            raise self.error(f"bad field {key}: {e}") from e

    def checked(self, obj):
        """obj after obj.validate(), a ValueError raised as the format's."""
        try:
            obj.validate()
        except ValueError as e:
            raise self.error(f"bad field value: {e}") from e
        return obj


def read_document(text: str, header: str,
                  error: Type[FormatError]) -> Fields:
    """Check the header line and return the fields that follow it."""
    lines = text.splitlines()
    head = lines[0].strip() if lines else ""
    if head != header:
        raise error(f"expected header {header!r}, got {head!r}")
    fields = Fields(error)
    for line in filter(str.strip, lines[1:]):
        key, sep, value = line.partition(" = ")
        if not sep:
            raise error(f"malformed line: {line[:60]!r}")
        key = key.strip()
        if key in fields:
            raise error(f"repeated field {key}")
        fields[key] = value
    return fields


def format_document(header: str, fields: Iterable[Tuple[str, object]]) -> str:
    """The header line, then one `key = value` line per (key, value)."""
    return "\n".join([header] + [f"{k} = {v}" for k, v in fields]) + "\n"


def format_floats(values) -> str:
    return " ".join(map(repr, np.ravel(values).astype(float).tolist()))


def format_ints(values) -> str:
    return " ".join(map(str, np.ravel(values).tolist()))


def parse_floats(value: str) -> np.ndarray:
    # numpy applies float() to each token of the list
    return np.array(value.split(), dtype=float)


def parse_ints(value: str) -> np.ndarray:
    return np.array(list(map(int, value.split())))


def _parse_bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"bad boolean {value!r}")
    return value == "true"


# annotation -> (format, parse): exactly the ones settings fields use
CODECS = {
    int: (str, int),
    str: (str, str),
    float: (lambda v: repr(float(v)), float),
    bool: (lambda v: "true" if v else "false", _parse_bool),
    Optional[int]: (str, lambda v: None if v == "None" else int(v)),
    List[int]: (lambda v: ",".join(map(str, v)),
                lambda v: [int(t) for t in v.split(",")]),
    Tuple[float, ...]: (format_floats,
                        lambda v: tuple(float(t) for t in v.split())),
}


def _codecs(cls):
    """(name, (format, parse)) of each field of a settings dataclass."""
    for f in dataclasses.fields(cls):
        if f.type not in CODECS:
            raise TypeError(f"{cls.__name__}.{f.name}: no codec for {f.type!r}")
        yield f.name, CODECS[f.type]


def format_settings(prefix: str, obj) -> List[Tuple[str, str]]:
    """One (`prefix.field`, value) pair per field of a settings object."""
    return [(f"{prefix}.{name}", fmt(getattr(obj, name)))
            for name, (fmt, _) in _codecs(type(obj))]


def parse_settings(fields: Fields, prefix: str, cls):
    """The validated settings object that format_settings(prefix) wrote."""
    return fields.checked(cls(**{
        name: fields.parse(f"{prefix}.{name}", parse)
        for name, (_, parse) in _codecs(cls)}))
