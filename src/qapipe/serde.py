"""Field escaping for the line-oriented artifact files.

Tabs separate fields and newlines separate records, so embedded tabs,
newlines, and backslashes are escaped. A field that is exactly \\N
encodes "absent" (a literal backslash-N survives as \\\\N).

Every artifact is written through `atomic_write_text`, so a stage that
fails or is killed mid-write leaves the previous file, never part of one.
Stage files are read through `read_text`, which names the line of any
bytes that are not UTF-8.
"""

import os
import re
from pathlib import Path

NONE_FIELD = "\\N"
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def escape_field(s: str) -> str:
    return (
        s.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


def unescape_field(s: str) -> str:
    """Invert escape_field; an unknown escape yields its character, and a
    lone trailing backslash is kept."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES.get(m.group(1), m.group(1)), s)


def escape_optional(s: str | None) -> str:
    return NONE_FIELD if s is None else escape_field(s)


def unescape_optional(s: str) -> str | None:
    return None if s == NONE_FIELD else unescape_field(s)


def atomic_write_text(path, text: str) -> None:
    """Replace `path` with `text` (UTF-8): readers see the old bytes or the new.

    The text goes to a temporary file in the same directory, which then
    takes the target's name with `os.replace`; a failed write removes it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of `path` with newlines translated as text mode does;
    bytes that are not UTF-8 raise `error(message)`, naming their line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line_no} is not valid UTF-8") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")
