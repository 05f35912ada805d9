"""Field escaping and the checked record framing of the stage files.

Tabs separate fields and newlines separate records, so embedded tabs,
newlines, and backslashes are escaped. A field that is exactly \\N
encodes "absent" (a literal backslash-N survives as \\\\N).

Every stage hand-off file (index, model, analyses, answers) is framed
by `write_records` and read by `read_records`:

    MAGIC VERSION
    record                        (one escaped record per line)
    ...
    sha256 <TAB> hex digest of every byte above

so a truncated, damaged or foreign file raises, never loads as another
object. The records are streamed: each is encoded once, written to the
file and fed to the digest as it comes, so the whole file is never held
in memory. Every artifact is written through one atomic writer,
`atomic_write`, so a stage that fails or is killed mid-write, or whose
records raise partway, leaves the previous file, never part of one.
"""

import hashlib
import os
import re
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

from .errors import QAError

NONE_FIELD = "\\N"
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def escape_field(s: str) -> str:
    return (
        s.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


def unescape_field(s: str) -> str:
    """Invert escape_field; an unknown escape yields its character, and a
    lone trailing backslash is kept.

    A field whose every backslash starts a \\t, \\n or \\r escape is decoded
    with str.replace, \\n first as the commonest. The replacements insert no
    backslash, so one left after them (a doubled one, an unknown escape or
    a lone trailing one) sends the field to the regex, which decodes one
    escape at a time.
    """
    if "\\" not in s:
        return s
    out = s.replace("\\n", "\n")
    if "\\" in out:
        out = out.replace("\\t", "\t").replace("\\r", "\r")
        if "\\" in out:
            return _ESCAPE_RE.sub(lambda m: _UNESCAPES.get(m.group(1), m.group(1)), s)
    return out


def escape_optional(s: str | None) -> str:
    return NONE_FIELD if s is None else escape_field(s)


def unescape_optional(s: str) -> str | None:
    return None if s == NONE_FIELD else unescape_field(s)


def atomic_write(path, chunks: Iterable[bytes]) -> None:
    """Replace `path` with the bytes of `chunks`: readers see the old bytes or the new.

    The chunks go to a temporary file in the same directory, which then
    takes the target's name with `os.replace`. A failed write, or an
    exception raised by `chunks` itself, removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    """Replace `path` with `text` in UTF-8, through atomic_write."""
    atomic_write(path, map(str.encode, [text]))  # encoded once the file is open


class VersionMismatch(QAError):
    """A stage file of another format version than its reader's."""


def _digest_line(digest) -> bytes:
    return b"sha256\t%s\n" % digest.hexdigest().encode("ascii")


def write_records(path, magic: str, version: int, lines: Iterable[str]) -> None:
    """Write `lines` (records holding no "\\n") framed as the module docstring says."""
    digest = hashlib.sha256()

    def chunks():
        for line in chain([f"{magic} {version}"], lines):
            data = (line + "\n").encode("utf-8")
            digest.update(data)
            yield data
        yield _digest_line(digest)

    atomic_write(path, chunks())


def read_records(
    path, magic: str, version: int, error: type[QAError], rewrite: str
) -> list[str]:
    """The records of a file written by write_records under `magic` and `version`.

    A wrong magic, a digest that does not match, or bytes that are not
    UTF-8 raise `error`; any other version raises VersionMismatch, whose
    message names `rewrite`, the command that writes the file again.
    """
    raw = Path(path).read_bytes()
    header = raw.partition(b"\n")[0].split(b" ")
    if header[0] != magic.encode("ascii"):
        raise error(f"{path}: bad magic {header[0][:16]!r}, expected {magic}")
    if header[1:] != [str(version).encode("ascii")]:
        found = b" ".join(header[1:]).decode("utf-8", "replace")
        raise VersionMismatch(
            f"{path}: {magic} version {found!r}, expected {version}; "
            f"run '{rewrite}' to rewrite it"
        )
    cut = raw.rfind(b"\nsha256\t") + 1
    if not cut or raw[cut:] != _digest_line(hashlib.sha256(raw[:cut])):
        raise error(f"{path}: digest mismatch: the file is damaged or truncated")
    try:
        return raw[:cut].decode("utf-8").split("\n")[1:-1]
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line_no} is not valid UTF-8") from exc


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
