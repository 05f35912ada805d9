"""Field escaping, the checked record framing of the stage files, and atomic writes.

The escapes and the framing are the README's "File formats: Stage
files". The records are streamed both ways, so the whole file is never
held in memory. The write joins the records into blocks of whole lines,
about a fixed-size chunk each, and encodes, hashes and writes each block
once. The read checks the header, the digest and the UTF-8 when it is
called, hashing and decoding the open file a fixed-size chunk at a time,
and only then returns an iterator that reads the records from the same
file, a chunk of whole lines at a time; a loader parses nothing of a
file that fails a check. Every artifact is written through
`atomic_write`.
"""

import codecs
import hashlib
import os
import re
from collections.abc import Iterable, Iterator
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
    """Write `lines` (records holding no "\\n"), framed and streamed a block
    of whole lines at a time: each block ends at the first line that brings
    it to _CHUNK characters."""
    digest = hashlib.sha256()

    def blocks():
        block, size = [f"{magic} {version}"], 0
        for line in lines:
            block.append(line)
            size += len(line)
            if size >= _CHUNK:
                yield block
                block, size = [], 0
        if block:
            yield block

    def chunks():
        for block in blocks():
            block.append("")  # so the join ends the last line
            data = "\n".join(block).encode("utf-8")
            digest.update(data)
            yield data
        yield _digest_line(digest)

    atomic_write(path, chunks())


def read_records(
    path, magic: str, version: int, error: type[QAError], rewrite: str
) -> Iterator[str]:
    """The records of a file written by write_records under `magic` and `version`.

    The file is checked when this is called: a wrong magic, a digest that
    does not match, or bytes that are not UTF-8 raise `error`; any other
    version raises VersionMismatch, whose message names `rewrite`, the
    command that writes the file again. The file closes when the returned
    iterator is exhausted or dropped.
    """
    records = _records(path, magic, version, error, rewrite)
    next(records)  # runs the checks
    return records


_CHUNK = 1 << 16
_DIGEST_LINE_LEN = len(_digest_line(hashlib.sha256()))


def _chunks(f, start: int, end: int) -> Iterator[bytes]:
    """The bytes of `f` from `start` to `end`, _CHUNK at a time; fewer when
    the file ends first."""
    f.seek(start)
    while start < end:
        chunk = f.read(min(_CHUNK, end - start))
        if not chunk:
            return
        start += len(chunk)
        yield chunk


def _records(path, magic, version, error, rewrite) -> Iterator[str | None]:
    """read_records' generator: yields None once the file is checked, then
    each record.

    The digest line is the file's last _DIGEST_LINE_LEN bytes, after a
    newline, and the digest covers every byte before it. The records are
    read from the file that was checked; stage files are replaced whole
    (atomic_write), never written in place, so they are the bytes checked.
    """
    with open(path, "rb") as f:
        header = f.readline().removesuffix(b"\n").split(b" ")
        if header[0] != magic.encode("ascii"):
            raise error(f"{path}: bad magic {header[0][:16]!r}, expected {magic}")
        if header[1:] != [str(version).encode("ascii")]:
            found = b" ".join(header[1:]).decode("utf-8", "replace")
            raise VersionMismatch(
                f"{path}: {magic} version {found!r}, expected {version}; "
                f"run '{rewrite}' to rewrite it"
            )
        records_start = f.tell()
        end = os.fstat(f.fileno()).st_size - _DIGEST_LINE_LEN
        digest = hashlib.sha256()
        decoder = codecs.getincrementaldecoder("utf-8")()
        bad_utf8_at = None  # offset of the first byte that is not UTF-8
        chunk = b""
        for chunk in _chunks(f, 0, end):
            digest.update(chunk)
            if bad_utf8_at is None:
                try:
                    decoder.decode(chunk)
                except UnicodeDecodeError as exc:  # exc.start counts the bytes it held back
                    held = len(decoder.getstate()[0])
                    bad_utf8_at = f.tell() - len(chunk) - held + exc.start
        if not chunk.endswith(b"\n") or f.read() != _digest_line(digest):
            raise error(f"{path}: digest mismatch: the file is damaged or truncated")
        if bad_utf8_at is not None:
            f.seek(0)
            line_no = f.read(bad_utf8_at).count(b"\n") + 1
            raise error(f"{path}: line {line_no} is not valid UTF-8")
        yield None
        cut_line = b""  # the start of a line that the previous chunk cut
        for chunk in _chunks(f, records_start, end):
            data = cut_line + chunk
            whole = data.rfind(b"\n") + 1
            cut_line = data[whole:]
            yield from data[:whole].decode("utf-8").split("\n")[:-1]


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of `path` without one leading byte order mark, with
    newlines translated as text mode does; bytes that are not UTF-8 raise
    `error(message)`, naming their line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line_no} is not valid UTF-8") from exc
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
