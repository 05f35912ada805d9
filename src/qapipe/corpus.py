"""Source document parsing for the two supported corpus formats.

trec-sgml:
    <DOC> blocks with a mandatory <DOCNO> and a <TEXT> body that may
    carry <P>...</P> paragraph markers. Paragraphs are joined with blank
    lines and their character spans recorded. Every other tag, such as
    <HEADLINE>, is read past.

record-lines:
    one record per line, tab-separated: doc_id <TAB> headline <TAB> text.
    The middle field must be there but is read past.

Malformed records follow a skip-and-report policy: parsing continues and
the bad record is appended to the caller's rejects list (pipeline stages
persist these as a .rejects sidecar next to the index).
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import QAError
from .serde import atomic_write_text, read_text

CORPUS_FORMATS = ("trec-sgml", "record-lines")


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    paragraph_spans: tuple[tuple[int, int], ...] = field(default=())


@dataclass(frozen=True)
class MalformedRecord:
    location: str
    reason: str


class UnknownCorpusFormat(QAError):
    pass


_DOC_RE = re.compile(r"<DOC>(.*?)</DOC>", re.DOTALL)
_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.DOTALL)
_TEXT_RE = re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL)
_PARA_RE = re.compile(r"<P>(.*?)</P>", re.DOTALL)


def parse_corpus(path, fmt: str, rejects: list[MalformedRecord] | None = None):
    """Yield Documents from `path` in file order; errors go to `rejects`."""
    if fmt not in CORPUS_FORMATS:
        raise UnknownCorpusFormat(f"unknown corpus format: {fmt!r}")
    raw = read_text(path, QAError)
    sink = rejects if rejects is not None else []
    if fmt == "trec-sgml":
        yield from _parse_trec_sgml(raw, sink)
    else:
        yield from _parse_record_lines(raw, sink)


def _parse_trec_sgml(raw: str, rejects: list[MalformedRecord]):
    for block_no, m in enumerate(_DOC_RE.finditer(raw), start=1):
        block = m.group(1)
        where = f"doc block {block_no}"
        docno = _DOCNO_RE.search(block)
        doc_id = docno.group(1).strip() if docno else ""
        if not doc_id:
            rejects.append(MalformedRecord(where, "missing or empty DOCNO"))
            continue
        text_m = _TEXT_RE.search(block)
        if text_m is None:
            rejects.append(MalformedRecord(where, "missing TEXT"))
            continue
        body = text_m.group(1)
        paras = [p.group(1).strip() for p in _PARA_RE.finditer(body)]
        if paras:
            text_parts: list[str] = []
            spans: list[tuple[int, int]] = []
            pos = 0
            for p in paras:
                if text_parts:
                    text_parts.append("\n\n")
                    pos += 2
                spans.append((pos, pos + len(p)))
                text_parts.append(p)
                pos += len(p)
            yield Document(doc_id, "".join(text_parts), tuple(spans))
        else:
            yield Document(doc_id, body.strip(), ())


def _parse_record_lines(raw: str, rejects: list[MalformedRecord]):
    for line_no, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        where = f"line {line_no}"
        if len(fields) != 3:
            rejects.append(
                MalformedRecord(where, f"expected 3 tab-separated fields, got {len(fields)}")
            )
            continue
        doc_id, _, text = fields
        if not doc_id.strip():
            rejects.append(MalformedRecord(where, "empty doc_id"))
            continue
        yield Document(doc_id.strip(), text, ())


def write_rejects(rejects, path) -> None:
    """Persist corpus or question rejects, `location<TAB>reason` per line,
    as the stage's sidecar file; with no rejects, remove any old sidecar."""
    if not rejects:
        Path(path).unlink(missing_ok=True)
        return
    lines = [f"{r.location}\t{r.reason}" for r in rejects]
    atomic_write_text(path, "".join(line + "\n" for line in lines))
