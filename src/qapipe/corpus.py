"""Source document parsing for the two corpus formats, and the rejects sidecar.

The formats are the README's "File formats: Corpus" section. One scanner
serves each grammar: `_elements` every SGML element (a `<DOC>` block,
its first `<DOCNO>` and `<TEXT>`, each `<P>`), and `tab_separated`
record-lines corpora and qline question files alike. A trec-sgml
document's paragraphs are joined with blank lines and their character
spans recorded. Malformed records follow a skip-and-report policy:
parsing continues and the bad record is appended to the caller's
rejects list, which `write_rejects` persists.

`QUESTION_FORMATS`, the names of the question file formats that
`questions` parses, sits beside `CORPUS_FORMATS`, so that `config`
checks both format keys without importing `questions`.
"""

from pathlib import Path
from typing import NamedTuple

from .errors import QAError
from .serde import atomic_write_text, read_text

CORPUS_FORMATS = ("trec-sgml", "record-lines")
QUESTION_FORMATS = ("trec-xml", "qline")


class Document(NamedTuple):
    doc_id: str
    text: str
    paragraph_spans: tuple[tuple[int, int], ...] = ()


class MalformedRecord(NamedTuple):
    location: str
    reason: str


class UnknownCorpusFormat(QAError):
    pass


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


def _elements(text: str, open_tag: str, close_tag: str):
    """The text of each `open_tag`...`close_tag` element in order: each runs
    to the first close tag after its open tag, and the next one starts past
    it; an open tag that is never closed ends the scan."""
    pos = 0
    while (start := text.find(open_tag, pos)) >= 0:
        start += len(open_tag)
        end = text.find(close_tag, start)
        if end < 0:
            return
        yield text[start:end]
        pos = end + len(close_tag)


def _parse_trec_sgml(raw: str, rejects: list[MalformedRecord]):
    for block_no, block in enumerate(_elements(raw, "<DOC>", "</DOC>"), start=1):
        where = f"doc block {block_no}"
        doc_id = next(_elements(block, "<DOCNO>", "</DOCNO>"), "").strip()
        if not doc_id:
            rejects.append(MalformedRecord(where, "missing or empty DOCNO"))
            continue
        body = next(_elements(block, "<TEXT>", "</TEXT>"), None)
        if body is None:
            rejects.append(MalformedRecord(where, "missing TEXT"))
            continue
        paras = [p.strip() for p in _elements(body, "<P>", "</P>")]
        spans, pos = [], 0
        for p in paras:  # each paragraph starts past the "\n\n" after the one before
            spans.append((pos, pos + len(p)))
            pos += len(p) + 2
        yield Document(doc_id, "\n\n".join(paras) if paras else body.strip(), tuple(spans))


def tab_separated(raw: str, n_fields: int, rejects: list[MalformedRecord]):
    """Yield `(location, fields)` for each non-blank line of `raw`, split on
    tabs; a line without exactly `n_fields` fields goes to `rejects`."""
    for line_no, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) == n_fields:
            yield f"line {line_no}", fields
        else:
            rejects.append(MalformedRecord(
                f"line {line_no}", f"expected {n_fields} tab-separated fields, got {len(fields)}"
            ))


def _parse_record_lines(raw: str, rejects: list[MalformedRecord]):
    for where, (doc_id, _, text) in tab_separated(raw, 3, rejects):
        if doc_id.strip():
            yield Document(doc_id.strip(), text, ())
        else:
            rejects.append(MalformedRecord(where, "empty doc_id"))


def write_rejects(rejects, path) -> None:
    """Persist corpus or question rejects, `location<TAB>reason` per line,
    as the stage's sidecar file; with no rejects, remove any old sidecar."""
    if not rejects:
        Path(path).unlink(missing_ok=True)
        return
    lines = [f"{r.location}\t{r.reason}" for r in rejects]
    atomic_write_text(path, "".join(line + "\n" for line in lines))
