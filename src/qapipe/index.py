"""In-house inverted index: construction, persistence, and statistics.

Every token is indexed, stopwords included; the stoplist applies to
queries only, so positional proximity over the full text stays available
to the retrieval stage. Documents are stored inside the index file
because passage extraction needs the raw text.

File format (versioned, line-oriented UTF-8, magic header QANUSIDX):

    QANUSIDX 1
    stats <TAB> docs=N <TAB> terms=T <TAB> postings=P
    doc <TAB> ord <TAB> id <TAB> length <TAB> headline <TAB> spans <TAB> text
    ...                                         (docs sorted by doc_id)
    term <TAB> t <TAB> ord:tf:p1,p2 <TAB> ord:tf:...   (terms sorted)

String fields are backslash-escaped (\\t, \\n, \\r, \\\\); a field that is
exactly \\N encodes "absent". Postings reference documents by their
ordinal in the sorted doc section, so doc ids never need quoting there.
Writing the same index twice yields byte-identical files.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .corpus import Document
from .errors import QAError
from .serde import (
    atomic_write_text, escape_field, escape_optional, unescape_field, unescape_optional,
)
from .text import tokenize

MAGIC = "QANUSIDX"
VERSION = 1


class DuplicateDocId(QAError):
    pass


class CorruptIndex(QAError):
    pass


class VersionMismatch(QAError):
    def __init__(self, found, expected):
        super().__init__(f"index version {found!r}, expected {expected!r}")
        self.found = found
        self.expected = expected


@dataclass(frozen=True)
class Posting:
    doc_id: str
    term_frequency: int
    positions: tuple[int, ...]


@dataclass(frozen=True)
class IndexStats:
    doc_count: int
    distinct_terms: int
    total_postings: int
    avg_doc_length: float


@dataclass
class InvertedIndex:
    postings: dict[str, list[Posting]]
    doc_lengths: dict[str, int]
    stored_docs: dict[str, Document]

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    @property
    def avg_doc_length(self) -> float:
        if not self.doc_lengths:
            return 0.0
        return sum(self.doc_lengths.values()) / len(self.doc_lengths)

    def document_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def idf(self, term: str) -> float:
        """BM25 inverse document frequency, non-negative by construction."""
        n = self.doc_count
        df = self.document_frequency(term)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def stats(self) -> IndexStats:
        return IndexStats(
            doc_count=self.doc_count,
            distinct_terms=len(self.postings),
            total_postings=sum(len(p) for p in self.postings.values()),
            avg_doc_length=self.avg_doc_length,
        )


def build_index(documents: Iterable[Document]) -> InvertedIndex:
    """Index a document stream; doc_ids must be unique."""
    postings_acc: dict[str, dict[str, list[int]]] = {}
    doc_lengths: dict[str, int] = {}
    stored: dict[str, Document] = {}
    for doc in documents:
        if doc.doc_id in stored:
            raise DuplicateDocId(f"duplicate doc_id: {doc.doc_id}")
        tokens = tokenize(doc.text)
        doc_lengths[doc.doc_id] = len(tokens)
        stored[doc.doc_id] = doc
        for tok in tokens:
            postings_acc.setdefault(tok.surface, {}).setdefault(doc.doc_id, []).append(
                tok.position
            )
    postings = {
        term: [
            Posting(doc_id, len(pos), tuple(pos))
            for doc_id, pos in sorted(by_doc.items())
        ]
        for term, by_doc in postings_acc.items()
    }
    return InvertedIndex(postings, doc_lengths, stored)


def write_index(index: InvertedIndex, path) -> None:
    """Serialize deterministically: docs and terms in sorted order."""
    lines = [f"{MAGIC} {VERSION}"]
    st = index.stats()
    lines.append(f"stats\tdocs={st.doc_count}\tterms={st.distinct_terms}\tpostings={st.total_postings}")
    doc_ids = sorted(index.stored_docs)
    ordinals = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    for i, doc_id in enumerate(doc_ids):
        doc = index.stored_docs[doc_id]
        spans = ",".join(f"{a}:{b}" for a, b in doc.paragraph_spans) or "-"
        lines.append(
            "doc\t{}\t{}\t{}\t{}\t{}\t{}".format(
                i, escape_field(doc.doc_id), index.doc_lengths[doc_id],
                escape_optional(doc.headline), spans, escape_field(doc.text),
            )
        )
    for term in sorted(index.postings):
        cells = [
            f"{ordinals[p.doc_id]}:{p.term_frequency}:{','.join(map(str, p.positions))}"
            for p in index.postings[term]
        ]
        lines.append("term\t" + term + "\t" + "\t".join(cells))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def load_index(path) -> InvertedIndex:
    """Read an index written by write_index; load(write(x)) == x."""
    raw = Path(path).read_text(encoding="utf-8")
    lines = raw.splitlines()
    if not lines:
        raise CorruptIndex("empty index file")
    header = lines[0].split(" ")
    if header[0] != MAGIC:
        raise CorruptIndex(f"bad magic: {lines[0][:16]!r}")
    if len(header) != 2 or header[1] != str(VERSION):
        raise VersionMismatch(header[1] if len(header) > 1 else "?", VERSION)

    declared_docs = declared_terms = None
    docs_by_ord: list[str] = []
    doc_lengths: dict[str, int] = {}
    stored: dict[str, Document] = {}
    postings: dict[str, list[Posting]] = {}
    try:
        for line in lines[1:]:
            kind, _, rest = line.partition("\t")
            if kind == "stats":
                cells = dict(c.split("=", 1) for c in rest.split("\t"))
                declared_docs = int(cells["docs"])
                declared_terms = int(cells["terms"])
            elif kind == "doc":
                _ord, doc_id, length, headline, spans, text = rest.split("\t", 5)
                doc_id = unescape_field(doc_id)
                span_list = (
                    tuple(
                        (int(a), int(b))
                        for a, b in (p.split(":") for p in spans.split(","))
                    )
                    if spans != "-"
                    else ()
                )
                stored[doc_id] = Document(
                    doc_id,
                    unescape_optional(headline),
                    unescape_field(text),
                    span_list,
                )
                doc_lengths[doc_id] = int(length)
                docs_by_ord.append(doc_id)
            elif kind == "term":
                term, _, cells = rest.partition("\t")
                plist = []
                for cell in cells.split("\t"):
                    ordinal, tf, pos = cell.split(":", 2)
                    positions = tuple(int(p) for p in pos.split(",")) if pos else ()
                    plist.append(Posting(docs_by_ord[int(ordinal)], int(tf), positions))
                postings[term] = plist
            else:
                raise CorruptIndex(f"unknown record kind {kind!r}")
    except (ValueError, IndexError, KeyError) as exc:
        raise CorruptIndex(f"malformed index record: {exc}") from exc
    if declared_docs is not None and declared_docs != len(stored):
        raise CorruptIndex(f"doc count mismatch: header {declared_docs}, found {len(stored)}")
    if declared_terms is not None and declared_terms != len(postings):
        raise CorruptIndex(f"term count mismatch: header {declared_terms}, found {len(postings)}")
    return InvertedIndex(postings, doc_lengths, stored)
