"""In-house inverted index: construction, persistence, and statistics.

The file format is the README's "File formats: Index" section. Every
token is indexed, stopwords included, and postings hold only term
frequencies, the one per-posting datum BM25 reads. Documents are stored
in the index because passage extraction reads their text. Writing and
loading stream the file through serde's `write_records` and
`read_records`.
"""

import math
import re
from collections.abc import Iterable, Iterator
from itertools import accumulate
from typing import NamedTuple

from .corpus import Document
from .errors import QAError
from .serde import escape_field, read_records, unescape_field, write_records
from .text import terms, tokenize  # tokenize unused: qabench/trace_shim.py wraps this name

MAGIC = "QANUSIDX"
VERSION = 4

# A term's cells as the writer writes them: `GAP[:TF]`, tab-separated, in
# ASCII digits without sign or leading zero. Only the first gap may be 0, so
# the ordinals strictly ascend, and a TF is written only when it is 2 or more.
_GAP_TF = r"(?::(?:[2-9]|[1-9][0-9]+))?"
_CELLS_RE = re.compile(rf"(?:0|[1-9][0-9]*){_GAP_TF}(?:\t[1-9][0-9]*{_GAP_TF})*")


class DuplicateDocId(QAError):
    pass


class CorruptIndex(QAError):
    pass


class IndexStats(NamedTuple):
    doc_count: int
    distinct_terms: int
    total_postings: int
    avg_doc_length: float


class InvertedIndex:
    """An index is not modified once built or loaded: its statistics are
    computed once. Two indexes are equal when their doc ids, cells, doc
    lengths and doc records are; the memos are left out.

    A built index and a loaded one hold one form, the file's: each
    document's record (`spans<TAB>text`, still escaped) and each term's
    cells as the tab-joined text the file stores. Only the doc ids and
    lengths, which every question reads, are decoded. `document` decodes
    one document and `postings` one term's cells on each call, and
    neither keeps what it decodes, so a malformed record in a file whose
    digest holds raises CorruptIndex when it is first read.

    The memos hold what answering reads that does not depend on the
    question, each entry made on first use and kept for the index's
    lifetime, and are never written to the file: `bm25_impacts`, term ->
    {doc id: BM25 impact} in posting order, which `retrieve_documents`
    fills and sums; `doc_passages`, doc id -> (the document's passages,
    one `retrieval.PassageFeatures` per passage), which
    `extraction.answer_question` fills on the document's first
    retrieval; and `_idf`, term -> idf.
    """

    __slots__ = (
        "doc_ids", "cells", "doc_lengths", "doc_records", "avg_doc_length",
        "bm25_impacts", "doc_passages", "_idf",
    )

    def __init__(
        self,
        doc_ids: list[str],
        cells: dict[str, str],
        doc_lengths: dict[str, int],
        doc_records: dict[str, str],
    ):
        self.doc_ids = doc_ids  # doc id by ordinal, ascending
        self.cells = cells      # term -> its `gap[:tf]` cells, tab-joined as in the file
        self.doc_lengths = doc_lengths
        self.doc_records = doc_records  # doc id -> `spans<TAB>text`, escaped as in the file
        self.avg_doc_length = sum(doc_lengths.values()) / len(doc_lengths) if doc_lengths else 0.0
        self.bm25_impacts: dict[str, dict[str, float]] = {}
        self.doc_passages: dict[str, tuple[list, list]] = {}
        self._idf: dict[str, float] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.doc_ids == other.doc_ids
            and self.cells == other.cells
            and self.doc_lengths == other.doc_lengths
            and self.doc_records == other.doc_records
        )

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    def document_frequency(self, term: str) -> int:
        """Postings of `term`, counted from its cells without decoding them."""
        cells = self.cells.get(term)
        return 0 if cells is None else cells.count("\t") + 1

    def document(self, doc_id: str) -> Document:
        """The document `doc_id`, decoded from its record. A malformed spans
        field raises CorruptIndex naming the doc id."""
        spans, _, text = self.doc_records[doc_id].partition("\t")
        try:
            span_list = () if spans == "-" else tuple([
                (int(a), int(b)) for a, b in [pair.split(":") for pair in spans.split(",")]
            ])
        except ValueError as exc:
            raise CorruptIndex(
                f"malformed paragraph spans {spans[:40]!r} of doc id {doc_id!r}"
            ) from exc
        return Document(doc_id, unescape_field(text), span_list)

    def postings(self, term: str) -> list[tuple[str, int]]:
        """(doc_id, tf) per cell of `term`, in ordinal order; [] for a term
        not indexed. Each ordinal is the running sum of the gaps. Cells the
        writer would not write, or an ordinal past the last document, raise
        CorruptIndex naming the term."""
        cells = self.cells.get(term)
        if cells is None:
            return []
        if _CELLS_RE.fullmatch(cells) is None:
            raise CorruptIndex(
                f"malformed postings of term {term!r}: not ascending GAP[:TF] cells"
            )
        doc_ids = self.doc_ids
        try:
            if ":" not in cells:  # every tf is 1
                return [(doc_ids[o], 1) for o in accumulate(map(int, cells.split("\t")))]
            pairs, ordinal = [], 0
            for cell in cells.split("\t"):
                gap, _, tf = cell.partition(":")
                ordinal += int(gap)
                pairs.append((doc_ids[ordinal], int(tf) if tf else 1))
            return pairs
        except IndexError:
            raise CorruptIndex(
                f"malformed postings of term {term!r}: an ordinal is not below "
                f"the doc count {len(doc_ids)}"
            ) from None

    def idf(self, term: str) -> float:
        """BM25 inverse document frequency, non-negative by construction."""
        value = self._idf.get(term)
        if value is None:
            n = self.doc_count
            df = self.document_frequency(term)
            value = self._idf[term] = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        return value

    def stats(self) -> IndexStats:
        return IndexStats(
            doc_count=self.doc_count,
            distinct_terms=len(self.cells),
            total_postings=sum(map(self.document_frequency, self.cells)),
            avg_doc_length=self.avg_doc_length,
        )


def build_index(documents: Iterable[Document]) -> InvertedIndex:
    """Index a document stream; doc_ids must be unique.

    Documents are counted in doc id order, so a document's position is its
    ordinal in the file, and each is dropped for its record as it is
    counted. Its terms are counted in a plain dict. Each term's list holds
    the ordinal of its latest cell at its head, from which the next cell's
    gap is taken. Cell strings are shared across the whole build: one per
    gap for tf 1 (most postings), one per (gap, tf) otherwise. Each list
    is joined in place, so it is freed as its string is made.
    """
    stored: dict[str, Document] = {}
    for doc in documents:
        if doc.doc_id in stored:
            raise DuplicateDocId(f"duplicate doc_id: {doc.doc_id}")
        stored[doc.doc_id] = doc
    doc_ids = sorted(stored)
    records: dict[str, str] = {}
    doc_lengths: dict[str, int] = {}
    cells: dict = {}  # term -> [latest ordinal, cell, ...], then the cells tab-joined
    term_cells = cells.get
    gap_cells: list = [None] * len(doc_ids)  # gap -> its cell for tf 1, made on first use
    gap_tf_cells: dict[tuple[int, int], str] = {}  # (gap, tf) -> its cell for tf 2 or more
    gap_tf_cell = gap_tf_cells.get
    for ordinal, doc_id in enumerate(doc_ids):
        doc = stored.pop(doc_id)
        spans = ",".join(f"{a}:{b}" for a, b in doc.paragraph_spans) or "-"
        records[doc_id] = spans + "\t" + escape_field(doc.text)
        words = terms(doc.text)
        doc_lengths[doc_id] = len(words)
        counts: dict[str, int] = {}
        count = counts.get
        for word in words:
            counts[word] = count(word, 0) + 1
        for term, tf in counts.items():
            listed = term_cells(term)
            if listed is None:
                listed = cells[term] = [0]  # the first gap is the ordinal itself
            gap = ordinal - listed[0]
            listed[0] = ordinal
            if tf == 1:
                cell = gap_cells[gap]
                if cell is None:
                    cell = gap_cells[gap] = str(gap)
            else:
                cell = gap_tf_cell((gap, tf))
                if cell is None:
                    cell = gap_tf_cells[gap, tf] = f"{gap}:{tf}"
            listed.append(cell)
    for term, listed in cells.items():
        del listed[0]
        cells[term] = "\t".join(listed)
    return InvertedIndex(doc_ids, cells, doc_lengths, records)


def _stats_line(index: InvertedIndex) -> str:
    st = index.stats()
    return f"stats\tdocs={st.doc_count}\tterms={st.distinct_terms}\tpostings={st.total_postings}"


def _index_lines(index: InvertedIndex) -> Iterator[str]:
    yield _stats_line(index)
    lengths, records = index.doc_lengths, index.doc_records
    for doc_id in index.doc_ids:
        yield f"doc\t{escape_field(doc_id)}\t{lengths[doc_id]}\t{records[doc_id]}"
    for term, cells in sorted(index.cells.items()):
        yield "term\t" + term + "\t" + cells


def write_index(index: InvertedIndex, path) -> None:
    """Serialize deterministically: docs in ordinal order, terms sorted, cells as held."""
    write_records(path, MAGIC, VERSION, _index_lines(index))


def load_index(path) -> InvertedIndex:
    """Read an index written by write_index; load(write(x)) == x.

    Each line is split as `read_records` yields it, into the form
    `InvertedIndex` holds. Doc ids and terms must strictly ascend, and the
    stats line must match the documents read and the term cells counted.
    """
    records = read_records(path, MAGIC, VERSION, CorruptIndex, "qapipe index")
    stats = next(records, None)
    docs_by_ord: list[str] = []
    doc_lengths: dict[str, int] = {}
    doc_records: dict[str, str] = {}
    cells_by_term: dict[str, str] = {}
    try:
        for line in records:
            kind, _, rest = line.partition("\t")
            if kind == "doc":
                doc_id, length, record = rest.split("\t", 2)
                record.index("\t")  # a record without its text field raises ValueError
                doc_id = unescape_field(doc_id)
                if docs_by_ord and doc_id <= docs_by_ord[-1]:
                    raise CorruptIndex(f"doc id {doc_id!r} does not follow {docs_by_ord[-1]!r}")
                doc_records[doc_id] = record
                doc_lengths[doc_id] = int(length)
                docs_by_ord.append(doc_id)
            elif kind == "term":
                term, _, cells = rest.partition("\t")
                if cells_by_term and term <= last_term:
                    raise CorruptIndex(f"term {term!r} does not follow {last_term!r}")
                cells_by_term[term] = cells
                last_term = term
            else:
                raise CorruptIndex(f"unknown record kind {kind!r}")
    except (ValueError, IndexError) as exc:
        raise CorruptIndex(f"malformed index record: {exc}") from exc
    index = InvertedIndex(docs_by_ord, cells_by_term, doc_lengths, doc_records)
    if stats != _stats_line(index):
        raise CorruptIndex(f"stats line {stats!r} does not match the records")
    return index
