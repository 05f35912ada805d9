"""Document retrieval, passage segmentation and the passage score.

This module owns BM25 (k1=1.2, b=0.75); the index only stores and counts.
A term's idf = ln(1 + (N - df + 0.5) / (df + 0.5)) is non-negative, so
adding an occurrence of a matched term never lowers a passage score. Its
impact in a document is idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)).
`score_term_tuples` is the one passage-score kernel.
"""

import math
import re
import sys
from array import array
from operator import itemgetter
from typing import NamedTuple

from .corpus import Document
from .index import InvertedIndex
from .text import TOKEN_RE, terms, tokenize  # tokenize unused: qabench/trace_shim.py wraps this name

BM25_K1 = 1.2
BM25_B = 0.75

SENTENCES_PER_PASSAGE = 3
PASSAGE_STRIDE = 2


class ScoredDocument(NamedTuple):
    doc_id: str
    retrieval_score: float


class Passage(NamedTuple):
    doc_id: str
    char_span: tuple[int, int]
    text: str
    passage_score: float = 0.0


def _bm25_term(index: InvertedIndex, term: str) -> tuple[float, dict[str, float]]:
    """The `bm25_terms` memo entry of `term`, made on its first use."""
    entry = index.bm25_terms.get(term)
    if entry is None:
        n = index.doc_count
        df = index.document_frequency(term)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        avg = index.avg_doc_length
        lengths = index.doc_lengths
        k1, b = BM25_K1, BM25_B
        entry = index.bm25_terms[term] = (idf, {
            doc_id: idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * lengths[doc_id] / avg))
            for doc_id, tf in index.postings(term)
        })
    return entry


def retrieve_documents(
    index: InvertedIndex, query_terms: list[str], k: int
) -> list[ScoredDocument]:
    """Top-k BM25; ties break by doc_id ascending. An empty query scores
    no document, so it gives [].

    Scores are summed by dict union, in query-term order: the first term's
    impacts are the scores, each next term's impacts update them, and only
    the documents scored before it get Python work, their old score plus
    its impact. Every impact is positive, so a document's first impact is
    its score exactly, as 0.0 plus the impact is. Only the scores at or
    above the k-th largest are ordered.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores: dict[str, float] = {}
    for term in query_terms:
        impacts = _bm25_term(index, term)[1]
        if not scores:
            scores = dict(impacts)
            continue
        common = scores.keys() & impacts.keys()
        sums = [scores[doc_id] + impacts[doc_id] for doc_id in common]
        scores.update(impacts)
        scores.update(zip(common, sums))
    items = scores.items()
    if len(scores) > k:
        kth = sorted(scores.values(), reverse=True)[k - 1]
        items = [(doc_id, score) for doc_id, score in items if score >= kth]
    ranked = sorted(items)
    ranked.sort(key=itemgetter(1), reverse=True)  # stable: equal scores keep doc id order
    return [ScoredDocument(doc_id, score) for doc_id, score in ranked[:k]]


# A sentence ends at ./?/! when whitespace and an uppercase letter follow.
_SENT_BREAK_RE = re.compile(r"[.?!](?=\s+[A-Z])")


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences, each cut at a break end (or the end of
    the text) and trimmed of whitespace as it is cut; empty ones are dropped."""
    spans: list[tuple[int, int]] = []
    start = 0
    for end in [*(m.end() for m in _SENT_BREAK_RE.finditer(text)), len(text)]:
        sentence = text[start:end].lstrip()
        a = end - len(sentence)
        b = a + len(sentence.rstrip())
        if a < b:
            spans.append((a, b))
        start = end
    return spans


def segment_passages(document: Document) -> list[Passage]:
    """The document's passages in text order: its paragraphs by start, equal
    starts in their given order (a stable sort), when it has paragraph markup;
    otherwise windows of SENTENCES_PER_PASSAGE sentences (see split_sentences)
    with stride PASSAGE_STRIDE, the last window ending at the last sentence."""
    text = document.text
    if not text:
        return []
    if document.paragraph_spans:
        return [
            Passage(document.doc_id, span, text[span[0]:span[1]])
            for span in sorted(document.paragraph_spans, key=itemgetter(0))
        ]
    sentences = split_sentences(text)
    if not sentences:
        return []
    passages: list[Passage] = []
    i = 0
    while True:
        window = sentences[i : i + SENTENCES_PER_PASSAGE]
        a, b = window[0][0], window[-1][1]
        passages.append(Passage(document.doc_id, (a, b), text[a:b]))
        if i + SENTENCES_PER_PASSAGE >= len(sentences):
            break
        i += PASSAGE_STRIDE
    return passages


class PassageFeatures:
    """What a passage text yields whatever the query: its terms, interned,
    computed when the features are made; its sentence spans and its words'
    start and end offsets, each computed on its first read; and `hits`,
    which `extraction` fills (see its `_query_free_hits`)."""

    __slots__ = ("text", "terms", "hits", "_sentences", "_starts", "_ends")

    def __init__(self, text: str):
        self.text = text
        self.terms: tuple[str, ...] = tuple(map(sys.intern, terms(text)))
        self.hits: dict[str, list] | None = None
        self._sentences: list[tuple[int, int]] | None = None
        self._starts: array | None = None
        self._ends: array | None = None

    @property
    def sentences(self) -> list[tuple[int, int]]:
        """split_sentences(text)."""
        if self._sentences is None:
            self._sentences = split_sentences(self.text)
        return self._sentences

    @property
    def word_offsets(self) -> tuple[array, array]:
        """The start and the end offset of each word, in word order; the
        words are the matches of TOKEN_RE, one per term."""
        if self._starts is None:
            starts, ends = array("i"), array("i")
            for m in TOKEN_RE.finditer(self.text):
                a, b = m.span()
                starts.append(a)
                ends.append(b)
            self._starts, self._ends = starts, ends
        return self._starts, self._ends


def query_weights(query_terms: list[str], index: InvertedIndex) -> list[tuple[str, float]]:
    """Each query term with its idf, in query-term order: all that the
    passage score reads of the question and the index."""
    return [(term, _bm25_term(index, term)[0]) for term in query_terms]


def score_term_tuples(
    term_tuples: list[tuple[str, ...]],
    weights: list[tuple[str, float]],
    coverage_weight: float,
) -> list[float]:
    """The score of each tuple of terms: the sum of idf-weighted log term
    counts plus a query-coverage bonus, the share of query terms matched
    times `coverage_weight`. `weights` are the question's `query_weights`,
    added in their order; a question without query terms scores 0.0.

    This is the one home of the passage score. A tuple holds the terms of
    the text scored: answering scores every passage of the retrieved
    documents with one call per question, and DESC extraction every
    sentence of a kept passage, each the slice of its passage's terms,
    with one call per passage."""
    if not weights:
        return [0.0] * len(term_tuples)
    # The coverage bonus of each number of matched query terms.
    bonus = [coverage_weight * (matched / len(weights)) for matched in range(len(weights) + 1)]
    scores = []
    for words in term_tuples:
        score = 0.0
        matched = 0
        for term, idf in weights:
            # A query has a few terms, so counting each in the tuple beats a Counter.
            n = words.count(term)
            if n > 0:
                matched += 1
                score += idf * (1.0 + math.log(n))
        scores.append(score + bonus[matched])
    return scores


def score_passage(
    passage: Passage,
    query_terms: list[str],
    index: InvertedIndex,
    coverage_weight: float,
) -> float:
    """The kernel's score of the passage's terms."""
    words = PassageFeatures(passage.text).terms
    return score_term_tuples([words], query_weights(query_terms, index), coverage_weight)[0]
