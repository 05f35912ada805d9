"""Stage 3: answer a question with candidate extraction and ranking.

Extraction dispatches on the expected answer type:

  NUM:date        date patterns ("12 January 2004", "January 12, 2004",
                  "January 2004", bare years 1000-2999)
  NUM:money       digit groups with currency context ($, dollar words)
  NUM:perc        digit groups with % / percent context
  NUM (others)    digit groups with thousands separators, optional
                  scale word (hundred ... trillion)
  ABBR:abb        all-caps or dotted abbreviation tokens
  HUM / LOC /     maximal runs of capitalized words (internal of/de/van
  ENTY / ABBR:exp allowed), minus lone sentence-initial words, stopwords,
                  and echoes of the question's own query terms
  DESC            the passage's highest-scoring sentence

`answer_question` runs the layers in order; `rank_candidates` says how
candidates are scored. The stage-3 settings are `config.AnswerSettings`,
and each answer an `answers.AnswerRecord`.
"""

import re
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import contains
from typing import NamedTuple

# write_answers and load_answers are bound here too: qabench/trace_shim.py
# wraps both names on this module, and the answer stage writes through it.
from .answers import AnswerRecord, load_answers, write_answers
from .config import AnswerSettings
from .index import InvertedIndex
from .questions import QuestionAnalysis
from .retrieval import (
    Passage, PassageFeatures, query_weights, retrieve_documents, score_term_tuples,
    segment_passages,
)
from .retrieval import score_passage  # unused: qabench/trace_shim.py wraps this name
from .serde import unescape_field  # unused: qabench/trace_shim.py wraps this name
from .stopwords import STOPWORDS
from .taxonomy import AnswerType
from .text import tokenize  # tokenize unused: qabench/trace_shim.py wraps this name

GAZETTEER_BONUS = 1.0


class CandidateAnswer(NamedTuple):
    text: str
    doc_id: str
    char_offset: int          # offset of `text` in the source document
    passage_index: int        # rank of the passage it came from
    passage_score: float
    proximity_score: float = 0.0
    redundancy_count: int = 1
    gazetteer_match: bool = False
    final_score: float = 0.0


_MONTH = (
    "January|February|March|April|May|June|July|August|September|October|November|December"
)
_DATE_PATTERNS = (
    re.compile(rf"\b\d{{1,2}}\s+(?:{_MONTH})\s+\d{{4}}\b", re.IGNORECASE),
    re.compile(rf"\b(?:{_MONTH})\s+\d{{1,2}},\s+\d{{4}}\b", re.IGNORECASE),
    re.compile(rf"\b(?:{_MONTH})\s+\d{{4}}\b", re.IGNORECASE),
    re.compile(r"\b[12]\d{3}\b"),
)

_NUMBER = r"\d[\d,]*(?:\.\d+)?"
_SCALE = r"(?:hundred|thousand|million|billion|trillion)"
_MONEY_PATTERNS = (
    re.compile(rf"\$\s?{_NUMBER}(?:\s+{_SCALE})?", re.IGNORECASE),
    re.compile(
        rf"\b{_NUMBER}(?:\s+{_SCALE})?\s+(?:dollars?|euros?|pounds?|cents?|francs?|yen)\b",
        re.IGNORECASE,
    ),
)
_PERCENT_PATTERN = re.compile(rf"\b{_NUMBER}\s?(?:%|percent|per cent)", re.IGNORECASE)
_GENERIC_NUMBER_PATTERN = re.compile(rf"\b{_NUMBER}(?:\s+{_SCALE})?\b", re.IGNORECASE)

_ABBREV_PATTERN = re.compile(r"\b(?:[A-Z]\.){2,}|\b[A-Z]{2,10}\b")

_CONNECTORS = ("of", "de", "van")
_CAP_WORD = r"[A-Z][A-Za-z'’\-]*"
_CAP_RUN_PATTERN = re.compile(
    rf"{_CAP_WORD}(?:\s+(?:(?:{'|'.join(_CONNECTORS)})\s+)?{_CAP_WORD})*"
)

# The pattern groups by name; a passage's hits are memoized by this name.
_PATTERN_GROUPS = {
    "date": _DATE_PATTERNS,
    "money": _MONEY_PATTERNS,
    "perc": (_PERCENT_PATTERN,),
    "number": (_GENERIC_NUMBER_PATTERN,),
    "abb": (_ABBREV_PATTERN,),
}
_RUNS = "runs"  # the memo key of the capitalized runs


def _collect_matches(text: str, patterns) -> list[tuple[int, str]]:
    """Matches in priority order; later patterns may not overlap earlier hits."""
    taken: list[tuple[int, int]] = []
    found: list[tuple[int, str]] = []
    for pattern in patterns:
        for m in pattern.finditer(text):
            a, b = m.span()
            if any(a < tb and ta < b for ta, tb in taken):
                continue
            taken.append((a, b))
            found.append((a, m.group(0)))
    found.sort()
    return found


def _drop_first_word(start: int, run: str, words: list[str]) -> tuple[int, str, list[str]]:
    cut = len(words[0])
    while cut < len(run) and run[cut].isspace():
        cut += 1
    return start + cut, run[cut:], words[1:]


def _capitalized_runs(text: str, sentences) -> list[tuple[int, str, tuple[str, ...]]]:
    """(start, run, content words) of each capitalized run that is not a lone
    sentence-initial word. The content words are the run's words that are
    neither connectors nor stopwords, lowered; a run without one is dropped."""
    sentence_starts = {a for a, _ in sentences}
    out: list[tuple[int, str, tuple[str, ...]]] = []
    for m in _CAP_RUN_PATTERN.finditer(text):
        start, run = m.start(), m.group(0)
        words = run.split()
        # A sentence-initial stopword is capitalized by position, not by name.
        if start in sentence_starts and words[0].lower() in STOPWORDS:
            start, run, words = _drop_first_word(start, run, words)
            while words and words[0].lower() in _CONNECTORS:
                start, run, words = _drop_first_word(start, run, words)
            if not words:
                continue
        if len(words) == 1 and start in sentence_starts:
            continue
        lowered = (w.lower() for w in words)
        content = tuple(w for w in lowered if w not in _CONNECTORS and w not in STOPWORDS)
        if content:
            out.append((start, run, content))
    return out


def _query_free_hits(features: PassageFeatures, group: str) -> list:
    """The hits of `group` in the features' text: the matches of a
    _PATTERN_GROUPS group, or the _capitalized_runs for _RUNS. They depend
    on the text alone, so they are memoized on the features under the
    group's name."""
    text = features.text
    memo = features.hits
    if memo is None:
        memo = features.hits = {}
    hits = memo.get(group)
    if hits is None:
        if group == _RUNS:
            hits = _capitalized_runs(text, features.sentences)
        else:
            hits = _collect_matches(text, _PATTERN_GROUPS[group])
        memo[group] = hits
    return hits


def _best_sentence(
    features: PassageFeatures, query_terms, index: InvertedIndex, coverage_weight: float
) -> tuple[int, str] | None:
    """The passage's first sentence of the highest score, with its offset,
    scored by `score_term_tuples`. A sentence's terms are the slice of its
    passage's terms whose words start within it: no word crosses a
    sentence's end, which follows punctuation or ends the text."""
    sentences = features.sentences
    if not sentences:
        return None
    words, starts = features.terms, features.word_offsets[0]
    scores = score_term_tuples(
        [words[bisect_left(starts, a):bisect_left(starts, b)] for a, b in sentences],
        query_weights(query_terms, index),
        coverage_weight,
    )
    a, b = sentences[scores.index(max(scores))]
    return a, features.text[a:b]


def extract_candidates(
    passage: Passage,
    answer_type: AnswerType,
    query_terms: list[str],
    index: InvertedIndex,
    settings: AnswerSettings = AnswerSettings(),
    passage_index: int = 0,
    features: PassageFeatures | None = None,
) -> list[CandidateAnswer]:
    """Type-conditioned extraction; offsets are document-level.

    `features` are the passage's, made afresh and not kept when None, as
    for a passage built by hand. The passage's query-independent hits are
    kept on them (`_query_free_hits`); per call, only the query-echo filter of
    capitalized runs and DESC's best sentence run.
    """
    if features is None:
        features = PassageFeatures(passage.text)
    coarse, fine = answer_type.coarse, answer_type.fine
    if coarse == "NUM":
        group = fine if fine in ("date", "money", "perc") else "number"
        hits = _query_free_hits(features, group)
    elif coarse == "ABBR" and fine == "abb":
        hits = _query_free_hits(features, "abb")
    elif coarse in ("HUM", "LOC", "ENTY", "ABBR"):
        query = {t.lower() for t in query_terms}
        hits = [
            (start, run)
            for start, run, content in _query_free_hits(features, _RUNS)
            if not query.issuperset(content)
        ]
    else:  # DESC, the one coarse class left
        best = _best_sentence(features, query_terms, index, settings.coverage_weight)
        hits = [best] if best else []

    base = passage.char_span[0]
    gaz = {"HUM": settings.persons, "LOC": settings.locations}.get(coarse, frozenset())
    return [
        CandidateAnswer(
            text=hit,
            doc_id=passage.doc_id,
            char_offset=base + offset,
            passage_index=passage_index,
            passage_score=passage.passage_score,
            gazetteer_match=hit.lower() in gaz,
        )
        for offset, hit in hits
    ]


def _token_span(starts, ends, rel_start: int, rel_end: int) -> tuple[int, int]:
    """Positions of the first and last word covering [rel_start, rel_end).

    `starts` and `ends` are the words' offsets, both sorted. When no word
    covers the span, both positions are those of the word starting nearest
    rel_start, the earlier one on a tie, or 0 when there are no words.
    """
    first = bisect_right(ends, rel_start)
    last = bisect_left(starts, rel_end) - 1
    if first <= last:
        return first, last
    if not starts:
        return 0, 0
    i = bisect_left(starts, rel_start)
    if i == len(starts) or (i > 0 and rel_start - starts[i - 1] <= starts[i] - rel_start):
        i -= 1
    return i, i


def rank_candidates(
    candidates: list[CandidateAnswer],
    analysis: QuestionAnalysis,
    passages: list[Passage],
    features: list[PassageFeatures] | None = None,
    settings: AnswerSettings = AnswerSettings(),
) -> list[CandidateAnswer]:
    """Deduplicate, score, and order candidates best-first.

    Of each case-insensitive duplicate only the earliest source is kept,
    and only kept candidates are scored: a score reads the candidate's own
    span and how many passages hold its text, never another duplicate.
    The final score is the passage score, plus `proximity_weight` times
    the sum over query terms of 1 / (1 + the word distance from the
    candidate to the term's nearest occurrence in the passage), plus
    `redundancy_weight` times one less than the number of passages whose
    text holds the candidate's, case-insensitively, plus GAZETTEER_BONUS
    for a gazetteer name. The words a candidate covers are found by
    bisecting its passage's word offsets, and each query term's positions
    with `tuple.index` over the passage's terms; no positional tokens are
    built. The scored candidates are copies; the given ones are not
    changed. A passage's terms and word offsets are read from its
    features, the parallel list `features`, or made afresh when it is
    None.
    """
    earliest: dict[str, CandidateAnswer] = {}
    for cand in candidates:
        key = cand.text.lower()
        kept = earliest.setdefault(key, cand)
        if (cand.passage_index, cand.char_offset) < (kept.passage_index, kept.char_offset):
            earliest[key] = cand
    if not earliest:
        return []
    # Once per passage with a kept candidate: its words' offsets, and the
    # word positions of each query term in it.
    query = set(analysis.query_terms)
    passage_words = {}
    for i in {c.passage_index for c in earliest.values()}:
        facts = features[i] if features is not None else PassageFeatures(passages[i].text)
        words = facts.terms
        positions: dict[str, list[int]] = {}
        for term in query:
            at = -1  # each search starts after the previous occurrence
            if n := words.count(term):
                positions[term] = [at := words.index(term, at + 1) for _ in range(n)]
        passage_words[i] = (*facts.word_offsets, positions)
    lowered_passages = [p.text.lower() for p in passages]

    scored: list[CandidateAnswer] = []
    for key, cand in earliest.items():
        starts, ends, positions = passage_words[cand.passage_index]
        rel_start = cand.char_offset - passages[cand.passage_index].char_span[0]
        first, last = _token_span(starts, ends, rel_start, rel_start + len(cand.text))
        prox = 0.0
        for term in analysis.query_terms:
            occurrences = positions.get(term)
            if not occurrences:
                continue
            dist = min(
                0 if first <= o <= last else (first - o if o < first else o - last)
                for o in occurrences
            )
            prox += 1.0 / (1.0 + dist)
        red = sum(map(contains, lowered_passages, repeat(key)))
        final = (
            cand.passage_score
            + settings.proximity_weight * prox
            + settings.redundancy_weight * (red - 1)
            + (GAZETTEER_BONUS if cand.gazetteer_match else 0.0)
        )
        scored.append(CandidateAnswer(
            cand.text, cand.doc_id, cand.char_offset, cand.passage_index, cand.passage_score,
            prox, red, cand.gazetteer_match, final,
        ))
    return sorted(scored, key=lambda c: (-c.final_score, c.passage_index, c.char_offset, c.text))


def answer_question(
    index: InvertedIndex,
    analysis: QuestionAnalysis,
    settings: AnswerSettings = AnswerSettings(),
) -> AnswerRecord:
    """Retrieve, segment, score, extract, rank; NIL when nothing survives,
    as for an empty query, which retrieves no document.

    A document is decoded and segmented on its first retrieval, and its
    passages and their features are kept in the index's `doc_passages`
    memo. Every passage of the retrieved documents is scored by one
    `score_term_tuples` call. The kept passages are the first
    `max_passages` of a stable sort by score of the passages in retrieval
    order (by doc rank, each document's in text order), so tied scores
    keep that order; their features go on to extraction and ranking as a
    parallel list.
    """
    nil = AnswerRecord(analysis.qid, None, None, 0.0)
    docs = retrieve_documents(index, analysis.query_terms, settings.k)
    if not docs:
        return nil

    memo = index.doc_passages
    passages: list[Passage] = []
    features: list[PassageFeatures] = []
    for scored_doc in docs:
        entry = memo.get(scored_doc.doc_id)
        if entry is None:
            doc_passages = segment_passages(index.document(scored_doc.doc_id))
            entry = memo[scored_doc.doc_id] = (
                doc_passages, [PassageFeatures(p.text) for p in doc_passages]
            )
        passages += entry[0]
        features += entry[1]
    scores = score_term_tuples(
        [f.terms for f in features], query_weights(analysis.query_terms, index),
        settings.coverage_weight,
    )
    best = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    best = best[: settings.max_passages]
    kept = [Passage(*passages[i][:3], scores[i]) for i in best]  # not _replace: slower
    kept_features = [features[i] for i in best]

    candidates: list[CandidateAnswer] = []
    for i, passage in enumerate(kept):
        candidates.extend(extract_candidates(
            passage, analysis.answer_type, analysis.query_terms, index, settings, i,
            kept_features[i],
        ))
    ranked = rank_candidates(candidates, analysis, kept, kept_features, settings)
    if not ranked:
        return nil
    top = ranked[0]
    return AnswerRecord(analysis.qid, top.text, top.doc_id, top.final_score)

