"""Property tests for the field codec, the index file format, tokenization,
query terms, passage scoring, BM25 retrieval, candidate proximity and the
stage-file loaders."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qapipe.classifier import load_model
from qapipe.corpus import Document
from qapipe.errors import QAError
from qapipe.evaluation import load_gold
from qapipe.extraction import (
    _token_span, answer_question, extract_candidates, load_answers, rank_candidates,
)
from qapipe.index import Posting, build_index, load_index, write_index
from qapipe.questions import Question, QuestionAnalysis, analyze, load_analyses
from qapipe.stopwords import STOPWORDS
from qapipe.retrieval import (
    BM25_B, BM25_K1, DEFAULT_COVERAGE_WEIGHT, Passage, ScoredDocument, retrieve_documents,
    score_passage,
)
from qapipe.taxonomy import AnswerType
from qapipe.serde import escape_field, unescape_field
from qapipe.text import terms, tokenize

# Escape letters, the characters escaping rewrites, and the line breaks
# that str.splitlines() would split on but escape_field leaves alone.
TRICKY = list("\\tnrN\t\n\r ") + ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
tricky_text = st.text(st.sampled_from(TRICKY) | st.characters(codec="utf-8"), max_size=30)


def reference_unescape(s: str) -> str:
    """The character loop unescape_field replaced, kept as the oracle."""
    out: list[str] = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            nxt = s[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


@given(tricky_text)
def test_unescape_inverts_escape(s):
    assert unescape_field(escape_field(s)) == s


@given(tricky_text)
def test_unescape_matches_reference_loop(s):
    assert unescape_field(s) == reference_unescape(s)


documents = st.builds(
    Document,
    doc_id=tricky_text,
    headline=st.none() | tricky_text,
    text=tricky_text,
    paragraph_spans=st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3
    ).map(tuple),
)


@settings(max_examples=50)
@given(st.lists(documents, max_size=5, unique_by=lambda d: d.doc_id))
def test_index_round_trip(tmp_path_factory, docs):
    idx = build_index(docs)
    path = tmp_path_factory.mktemp("prop") / "idx.qix"
    write_index(idx, path)
    loaded = load_index(path)
    assert loaded == idx  # every term's postings included
    assert all(type(p) is Posting for plist in loaded.postings.values() for p in plist)


@given(st.text())
def test_terms_are_the_token_surfaces(text):
    assert terms(text) == [t.surface for t in tokenize(text)]


# Words with non-ASCII case mappings; "İ" lowers to two characters.
UNICODE_WORDS = ["İstanbul", "İ", "Straße", "ΣΊΣΥΦΟΣ", "ǅemal", "ﬁre", "x"]


@given(st.lists(st.sampled_from(UNICODE_WORDS + [" ", ".", "_"]) | st.characters()).map("".join))
def test_token_span_slices_back_to_its_surface(text):
    for t in tokenize(text):
        assert text[t.char_offset:t.char_end].lower() == t.surface


def reference_query_terms(question, stoplist):
    """analyze's query terms as they were: Token surfaces minus stopwords,
    then the target's terms minus stopwords, deduplicated in order."""
    words = [t.surface for t in tokenize(question.text) if t.surface not in stoplist]
    if question.target:
        words += [w for w in terms(question.target) if w not in stoplist]
    return list(dict.fromkeys(words))


question_text = st.lists(
    st.sampled_from(UNICODE_WORDS + ["What", "is", "the", "of", "Mill", " ", "?", "_"])
    | st.characters()
).map("".join)


@given(question_text, st.none() | question_text)
def test_query_terms_match_token_reference(text, target):
    question = Question("q1", text, target)
    analysis = analyze(question, None, STOPWORDS)
    assert analysis.query_terms == reference_query_terms(question, STOPWORDS)


def reference_score_passage(passage, query_terms, index, coverage_weight):
    """score_passage as it was before terms(), counting Token surfaces."""
    if not query_terms:
        return 0.0
    counts = Counter(t.surface for t in tokenize(passage.text))
    score = 0.0
    matched = 0
    for term in query_terms:
        n = counts.get(term, 0)
        if n > 0:
            matched += 1
            score += index.idf(term) * (1.0 + math.log(n))
    return score + coverage_weight * (matched / len(query_terms))


VOCAB = ["amber", "mill", "Mill", "built", "the", "İstanbul", "straße", "x1"]
words_text = st.lists(st.sampled_from(VOCAB + [",", ".", " "]), max_size=12).map(" ".join)
corpora = st.dictionaries(st.from_regex(r"d[0-9]{1,2}", fullmatch=True), words_text, max_size=8)
queries = st.lists(st.sampled_from([w.lower() for w in VOCAB] + ["absent"]), max_size=4)


@given(corpora, words_text | st.text(), queries, st.sampled_from([0.0, DEFAULT_COVERAGE_WEIGHT]))
def test_score_passage_matches_token_reference(docs, text, query, weight):
    index = build_index(Document(d, None, t, ()) for d, t in docs.items())
    passage = Passage("p", (0, len(text)), text)
    assert score_passage(passage, query, index, weight) == reference_score_passage(
        passage, query, index, weight
    )


@given(corpora.filter(bool).flatmap(lambda d: st.tuples(st.just(d), st.permutations(sorted(d)))),
       queries, st.integers(1, 5))
def test_bm25_top_k_ignores_corpus_order(docs_and_order, query, k):
    docs, order = docs_and_order
    as_given = build_index(Document(d, None, docs[d], ()) for d in sorted(docs))
    shuffled = build_index(Document(d, None, docs[d], ()) for d in order)
    assert retrieve_documents(shuffled, query, k) == retrieve_documents(as_given, query, k)


def reference_retrieve(index, query_terms, k):
    """retrieve_documents as it was before memoized impacts: one loop per posting."""
    if not query_terms:
        return []
    avg = sum(index.doc_lengths.values()) / len(index.doc_lengths) if index.doc_lengths else 0.0
    scores = {}
    for term in query_terms:
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        for posting in plist:
            tf = posting.term_frequency
            dl = index.doc_lengths[posting.doc_id]
            denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avg)
            scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + idf * tf * (
                BM25_K1 + 1.0
            ) / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [ScoredDocument(doc_id, score) for doc_id, score in ranked[:k]]


def analysis_of(query, answer_type=AnswerType("HUM", "ind")):
    return QuestionAnalysis("q1", " ".join(query), query, answer_type, "rule")


@settings(max_examples=50)
@given(corpora, st.lists(queries, min_size=1, max_size=3), st.integers(1, 5))
def test_loaded_index_retrieves_and_answers_as_the_built_one(tmp_path_factory, docs, asked, k):
    built = build_index(Document(d, None, t, ()) for d, t in docs.items())
    path = tmp_path_factory.mktemp("prop") / "idx.qix"
    write_index(built, path)
    loaded = load_index(path)
    for query in asked:  # a second query reuses the memoized impacts of the first
        assert retrieve_documents(loaded, query, k) == reference_retrieve(built, query, k)
        assert answer_question(loaded, analysis_of(query)) == answer_question(
            built, analysis_of(query)
        )


def reference_proximity(passage, candidate, query_terms):
    """rank_candidates' proximity as it was: positions listed per candidate and term."""
    tokens = tokenize(passage.text)
    first, last = _token_span(passage, candidate, tokens)
    prox = 0.0
    for term in query_terms:
        occurrences = [t.position for t in tokens if t.surface == term]
        if occurrences:
            dist = min(
                0 if first <= o <= last else (first - o if o < first else o - last)
                for o in occurrences
            )
            prox += 1.0 / (1.0 + dist)
    return prox


NAMED = ["amber", "mill", "built", "the", "Maria", "Voss", "Kellan", ",", "."]
named_text = st.lists(st.sampled_from(NAMED), max_size=20).map(" ".join)


@given(st.lists(named_text, min_size=1, max_size=3),
       st.lists(st.sampled_from(NAMED[:4]), min_size=1, max_size=3))
def test_rank_proximity_matches_per_candidate_reference(texts, query):
    passages = [Passage("d", (0, len(t)), t) for t in texts]
    candidates = [
        c
        for i, p in enumerate(passages)
        for c in extract_candidates(p, AnswerType("HUM", "ind"), query, passage_index=i)
    ]
    for ranked in rank_candidates(candidates, analysis_of(query), passages):
        passage = passages[ranked.passage_index]
        assert ranked.proximity_score == reference_proximity(passage, ranked, query)


# Near-valid stage files for each loader: real field values, values that
# must be refused, and short arbitrary text.
ALPHA = st.sampled_from(["1.0", "0.25", "1e308"]) | st.sampled_from(["0", "-1", "nan", "inf", "x"])
COUNT = st.sampled_from(["1", "3", "9" * 400]) | st.sampled_from(["0", "-1", "2.5", "x"])
LABEL = st.sampled_from(["NUM", "NUM:date", "HUM:ind"]) | st.sampled_from(
    ["PLANET", "NUM:moon", "NUM:"])
SHORT = st.text(max_size=4)


def records(fields, sep):
    return st.lists(fields.map(sep.join), max_size=6).map("\n".join)


@st.composite
def model_files(draw):
    """Records in the order write_model uses, so that most drawn models are complete."""
    lines = ["QANUSNB1 1", f"alpha {draw(ALPHA)}",
             f"space {draw(st.sampled_from(['coarse', 'coarse+fine']) | SHORT)}"]
    lines += [f"label {draw(LABEL)} {draw(COUNT)}" for _ in range(draw(st.integers(1, 2)))]
    feature = st.sampled_from(["wh=who", "mill"]) | SHORT
    lines += [f"feat {draw(LABEL)} {draw(feature)} {draw(COUNT)}"
              for _ in range(draw(st.integers(0, 3)))]
    return "\n".join(lines + draw(st.lists(SHORT, max_size=1)))


STAGE_FILES = {
    load_answers: records(st.lists(
        st.sampled_from(["q1", "q\\t1", "NIL", "-", "D1", "1.5", "nan", "high"]) | SHORT,
        min_size=3, max_size=5,
    ), "\t"),
    load_analyses: records(st.lists(
        st.sampled_from(["q1", "mill built", "NUM", "HUM", "date", "-", "0.5", "2", "x",
                         "model"]) | SHORT,
        min_size=5, max_size=7,
    ), "\t"),
    load_model: model_files(),
    load_gold: records(st.tuples(
        st.sampled_from(["q1", "#", ""]) | SHORT,
        st.sampled_from(["rome", "(", "a{1,99999999999}", "\\", "NIL"]) | SHORT,
    ), " "),
}


def load_or_refuse(loader, path):
    """The loaded object, or None when the loader raised a QAError."""
    try:
        return loader(path)
    except QAError:
        return None


@pytest.mark.parametrize("loader", STAGE_FILES, ids=lambda f: f.__name__)
@given(data=st.data())
def test_stage_file_loaders_take_arbitrary_bytes(tmp_path_factory, loader, data):
    near_valid = data.draw(STAGE_FILES[loader]).encode("utf-8")
    raw = data.draw(st.binary() | st.binary(min_size=1, max_size=4).map(near_valid.__add__))
    path = tmp_path_factory.mktemp("loader") / "stage-file"
    path.write_bytes(raw)
    load_or_refuse(loader, path)


@pytest.mark.parametrize("loader", STAGE_FILES, ids=lambda f: f.__name__)
@settings(max_examples=200)
@given(data=st.data())
def test_stage_file_loaders_load_or_refuse_near_valid_files(tmp_path_factory, loader, data):
    path = tmp_path_factory.mktemp("loader") / "stage-file"
    path.write_text(data.draw(STAGE_FILES[loader]), encoding="utf-8")
    loaded = load_or_refuse(loader, path)
    if loader is load_model and loaded is not None:  # its log-probabilities are finite
        tables = [loaded.class_priors, loaded.unseen_log_likelihood,
                  *loaded.term_log_likelihoods.values()]
        assert all(math.isfinite(v) for table in tables for v in table.values())
