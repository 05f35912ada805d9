"""Property tests for the field codec, the index file format, tokenization,
passage scoring and BM25 retrieval."""

import math
from collections import Counter

from hypothesis import given, settings, strategies as st

from qapipe.corpus import Document
from qapipe.index import build_index, load_index, write_index
from qapipe.retrieval import (
    DEFAULT_COVERAGE_WEIGHT, Passage, retrieve_documents, score_passage,
)
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
    assert load_index(path) == idx


@given(st.text())
def test_terms_are_the_token_surfaces(text):
    assert terms(text) == [t.surface for t in tokenize(text)]


# Words with non-ASCII case mappings; "İ" lowers to two characters.
UNICODE_WORDS = ["İstanbul", "İ", "Straße", "ΣΊΣΥΦΟΣ", "ǅemal", "ﬁre", "x"]


@given(st.lists(st.sampled_from(UNICODE_WORDS + [" ", ".", "_"]) | st.characters()).map("".join))
def test_token_span_slices_back_to_its_surface(text):
    for t in tokenize(text):
        assert text[t.char_offset:t.char_end].lower() == t.surface


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
