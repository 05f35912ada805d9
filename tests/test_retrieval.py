import math
import random
import re

import pytest

from qapipe.corpus import Document
from qapipe.index import build_index
from qapipe.retrieval import (
    retrieve_documents,
    score_passage,
    segment_passages,
    split_sentences,
)

from conftest import random_docs


def make_index(docs: dict[str, str]):
    return build_index(Document(d, t, ()) for d, t in docs.items())


def brute_force_bm25(docs: dict[str, str], query: list[str], k: int, k1=1.2, b=0.75):
    """Independent full-scan scorer working straight from raw text."""
    tokenized = {d: re.findall(r"[^\W_]+", t.lower()) for d, t in docs.items()}
    n = len(docs)
    lengths = {d: len(ts) for d, ts in tokenized.items()}
    avg = sum(lengths.values()) / n
    df = {t: sum(1 for ts in tokenized.values() if t in ts) for t in query}
    results = {}
    for d, ts in tokenized.items():
        score = 0.0
        matched = False
        for term in query:
            tf = ts.count(term)
            if tf == 0:
                continue
            matched = True
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * lengths[d] / avg))
        if matched:
            results[d] = score
    ranked = sorted(results.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def test_single_matching_doc_ranks_alone():
    idx = make_index({"d1": "alpha beta", "d2": "gamma delta", "d3": "epsilon zeta"})
    results = retrieve_documents(idx, ["gamma"], k=10)
    assert [r.doc_id for r in results] == ["d2"]
    assert results[0].retrieval_score > 0


def test_empty_query_returns_nothing():
    idx = make_index({"d1": "alpha"})
    assert retrieve_documents(idx, [], k=5) == []


def test_k_must_be_positive():
    idx = make_index({"d1": "alpha"})
    with pytest.raises(ValueError):
        retrieve_documents(idx, ["alpha"], k=0)


def test_tie_break_by_doc_id():
    idx = make_index({"zz": "same words here", "aa": "same words here"})
    results = retrieve_documents(idx, ["same"], k=5)
    assert [r.doc_id for r in results] == ["aa", "zz"]
    assert results[0].retrieval_score == results[1].retrieval_score


def test_bm25_matches_brute_force_oracle():
    docs = random_docs(200, seed=21)
    idx = make_index(docs)
    rng = random.Random(22)
    vocab = sorted({w for text in docs.values() for w in re.findall(r"[^\W_]+", text)})
    for _ in range(20):
        query = list(dict.fromkeys(rng.choice(vocab) for _ in range(rng.randint(1, 4))))
        mine = retrieve_documents(idx, query, k=10)
        oracle = brute_force_bm25(docs, query, k=10)
        assert [r.doc_id for r in mine] == [d for d, _ in oracle]
        for r, (_, score) in zip(mine, oracle):
            assert r.retrieval_score == pytest.approx(score, rel=1e-9)


def test_split_sentences_on_terminators():
    text = "First one. Second here! Third now? Fourth ends"
    spans = split_sentences(text)
    assert [text[a:b] for a, b in spans] == [
        "First one.", "Second here!", "Third now?", "Fourth ends",
    ]


def test_split_sentences_ignores_lowercase_continuation():
    text = "It cost 3.5 percent more. Then it fell."
    spans = split_sentences(text)
    assert [text[a:b] for a, b in spans] == ["It cost 3.5 percent more.", "Then it fell."]


def test_paragraph_passages():
    doc = Document("d1", "Para one text.\n\nPara two text.", ((0, 14), (16, 30)))
    passages = segment_passages(doc)
    assert [p.text for p in passages] == ["Para one text.", "Para two text."]
    for p in passages:
        a, b = p.char_span
        assert doc.text[a:b] == p.text


def test_paragraph_passages_come_in_text_order():
    """Spans given out of order come out by start; spans of equal start
    keep their given order."""
    doc = Document("d1", "amber mill barn", ((11, 15), (6, 10), (0, 10), (0, 5)))
    assert [p.char_span for p in segment_passages(doc)] == [(0, 10), (0, 5), (6, 10), (11, 15)]


def test_sentence_windows_stride_two():
    text = "One a. Two b. Three c. Four d. Five e."
    doc = Document("d1", text, ())
    passages = segment_passages(doc)
    assert len(passages) == 2
    assert passages[0].text == "One a. Two b. Three c."
    assert passages[1].text == "Three c. Four d. Five e."


def test_short_final_window_kept():
    text = "One a. Two b. Three c. Four d."
    doc = Document("d1", text, ())
    passages = segment_passages(doc)
    assert [p.text for p in passages] == ["One a. Two b. Three c.", "Three c. Four d."]


def test_single_sentence_document():
    doc = Document("d1", "Only one sentence here", ())
    passages = segment_passages(doc)
    assert len(passages) == 1
    assert passages[0].text == "Only one sentence here"


def test_empty_document_no_passages():
    assert segment_passages(Document("d1", "", ())) == []


def test_passage_spans_slice_back_on_fixture():
    docs = random_docs(10, seed=31)
    for doc_id, text in docs.items():
        doc = Document(doc_id, text, ())
        for p in segment_passages(doc):
            a, b = p.char_span
            assert text[a:b] == p.text


def test_score_passage_no_match_is_zero():
    idx = make_index({"d1": "alpha beta gamma"})
    passage = segment_passages(idx.document("d1"))[0]
    assert score_passage(passage, ["missing", "words"], idx, 2.0) == 0.0


def test_score_passage_all_terms_once():
    idx = make_index({"d1": "alpha beta gamma", "d2": "delta epsilon"})
    passage = segment_passages(idx.document("d1"))[0]
    n, df = idx.doc_count, idx.document_frequency("alpha")
    assert df == idx.document_frequency("beta") == 1
    expected = 2 * math.log(1.0 + (n - df + 0.5) / (df + 0.5)) + 2.0
    assert score_passage(passage, ["alpha", "beta"], idx, 2.0) == pytest.approx(expected)


def test_score_passage_empty_query():
    idx = make_index({"d1": "alpha"})
    passage = segment_passages(idx.document("d1"))[0]
    assert score_passage(passage, [], idx, 2.0) == 0.0


def test_score_passage_monotone_in_term_count():
    idx = make_index({"d1": "alpha beta alpha", "d2": "other words"})
    from qapipe.retrieval import Passage

    base = Passage("d1", (0, 10), "alpha beta")
    more = Passage("d1", (0, 16), "alpha beta alpha")
    q = ["alpha", "beta"]
    assert score_passage(more, q, idx, 2.0) >= score_passage(base, q, idx, 2.0)


def test_hand_recomputed_scores_frozen():
    """Five cases recomputed by hand from the formula."""
    idx = make_index(
        {
            "d1": "ship sailed north. ship returned south.",
            "d2": "harbor town market",
            "d3": "north market ship",
        }
    )
    n = 3
    idf = lambda df: math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    passage = segment_passages(idx.document("d1"))[0]  # both sentences
    cases = [
        (["ship"], idf(2) * (1 + math.log(2)) + 2.0 * 1.0),
        (["north"], idf(2) * 1.0 + 2.0 * 1.0),
        (["ship", "north"], idf(2) * (1 + math.log(2)) + idf(2) + 2.0),
        (["ship", "harbor"], idf(2) * (1 + math.log(2)) + 2.0 * 0.5),
        (["market"], 0.0),
    ]
    for query, expected in cases:
        assert score_passage(passage, query, idx, 2.0) == pytest.approx(expected, rel=1e-12)


def test_monotonicity_adding_matched_term_never_lowers_score():
    from qapipe.retrieval import Passage

    docs = random_docs(25, seed=41)
    idx = make_index(docs)
    rng = random.Random(42)
    vocab = sorted({w for t in docs.values() for w in re.findall(r"[^\W_]+", t)})
    for _ in range(50):
        base_text = " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 12)))
        query = list(dict.fromkeys(rng.choice(vocab) for _ in range(rng.randint(1, 3))))
        matched = [t for t in query if t in base_text.split()]
        term = matched[0] if matched else query[0]
        grown_text = base_text + " " + term
        base = Passage("d", (0, len(base_text)), base_text)
        grown = Passage("d", (0, len(grown_text)), grown_text)
        assert score_passage(grown, query, idx, 2.0) >= score_passage(base, query, idx, 2.0)
