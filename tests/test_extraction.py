import pytest

from qapipe.answers import AnswerRecord, load_answers, write_answers
from qapipe.config import AnswerSettings
from qapipe.corpus import Document
from qapipe.extraction import answer_question, extract_candidates, rank_candidates
from qapipe.index import build_index
from qapipe.questions import QuestionAnalysis
from qapipe.retrieval import Passage, segment_passages
from qapipe.taxonomy import AnswerType

from qapipe.serde import VersionMismatch

from conftest import framed, with_version


def passage_of(text, doc_id="d1", score=0.0):
    return Passage(doc_id, (0, len(text)), text, score)


def index_of(*passages):
    """An index of one document per passage, holding the passage's text, so
    its words have document frequencies."""
    return build_index(Document(p.doc_id, p.text, ()) for p in passages)


def analysis_for(terms, answer_type, qid="q1"):
    return QuestionAnalysis(qid, "", list(terms), answer_type, "rule")


def texts(candidates):
    return [c.text for c in candidates]


def test_sentence_initial_stopword_and_the_connector_after_it_are_dropped():
    p = passage_of("The de Vries family built it.")
    cands = extract_candidates(p, AnswerType("HUM", "ind"), [], index_of(p))
    assert [(c.text, c.char_offset) for c in cands] == [("Vries", 7)]


def test_date_pattern_day_month_year():
    p = passage_of("The accord was signed on 12 January 2004 in Rome.")
    cands = extract_candidates(p, AnswerType("NUM", "date"), [], index_of(p))
    assert texts(cands) == ["12 January 2004"]


def test_date_pattern_variants():
    p = passage_of("Records list January 12, 2004 and also March 1999 and plain 1873.")
    cands = extract_candidates(p, AnswerType("NUM", "date"), [], index_of(p))
    assert texts(cands) == ["January 12, 2004", "March 1999", "1873"]


def test_date_bare_year_range():
    p = passage_of("Figures 0042 and 3120 are codes but 1066 is a year.")
    cands = extract_candidates(p, AnswerType("NUM", "date"), [], index_of(p))
    assert texts(cands) == ["1066"]


def test_count_pattern_with_separators():
    p = passage_of("The convoy carried 1,500 barrels and 42 crates.")
    cands = extract_candidates(p, AnswerType("NUM", "count"), [], index_of(p))
    assert texts(cands) == ["1,500", "42"]


def test_money_pattern():
    p = passage_of("It sold for $4.5 million while repairs cost 300 dollars.")
    cands = extract_candidates(p, AnswerType("NUM", "money"), [], index_of(p))
    assert texts(cands) == ["$4.5 million", "300 dollars"]


def test_percent_pattern():
    p = passage_of("Support rose to 62 percent, then 17.5% later.")
    cands = extract_candidates(p, AnswerType("NUM", "perc"), [], index_of(p))
    assert texts(cands) == ["62 percent", "17.5%"]


def test_capitalized_runs_for_person():
    p = passage_of("Gordon Moore and Robert Noyce founded Intel.")
    cands = extract_candidates(p, AnswerType("HUM", "ind"), [], index_of(p))
    assert "Gordon Moore" in texts(cands)
    assert "Robert Noyce" in texts(cands)


def test_query_echo_excluded():
    p = passage_of("Gordon Moore and Robert Noyce founded Intel.")
    cands = extract_candidates(p, AnswerType("HUM", "ind"), ["founded", "intel"], index_of(p))
    assert "Intel" not in texts(cands)
    assert "Gordon Moore" in texts(cands)


def test_lone_sentence_initial_word_excluded():
    p = passage_of("Towers rose in the east. Beside them stood Ravenna Keep.")
    cands = extract_candidates(p, AnswerType("LOC", "other"), [], index_of(p))
    assert "Towers" not in texts(cands)
    assert "Beside" not in texts(cands)
    assert "Ravenna Keep" in texts(cands)


def test_sentence_initial_stopword_stripped():
    p = passage_of("The Eiffel Tower stands in Paris.")
    cands = extract_candidates(p, AnswerType("LOC", "other"), [], index_of(p))
    assert "Eiffel Tower" in texts(cands)
    assert all(not c.text.startswith("The ") for c in cands)


def test_connectors_allowed_inside_runs():
    p = passage_of("She praised the Bank of England and Vincent van Gogh yesterday.")
    cands = extract_candidates(p, AnswerType("ENTY", "other"), [], index_of(p))
    assert "Bank of England" in texts(cands)
    assert "Vincent van Gogh" in texts(cands)


def test_abbreviation_extraction():
    p = passage_of("The T.L.A. and NASA signed the memo.")
    cands = extract_candidates(p, AnswerType("ABBR", "abb"), [], index_of(p))
    assert "NASA" in texts(cands)
    assert "T.L.A." in texts(cands)


def test_description_picks_best_sentence():
    docs = {"d1": "Glass blowing is an old craft. A glacier is a slow river of ice. Pigeons fly home."}
    idx = build_index([Document("d1", docs["d1"], ())])
    p = segment_passages(idx.document("d1"))[0]
    cands = extract_candidates(p, AnswerType("DESC", "def"), ["glacier"], index=idx)
    assert texts(cands) == ["A glacier is a slow river of ice."]


def test_extraction_soundness_offsets_slice_back():
    doc_text = (
        "The silver foundry was founded by Elena Castwright on 4 March 1902. "
        "It produced 120 castings and $3,000 of alloy, roughly 15 percent of supply. "
        "The N.R.C. praised the Monte Arduro site."
    )
    doc = Document("d9", doc_text, ())
    idx = build_index([doc])
    types = [
        AnswerType("NUM", "date"),
        AnswerType("NUM", "count"),
        AnswerType("NUM", "money"),
        AnswerType("NUM", "perc"),
        AnswerType("HUM", "ind"),
        AnswerType("LOC", "other"),
        AnswerType("ENTY", "other"),
        AnswerType("ABBR", "abb"),
        AnswerType("DESC", "def"),
    ]
    for passage in segment_passages(doc):
        for at in types:
            for cand in extract_candidates(passage, at, ["foundry"], index=idx):
                start = cand.char_offset
                assert doc_text[start : start + len(cand.text)] == cand.text


def test_rank_single_candidate():
    p = passage_of("The fort held 17 cannons.", score=3.0)
    idx = index_of(p)
    cands = extract_candidates(p, AnswerType("NUM", "count"), ["cannons"], idx)
    ranked = rank_candidates(cands, analysis_for(["cannons"], AnswerType("NUM", "count")), [p])
    assert len(ranked) == 1
    assert ranked[0].redundancy_count == 1
    assert ranked[0].final_score > 3.0


def test_rank_hand_computed_proximity_order():
    text = "The fort held 17 cannons. The barn held 9 goats. A mill stood far away near 4 streams."
    p = passage_of(text, score=2.0)
    analysis = analysis_for(["cannons"], AnswerType("NUM", "count"))
    idx = index_of(p)
    cands = extract_candidates(p, AnswerType("NUM", "count"), ["cannons"], idx)
    ranked = rank_candidates(cands, analysis, [p])
    assert texts(ranked) == ["17", "9", "4"]
    # tokens: the fort held 17 cannons the barn held 9 ... near 4 streams
    # "17" is 1 token from "cannons", "9" is 4 tokens, "4" is 12 tokens.
    assert ranked[0].final_score == pytest.approx(2.0 + 1.0 / 2.0)
    assert ranked[1].final_score == pytest.approx(2.0 + 1.0 / 5.0)
    assert ranked[2].final_score == pytest.approx(2.0 + 1.0 / 13.0)


def test_rank_proximity_uses_source_end_of_token():
    # "İstanbul" is 8 source characters but lowers to 9, so a span taken
    # from the surface length would reach the "$" and swallow the city.
    p = passage_of("İstanbul$5 million", score=1.0)
    city = "İstanbul".lower()
    analysis = analysis_for([city], AnswerType("NUM", "money"))
    idx = index_of(p)
    cands = extract_candidates(p, AnswerType("NUM", "money"), [city], idx)
    assert texts(cands) == ["$5 million"]
    ranked = rank_candidates(cands, analysis, [p])
    assert ranked[0].proximity_score == pytest.approx(1.0 / 2.0)


def test_rank_redundancy_merges_duplicates():
    p1 = passage_of("Maria Voss led the march.", doc_id="d1", score=1.0)
    p2 = Passage("d2", (0, 26), "Crowds cheered Maria Voss.", 1.0)
    analysis = analysis_for(["march"], AnswerType("HUM", "ind"))
    idx = index_of(p1, p2)
    cands = extract_candidates(p1, AnswerType("HUM", "ind"), [], idx, passage_index=0)
    cands += extract_candidates(p2, AnswerType("HUM", "ind"), [], idx, passage_index=1)
    assert texts(cands).count("Maria Voss") == 2
    ranked = rank_candidates(cands, analysis, [p1, p2])
    assert texts(ranked).count("Maria Voss") == 1
    winner = next(c for c in ranked if c.text == "Maria Voss")
    assert winner.redundancy_count == 2
    assert winner.passage_index == 0  # earliest source survives the dedup


def test_rank_proximity_zero_when_term_absent():
    p = passage_of("Seventeen wagons rolled in 1885.", score=0.0)
    analysis = analysis_for(["harvest"], AnswerType("NUM", "date"))
    idx = index_of(p)
    cands = extract_candidates(p, AnswerType("NUM", "date"), [], idx)
    ranked = rank_candidates(cands, analysis, [p])
    assert ranked[0].proximity_score == 0.0


def planted_index():
    docs = [
        Document(
            "D1",
            "Farmers met often. The velvet foundry was founded by Elena Castwright "
            "in a harsh winter. Trade followed soon.",
            (),
        ),
        Document("D2", "Millers ground barley near the river all season long.", ()),
        Document("D3", "A foundry in the east made horseshoes and nails.", ()),
    ]
    return build_index(docs)


def test_answer_question_planted():
    idx = planted_index()
    analysis = analysis_for(["velvet", "foundry", "founded"], AnswerType("HUM", "ind"))
    record = answer_question(idx, analysis)
    assert record.answer == "Elena Castwright"
    assert record.supporting_doc == "D1"
    assert record.final_score > 0


def guild_hall_index():
    """Four copies of one twelve-paragraph document: 48 passages, 12 texts."""
    paragraphs = [f"Maria Voss led the amber guild in hall {i}. It stood by the mill."
                  for i in range(12)]
    text = "\n\n".join(paragraphs)
    starts = [text.index(p) for p in paragraphs]
    spans = tuple((a, a + len(p)) for a, p in zip(starts, paragraphs))
    docs = [Document(f"d{n}", text, spans) for n in range(4)]
    assert sum(len(segment_passages(d)) for d in docs) == 48
    return build_index(docs)


def test_answer_question_tokenizes_only_kept_passages(monkeypatch):
    """Structural guard: no positional tokens at all, and word offsets only
    for the passages kept."""
    import importlib

    from qapipe import retrieval
    idx = guild_hall_index()
    tokenized: list[str] = []
    for name in ("index", "retrieval", "extraction", "classifier", "questions"):
        module = importlib.import_module(f"qapipe.{name}")
        real = module.tokenize

        def counting(text, real=real):
            tokenized.append(text)
            return real(text)

        monkeypatch.setattr(module, "tokenize", counting)
    offsets_built: list[str] = []

    class CountingPattern:
        def finditer(self, text, real=retrieval.TOKEN_RE):
            offsets_built.append(text)
            return real.finditer(text)

    monkeypatch.setattr(retrieval, "TOKEN_RE", CountingPattern())
    settings = AnswerSettings(max_passages=5)
    analysis = analysis_for(["amber", "guild"], AnswerType("HUM", "ind"))
    record = answer_question(idx, analysis, settings)
    assert record.answer == "Maria Voss"
    assert tokenized == []
    assert 1 <= len(offsets_built) <= settings.max_passages


def test_second_question_reads_only_passages_it_has_not_seen(monkeypatch):
    """Structural guard: passage terms are read once per passage and index."""
    from qapipe import retrieval

    idx = guild_hall_index()
    read: list[str] = []
    real = retrieval.terms
    monkeypatch.setattr(retrieval, "terms", lambda text: read.append(text) or real(text))
    answer_question(idx, analysis_for(["amber", "guild"], AnswerType("HUM", "ind")))
    passages = [p.text for d in idx.doc_ids for p in segment_passages(idx.document(d))]
    assert len(read) == 48
    assert sorted(read) == sorted(passages)

    read.clear()
    # The same documents again; the DESC branch also scores each kept
    # passage's sentences, from slices of the passage's terms.
    record = answer_question(idx, analysis_for(["guild", "hall"], AnswerType("DESC", None)))
    assert record.answer is not None
    assert read == []


def test_answering_keeps_one_memo_of_each_document_passages_and_features(monkeypatch):
    """Structural guard: a second question over the same documents makes no
    passage features, each kept passage is handed on with the memo's own
    features object, and a hand-built passage leaves the memo empty."""
    from qapipe import extraction

    idx = guild_hall_index()
    answer_question(idx, analysis_for(["amber", "guild"], AnswerType("HUM", "ind")))
    made: list[str] = []
    real = extraction.PassageFeatures
    monkeypatch.setattr(extraction, "PassageFeatures", lambda text: made.append(text) or real(text))
    handed = []
    rank = extraction.rank_candidates

    def recording_rank(candidates, analysis, passages, features, settings):
        handed.append((passages, features))
        return rank(candidates, analysis, passages, features, settings)

    monkeypatch.setattr(extraction, "rank_candidates", recording_rank)
    record = answer_question(idx, analysis_for(["guild", "hall"], AnswerType("DESC", None)))
    assert record.answer is not None
    assert made == []
    kept, features = handed[0]
    assert len(kept) == len(features) > 0
    for passage, facts in zip(kept, features):
        doc_passages, doc_features = idx.doc_passages[passage.doc_id]
        spans = [p.char_span for p in doc_passages]
        assert facts is doc_features[spans.index(passage.char_span)]

    p = passage_of("Maria Voss led the amber guild. It stood by the mill.")
    fresh = index_of(p)
    for answer_type in (AnswerType("HUM", "ind"), AnswerType("DESC", None)):
        analysis = analysis_for(["guild"], answer_type)
        rank_candidates(extract_candidates(p, answer_type, ["guild"], fresh), analysis, [p])
    assert fresh.doc_passages == {}


def test_answer_question_empty_query_is_nil():
    idx = planted_index()
    record = answer_question(idx, analysis_for([], AnswerType("HUM", "ind")))
    assert record.answer is None
    assert record.supporting_doc is None


def test_answer_question_no_candidates_is_nil():
    idx = planted_index()
    analysis = analysis_for(["barley", "river"], AnswerType("NUM", "date"))
    record = answer_question(idx, analysis)
    assert record.answer is None and record.supporting_doc is None


def test_nil_iff_no_supporting_doc():
    idx = planted_index()
    for terms, at in [
        (["velvet", "foundry"], AnswerType("HUM", "ind")),
        (["barley"], AnswerType("NUM", "date")),
        ([], AnswerType("LOC", "other")),
    ]:
        record = answer_question(idx, analysis_for(terms, at))
        assert (record.answer is None) == (record.supporting_doc is None)


def test_answers_version_mismatch_names_qapipe_answer(tmp_path):
    path = tmp_path / "answers.txt"
    write_answers([AnswerRecord("q1", "Elena Castwright", "D1", 7.25)], path)
    with_version(path, 1)
    with pytest.raises(VersionMismatch) as exc:
        load_answers(path)
    assert str(exc.value) == (
        f"{path}: QANUSANS version '1', expected 2; run 'qapipe answer' to rewrite it"
    )


def test_answers_artifact_round_trip(tmp_path):
    records = [
        AnswerRecord("q1", "Elena Castwright", "D1", 7.25),
        AnswerRecord("q2", None, None, 0.0),
        AnswerRecord("q3", "odd\tanswer\nwith breaks", "D2", 1.5),
        AnswerRecord("q\t4", "x", "AP 1\tx\\n", 1.0),
    ]
    path = tmp_path / "answers.txt"
    write_answers(records, path)
    loaded = load_answers(path)
    assert [r.qid for r in loaded] == ["q1", "q2", "q3", "q\t4"]
    assert loaded[3].supporting_doc == "AP 1\tx\\n"
    assert loaded[0].answer == "Elena Castwright"
    assert loaded[1].answer is None and loaded[1].supporting_doc is None
    assert loaded[2].answer == "odd\tanswer\nwith breaks"
    assert loaded[0].final_score == pytest.approx(7.25)


def test_nil_text_and_a_dash_doc_id_survive_the_answers_file(tmp_path):
    """NIL and "no supporting doc" are absent fields, so no answer text or
    doc id can be mistaken for them."""
    records = [
        AnswerRecord("q1", "NIL", "-", 1.0),
        AnswerRecord("q2", "Rome", "-", 2.0),
        AnswerRecord("q3", None, None, 0.0),
        AnswerRecord("q4", "\\N", "\\N", 3.0),
    ]
    path = tmp_path / "answers.txt"
    write_answers(records, path)
    assert load_answers(path) == records


@pytest.mark.parametrize(
    "raw, message",
    [  # the header is line 1, so the first record is line 2
        (b"q1\tx\tD1\t1.0\nq2\tx\tD1\thigh\n", "malformed answer record at line 3"),
        (b"q1\tx\tD1\n", "malformed answer record at line 2"),
        (b"q1\tx\tD1\t1.0\nq2\t\xff\tD1\t1.0\n", "line 3 is not valid UTF-8"),
    ],
)
def test_load_answers_refuses_with_qaerror_naming_the_line(tmp_path, raw, message):
    from qapipe.errors import QAError

    path = tmp_path / "answers.txt"
    path.write_bytes(framed(b"QANUSANS 2\n" + raw))
    with pytest.raises(QAError, match=message):
        load_answers(path)


def test_gazetteer_boost_outranks_closer_candidate():
    p = passage_of("Kellan Drue spoke while Maria Voss listened quietly.", score=1.0)
    analysis = analysis_for(["spoke"], AnswerType("HUM", "ind"))
    idx = index_of(p)
    plain = rank_candidates(
        extract_candidates(p, AnswerType("HUM", "ind"), [], idx), analysis, [p]
    )
    assert texts(plain) == ["Kellan Drue", "Maria Voss"]  # proximity favors Kellan

    gaz = AnswerSettings(persons=frozenset({"maria voss"}))
    boosted = rank_candidates(
        extract_candidates(p, AnswerType("HUM", "ind"), [], idx, gaz), analysis, [p],
        settings=gaz,
    )
    assert texts(boosted) == ["Maria Voss", "Kellan Drue"]
    assert boosted[0].gazetteer_match
    assert boosted[0].final_score == pytest.approx(
        1.0 + boosted[0].proximity_score + 1.0  # passage + proximity + boost
    )


def test_gazetteer_ignored_for_other_types():
    p = passage_of("Kellan Drue praised Maria Voss.", score=1.0)
    gaz = AnswerSettings(persons=frozenset({"maria voss"}))
    cands = extract_candidates(p, AnswerType("ENTY", "other"), [], index_of(p), gaz)
    assert all(not c.gazetteer_match for c in cands)
