import pytest

from qapipe.classifier import TrainingExample, train_classifier
from qapipe.corpus import MalformedRecord
from qapipe.errors import QAError
from qapipe.questions import (
    MAGIC,
    VERSION,
    DuplicateQid,
    Question,
    analyze,
    load_analyses,
    parse_questions,
    rule_fallback,
    write_analyses,
)
from qapipe.serde import VersionMismatch, read_records

from conftest import framed, with_version


def test_qline_three_questions(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("q1\tWho did it?\nq2\tWhere was it?\nq3\tWhen was it?\n", encoding="utf-8")
    qs = parse_questions(path, "qline")
    assert [q.qid for q in qs] == ["q1", "q2", "q3"]
    assert all(q.target is None for q in qs)


def test_qline_duplicate_qid_fatal(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("q1\tfirst?\nq1\tsecond?\n", encoding="utf-8")
    with pytest.raises(DuplicateQid):
        parse_questions(path, "qline")


def test_qline_malformed_skip_and_report(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("q1\tfine?\nno tab here\nq2\talso fine?\n", encoding="utf-8")
    rejects: list[MalformedRecord] = []
    qs = parse_questions(path, "qline", rejects)
    assert [q.qid for q in qs] == ["q1", "q2"]
    assert len(rejects) == 1 and rejects[0].location == "line 2"


def test_qline_splits_records_on_newline_only(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("q1\tWho built\fthe amber mill?\n", encoding="utf-8")
    rejects: list[MalformedRecord] = []
    qs = parse_questions(path, "qline", rejects)
    assert [(q.qid, q.text) for q in qs] == [("q1", "Who built\fthe amber mill?")]
    assert rejects == []


def test_trec_xml_target_carried(tmp_path):
    path = tmp_path / "q.xml"
    path.write_text(
        '<target text="Mozart">\n'
        '<q id="216.1">When was he born?</q>\n'
        '<q id="216.2">Where did he die?</q>\n'
        "</target>\n",
        encoding="utf-8",
    )
    qs = parse_questions(path, "trec-xml")
    assert [q.qid for q in qs] == ["216.1", "216.2"]
    assert all(q.target == "Mozart" for q in qs)


def test_trec_xml_missing_id_rejected(tmp_path):
    path = tmp_path / "q.xml"
    path.write_text(
        '<target text="X"><q id="">Empty id?</q><q id="1.1">Good?</q></target>',
        encoding="utf-8",
    )
    rejects: list[MalformedRecord] = []
    qs = parse_questions(path, "trec-xml", rejects)
    assert [q.qid for q in qs] == ["1.1"]
    assert len(rejects) == 1


def test_trec_xml_empty_text_rejected(tmp_path):
    path = tmp_path / "q.xml"
    path.write_text(
        '<target text="X"><q id="q1">Good?</q><q id="q2">   </q></target>', encoding="utf-8"
    )
    rejects: list[MalformedRecord] = []
    qs = parse_questions(path, "trec-xml", rejects)
    assert [q.qid for q in qs] == ["q1"]
    assert rejects == [MalformedRecord("target 1 question 2", "empty question text")]


def test_analyses_version_mismatch_names_process_questions(tmp_path, tiny_model):
    path = tmp_path / "analysis.txt"
    write_analyses([analyze(Question("q1", "Who built the mill?"), tiny_model)], path)
    with_version(path, 1)
    with pytest.raises(VersionMismatch) as exc:
        load_analyses(path)
    assert str(exc.value) == (
        f"{path}: QANUSQAN version '1', expected 2; "
        "run 'qapipe process-questions' to rewrite it"
    )


@pytest.mark.parametrize(
    "text,expected",
    [
        ("When was the treaty signed?", "NUM:date"),
        ("How many ships sank?", "NUM:count"),
        ("How much did it cost?", "NUM:count"),
        ("Who led the revolt?", "HUM:ind"),
        ("Where is the citadel?", "LOC:other"),
        ("In what year did it end?", "NUM:date"),
        ("Which year saw the flood?", "NUM:date"),
    ],
)
def test_rule_fallback_table(text, expected):
    assert rule_fallback(text).label == expected


def test_rule_fallback_none_for_other_questions():
    assert rule_fallback("Name the ships.") is None
    assert rule_fallback("What is a glacier?") is None


@pytest.fixture
def tiny_model():
    return train_classifier(
        [
            TrainingExample("LOC:other", "where is the deep harbor located"),
            TrainingExample("NUM:date", "when was the wall built"),
            TrainingExample("HUM:ind", "who carved the statue"),
        ]
    )


def test_analyze_query_terms(tiny_model):
    analysis = analyze(Question("q1", "What is the capital of France?"), tiny_model)
    assert analysis.query_terms == ["capital", "france"]
    analysis = analyze(Question("q1", "what is the capital of france"), tiny_model)
    assert analysis.query_terms == ["capital", "france"]


def test_analyze_appends_target_terms(tiny_model):
    analysis = analyze(
        Question("q2", "When was he born?", target="Mozart"), tiny_model
    )
    assert analysis.query_terms == ["born", "mozart"]
    assert analysis.answer_type.label == "NUM:date"


def test_analyze_rule_overrides_low_confidence(tiny_model):
    # Three single-example classes leave the model unsure on novel words,
    # so the wh-rule must take over.
    analysis = analyze(Question("q3", "Who discovered penicillin?"), tiny_model)
    assert analysis.answer_type.label == "HUM:ind"
    assert analysis.classifier_source in ("rule", "model")
    if analysis.classifier_source == "rule":
        assert analysis.answer_type.confidence == 1.0


def test_analyze_without_model_uses_rule_then_default():
    ruled = analyze(Question("q4", "Where is the bridge?"), None)
    assert ruled.classifier_source == "rule"
    assert ruled.answer_type.label == "LOC:other"
    default = analyze(Question("q5", "Name the ships involved."), None)
    assert default.classifier_source == "default"
    assert default.answer_type.coarse == "DESC"


def test_analyze_all_stopwords_without_target(tiny_model):
    analysis = analyze(Question("q6", "What is it?"), tiny_model)
    assert analysis.query_terms == []


def test_analyze_all_stopwords_with_target(tiny_model):
    analysis = analyze(Question("q7", "What is it?", target="Vesuvius"), tiny_model)
    assert analysis.query_terms == ["vesuvius"]


def test_analyze_dedup_preserves_order(tiny_model):
    analysis = analyze(
        Question("q8", "Treaty after treaty, the treaty held?"), tiny_model
    )
    assert analysis.query_terms == ["treaty", "held"]


def test_analyze_idempotent(tiny_model):
    q = Question("q9", "Where was the amber foundry located?")
    a1 = analyze(q, tiny_model)
    a2 = analyze(q, tiny_model)
    assert a1.query_terms == a2.query_terms
    assert a1.answer_type == a2.answer_type


def test_analysis_artifact_round_trip(tmp_path, tiny_model):
    questions = [
        Question("q1", "Who carved the statue?"),
        Question("q2", "What is it?"),
        Question("q\t3", "Who carved the statue?"),
    ]
    analyses = [analyze(q, tiny_model) for q in questions]
    path = tmp_path / "analysis.txt"
    write_analyses(analyses, path)
    loaded = load_analyses(path)
    assert [a.qid for a in loaded] == ["q1", "q2", "q\t3"]
    assert loaded[0].query_terms == analyses[0].query_terms
    assert loaded[0].answer_type.label == analyses[0].answer_type.label
    assert loaded[1].query_terms == []


@pytest.mark.parametrize(
    "raw, message",
    [  # the header is line 1, so the first record is line 2; a blank record is malformed
        (b"q1\tstatue\tHUM\tind\tsure\tmodel\tWho?\n", "malformed analysis record at line 2"),
        (b"\nq1\tstatue\tHUM\tplanet\t0.5\tmodel\tWho?\n",
         "malformed analysis record at line 2: not enough"),
        (b"q1\tstatue\tHUM\tplanet\t0.5\tmodel\tWho?\n", "at line 2: unknown fine class"),
        (b"q1\tstatue\tHUM\tind\t0.5\tmodel\n", "malformed analysis record at line 2"),
        (b"q1\tstatue\tHUM\tind\t0.5\tmodel\tWho?\n\xc3(\n", "line 3 is not valid UTF-8"),
    ],
)
def test_load_analyses_refuses_with_qaerror_naming_the_line(tmp_path, raw, message):
    from qapipe.errors import QAError

    path = tmp_path / "analysis.txt"
    path.write_bytes(framed(b"QANUSQAN 2\n" + raw))
    with pytest.raises(QAError, match=message):
        load_analyses(path)


PLANTED_GOLDEN_ANALYSES = """\
q01\tcrimson frigate completed\tNUM\tdate\t0.9822673371671955\tmodel\tWhen was the crimson frigate completed?
q02\tamber treaty completed\tNUM\tdate\t0.9822673371671955\tmodel\tWhen was the amber treaty completed?
q03\tobsidian observatory completed\tNUM\tdate\t0.9822673371671955\tmodel\tWhen was the obsidian observatory completed?
q04\tcobalt aqueduct completed\tNUM\tdate\t0.9822673371671955\tmodel\tWhen was the cobalt aqueduct completed?
q05\temerald foundry completed\tNUM\tdate\t0.9822673371671955\tmodel\tWhen was the emerald foundry completed?
q06\tmany cannons scarlet citadel carry\tNUM\tcount\t0.9916083197427427\tmodel\tHow many cannons did the scarlet citadel carry?
q07\tmany cannons violet archive carry\tNUM\tcount\t0.9916083197427427\tmodel\tHow many cannons did the violet archive carry?
q08\tmany cannons bronze monastery carry\tNUM\tcount\t0.9916083197427427\tmodel\tHow many cannons did the bronze monastery carry?
q09\tmany cannons copper viaduct carry\tNUM\tcount\t0.9916083197427427\tmodel\tHow many cannons did the copper viaduct carry?
q10\tmany cannons jade granary carry\tNUM\tcount\t0.9916083197427427\tmodel\tHow many cannons did the jade granary carry?
q11\tfounded onyx lighthouse\tHUM\tind\t0.9855845644769029\tmodel\tWho founded the onyx lighthouse?
q12\tfounded pearl armory\tHUM\tind\t0.9855845644769029\tmodel\tWho founded the pearl armory?
q13\tfounded sable chapel\tHUM\tind\t0.9855845644769029\tmodel\tWho founded the sable chapel?
q14\tfounded teal garrison\tHUM\tind\t0.9855845644769029\tmodel\tWho founded the teal garrison?
q15\tfounded umber windmill\tHUM\tind\t0.9855845644769029\tmodel\tWho founded the umber windmill?
q16\tochre bastion located\tLOC\tother\t0.9224817882071478\tmodel\tWhere is the ochre bastion located?
q17\tindigo atelier located\tLOC\tother\t0.9224817882071478\tmodel\tWhere is the indigo atelier located?
q18\tmaroon cannery located\tLOC\tother\t0.9224817882071478\tmodel\tWhere is the maroon cannery located?
q19\tsepia seminary located\tLOC\tother\t0.9224817882071478\tmodel\tWhere is the sepia seminary located?
q20\tviridian arsenal located\tLOC\tother\t0.9224817882071478\tmodel\tWhere is the viridian arsenal located?
"""


def test_planted_fixture_analyses_match_frozen_golden(tmp_path):
    """Generated once, reviewed by hand, frozen; guards analysis drift."""
    from qapipe.classifier import parse_training_file, train_classifier
    from qapipe.synth import write_fixture

    paths = write_fixture(tmp_path)
    examples, _ = parse_training_file(paths["train"])
    model = train_classifier(examples)
    qs = parse_questions(paths["questions"], "qline")
    out = tmp_path / "analysis.txt"
    write_analyses([analyze(q, model) for q in qs], out)
    records = read_records(out, MAGIC, VERSION, QAError, "qapipe process-questions")
    assert "".join(line + "\n" for line in records) == PLANTED_GOLDEN_ANALYSES


def test_classifier_tie_breaks_lexicographically():
    from qapipe.classifier import TrainingExample, classify_question, train_classifier

    model = train_classifier(
        [
            TrainingExample("LOC:city", "alpha beta"),
            TrainingExample("HUM:ind", "alpha beta"),
        ]
    )
    # Mirrored classes give equal posteriors on any input; the tie must
    # fall to the lexicographically smaller label.
    assert classify_question(model, "alpha beta").label == "HUM:ind"
    assert classify_question(model, "unrelated words").label == "HUM:ind"
