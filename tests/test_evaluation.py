from fractions import Fraction

import pytest

from qapipe.answers import AnswerRecord
from qapipe.evaluation import (
    BadPattern,
    EmptyGold,
    EmptyTestSet,
    evaluate_answers,
    format_report,
    judge,
    load_gold,
    write_report,
)


def record(qid, answer, doc="D1", score=1.0):
    return AnswerRecord(qid, answer, doc if answer is not None else None, score)


def test_load_gold_groups_patterns(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text("q1 rome\nq1 roma\nq2 paris\n", encoding="utf-8")
    gold = load_gold(path)
    assert gold == {"q1": ["rome", "roma"], "q2": ["paris"]}
    assert list(gold) == ["q1", "q2"]


def test_load_gold_bad_pattern(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text("q1 (\n", encoding="utf-8")
    with pytest.raises(BadPattern):
        load_gold(path)


def test_load_gold_empty(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmptyGold):
        load_gold(path)


def test_judge_unanchored_case_insensitive():
    j = judge(record("q1", "12 January 2004"), [r"january\s+2004"])
    assert j.correct and j.matched_pattern == r"january\s+2004"


def test_judge_nil_is_wrong():
    j = judge(record("q1", None), ["rome"])
    assert not j.correct and j.given == "NIL"


def test_judge_nil_matches_literal_nil_pattern():
    j = judge(record("q1", None), ["NIL"])
    assert j.correct


def test_judge_anchored_pattern_fails_on_longer_string():
    j = judge(record("q1", "Gordon Moore and others"), ["^Gordon Moore$"])
    assert not j.correct


def test_judge_correctness_independent_of_pattern_order():
    r = record("q1", "the amber citadel")
    a = judge(r, ["amber", "nothing"])
    b = judge(r, ["nothing", "amber"])
    assert a.correct == b.correct == True  # noqa: E712


def test_accuracy_exact():
    answers = [record(f"q{i}", "hit" if i < 3 else "miss") for i in range(10)]
    gold = {f"q{i}": ["hit"] for i in range(10)}
    assert evaluate_answers(answers, gold).accuracy == pytest.approx(0.3)


def test_accuracy_empty_test_set():
    with pytest.raises(EmptyTestSet):
        evaluate_answers([], {})


def test_load_gold_refuses_undecodable_bytes_and_oversized_repeats(tmp_path):
    from qapipe.errors import QAError

    path = tmp_path / "gold.txt"
    path.write_bytes(b"q1 rome\nq2 par\xe9s\n")
    with pytest.raises(QAError, match="line 2 is not valid UTF-8"):
        load_gold(path)
    path.write_text("q1 a{1,99999999999}\n", encoding="utf-8")
    with pytest.raises(BadPattern):
        load_gold(path)


def make_gold(n, pattern="hit"):
    return {f"q{i}": [pattern] for i in range(n)}


def test_evaluate_three_of_ten():
    gold = make_gold(10)
    answers = [record(f"q{i}", "hit" if i < 3 else "miss") for i in range(10)]
    report = evaluate_answers(answers, gold)
    assert report.total_questions == 10
    assert report.correct_count == 3
    assert Fraction(report.correct_count, report.total_questions) == Fraction(3, 10)
    assert report.accuracy == pytest.approx(0.3)


def test_evaluate_counts_unanswered_as_wrong():
    gold = make_gold(4)
    answers = [record("q0", "hit"), record("q1", "hit")]
    report = evaluate_answers(answers, gold)
    assert report.total_questions == 4
    assert report.correct_count == 2
    assert report.unanswered_qids == ["q2", "q3"]
    wrong = [j for j in report.per_question if not j.correct]
    assert [j.given for j in wrong] == ["-", "-"]


def test_evaluate_ignores_non_gold_answers():
    gold = make_gold(2)
    answers = [record("q0", "hit"), record("q1", "hit"), record("q9", "hit")]
    report = evaluate_answers(answers, gold)
    assert report.total_questions == 2
    assert report.ignored_answers == 1


def test_report_first_line_has_three_decimal_accuracy():
    gold = make_gold(10)
    answers = [record(f"q{i}", "hit" if i < 3 else "miss") for i in range(10)]
    text = format_report(evaluate_answers(answers, gold))
    assert "accuracy = 0.300" in text.splitlines()[0]


def test_report_zero_correct():
    gold = make_gold(5)
    text = format_report(evaluate_answers([], gold))
    assert "accuracy = 0.000" in text.splitlines()[0]
    assert text.count("WRONG") == 5


def test_report_per_question_lines():
    gold = {"q1": ["rome"], "q2": ["paris"]}
    answers = [record("q1", "went to Rome"), record("q2", None)]
    lines = format_report(evaluate_answers(answers, gold)).splitlines()
    assert "q1\tCORRECT\twent to Rome\t[rome]" in lines
    assert "q2\tWRONG\tNIL" in lines


def test_report_bytes_deterministic(tmp_path):
    gold = make_gold(6)
    answers = [record(f"q{i}", "hit" if i % 2 else "no") for i in range(6)]
    report = evaluate_answers(answers, gold)
    p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    write_report(report, p1)
    write_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


# Every character str.splitlines breaks a line at, \r\n, and the field tab.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029", "\t"]


@pytest.mark.parametrize("sep", LINE_BREAKS, ids=lambda s: "+".join(f"U{ord(c):04X}" for c in s))
def test_report_keeps_each_judged_question_on_one_line(sep):
    """A capitalized-run answer may cross any whitespace, line breaks included;
    the report reads each break in an answer, a pattern or a qid as a space."""
    gold = {"q1": [f"anna{sep}berg"], f"q{sep}2": ["rome"]}
    answers = [record("q1", f"Anna{sep}Berg"), record(f"q{sep}2", f"went{sep}home")]
    lines = format_report(evaluate_answers(answers, gold)).splitlines()
    spaces = " " * len(sep)
    assert len(lines) == 8
    assert lines[-2:] == [
        f"q1\tCORRECT\tAnna{spaces}Berg\t[anna{spaces}berg]",
        f"q{spaces}2\tWRONG\twent{spaces}home",
    ]


def test_report_of_a_run_across_a_carriage_return_is_one_line(tmp_path):
    """The capitalized run of a one-document index crosses its "\\r"."""
    from qapipe.corpus import Document
    from qapipe.extraction import answer_question
    from qapipe.index import build_index
    from qapipe.questions import QuestionAnalysis
    from qapipe.taxonomy import AnswerType

    index = build_index([Document("d1", "It was built by Anna\rBerg in spring.", ())])
    analysis = QuestionAnalysis("q1", "Who built it?", ["built"], AnswerType("HUM", "ind"), "rule")
    answer = answer_question(index, analysis)
    assert answer.answer == "Anna\rBerg"
    lines = format_report(evaluate_answers([answer], {"q1": ["anna"]})).splitlines()
    assert len(lines) == 7 and lines[-1] == "q1\tCORRECT\tAnna Berg\t[anna]"
