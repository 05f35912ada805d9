"""Stage 4: gold-standard judging, factoid accuracy and the report.

The gold and report formats are the README's "File formats: Gold /
report" section. Accuracy is correct answers over the total number of
gold questions; gold questions the system never answered count as
wrong. The answers judged are `answers.AnswerRecord`s.
"""

import re
from typing import NamedTuple

from .answers import AnswerRecord
from .errors import QAError
from .serde import atomic_write_text, read_text

NIL = "NIL"


class BadPattern(QAError):
    def __init__(self, qid, pattern, reason):
        super().__init__(f"bad pattern for {qid}: {pattern!r} ({reason})")
        self.qid = qid
        self.pattern = pattern


class EmptyGold(QAError):
    pass


class EmptyTestSet(QAError):
    pass


class JudgedAnswer(NamedTuple):
    qid: str
    given: str          # answer string, NIL, or "-" for never answered
    correct: bool
    matched_pattern: str | None = None


class EvaluationReport(NamedTuple):
    """The judged gold questions, their counts and the answers no gold
    question asked for."""

    total_questions: int
    correct_count: int
    per_question: list[JudgedAnswer]
    unanswered_qids: list[str]
    ignored_answers: int

    @property
    def accuracy(self) -> float:
        return self.correct_count / self.total_questions


def load_gold(path) -> dict[str, list[str]]:
    """qid -> its patterns, compile-checked eagerly, file order kept."""
    gold: dict[str, list[str]] = {}
    for line_no, line in enumerate(read_text(path, QAError).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        qid, _, pattern = line.partition(" ")
        qid, pattern = qid.strip(), pattern.strip()
        if not qid or not pattern:
            raise BadPattern(qid or f"line {line_no}", pattern, "missing qid or pattern")
        try:
            re.compile(pattern, re.IGNORECASE)
        except (re.error, OverflowError, RecursionError) as exc:
            raise BadPattern(qid, pattern, str(exc)) from exc
        gold.setdefault(qid, []).append(pattern)
    if not gold:
        raise EmptyGold("gold file contains no patterns")
    return gold


def judge(answer: AnswerRecord, patterns: list[str]) -> JudgedAnswer:
    """Unanchored, case-insensitive match of its qid's patterns over the answer."""
    if answer.answer is None:
        # NIL is wrong unless the gold standard literally expects NIL.
        for pattern in patterns:
            if pattern == NIL:
                return JudgedAnswer(answer.qid, NIL, True, pattern)
        return JudgedAnswer(answer.qid, NIL, False)
    for pattern in patterns:
        if re.search(pattern, answer.answer, re.IGNORECASE):
            return JudgedAnswer(answer.qid, answer.answer, True, pattern)
    return JudgedAnswer(answer.qid, answer.answer, False)


def evaluate_answers(
    answers: list[AnswerRecord], gold: dict[str, list[str]]
) -> EvaluationReport:
    """Judge every gold question, in gold-file order."""
    if not gold:
        raise EmptyTestSet("no gold questions to score against")
    by_qid = {a.qid: a for a in answers}
    per_question: list[JudgedAnswer] = []
    unanswered: list[str] = []
    for qid, patterns in gold.items():
        record = by_qid.get(qid)
        if record is None:
            unanswered.append(qid)
            per_question.append(JudgedAnswer(qid, "-", False))
        else:
            per_question.append(judge(record, patterns))
    correct = sum(1 for j in per_question if j.correct)
    ignored = sum(1 for a in answers if a.qid not in gold)
    return EvaluationReport(len(gold), correct, per_question, unanswered, ignored)


# The tab that separates a report line's fields and every character that
# str.splitlines breaks a line at: each is read as a space in a qid, an
# answer or a pattern, so each judged question stays one line of its report.
_ONE_LINE = str.maketrans(dict.fromkeys("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", " "))


def format_report(report: EvaluationReport) -> str:
    """Deterministic human-readable report text, one line per judged question."""
    lines = [
        f"accuracy = {report.accuracy:.3f} "
        f"({report.correct_count}/{report.total_questions})",
        f"total = {report.total_questions}",
        f"correct = {report.correct_count}",
        f"unanswered = {len(report.unanswered_qids)}",
        f"ignored = {report.ignored_answers}",
        "",
    ]
    for j in report.per_question:
        verdict = "CORRECT" if j.correct else "WRONG"
        line = f"{j.qid.translate(_ONE_LINE)}\t{verdict}\t{j.given.translate(_ONE_LINE)}"
        if j.matched_pattern is not None:
            line += f"\t[{j.matched_pattern.translate(_ONE_LINE)}]"
        lines.append(line)
    return "".join(line + "\n" for line in lines)


def write_report(report: EvaluationReport, path) -> None:
    atomic_write_text(path, format_report(report))
