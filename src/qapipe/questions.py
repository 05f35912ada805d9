"""Stage 2: question files, per-question analysis, and the analyses file.

The question file formats and the analyses file format are the README's
"File formats" sections; qline files are scanned by
`corpus.tab_separated`. Analysis turns a question into the retrieval
stage's input: query terms (stopwords dropped, order-preserving dedup,
target terms appended) and an expected answer type from the trained
classifier, with a small rule table overriding low-confidence model
output.
"""

import re
from typing import NamedTuple

from .classifier import ClassifierModel, classify_question
from .corpus import QUESTION_FORMATS, MalformedRecord, tab_separated
from .errors import QAError
from .serde import escape_field, read_records, read_text, unescape_field, write_records
from .stopwords import STOPWORDS
from .taxonomy import AnswerType, InvalidAnswerType
from .text import terms, tokenize  # tokenize unused: qabench/trace_shim.py wraps this name

MAGIC = "QANUSQAN"  # the analyses file, framed by serde's write_records
VERSION = 2


class Question(NamedTuple):
    qid: str
    text: str
    target: str | None = None


class DuplicateQid(QAError):
    pass


class UnknownQuestionFormat(QAError):
    pass


class QuestionAnalysis(NamedTuple):
    """The stage-2 record of one question."""

    qid: str
    text: str
    query_terms: list[str]
    answer_type: AnswerType
    classifier_source: str  # "model" | "rule" | "default"


_TARGET_RE = re.compile(r'<target\s+text="([^"]*)"\s*>(.*?)</target>', re.DOTALL)
_Q_RE = re.compile(r'<q\s+id="([^"]*)"\s*>(.*?)</q>', re.DOTALL)


def parse_questions(
    path, fmt: str, rejects: list[MalformedRecord] | None = None
) -> list[Question]:
    """Parse the question file; duplicate qids are fatal."""
    if fmt not in QUESTION_FORMATS:
        raise UnknownQuestionFormat(f"unknown question format: {fmt!r}")
    raw = read_text(path, QAError)
    sink = rejects if rejects is not None else []
    questions = (
        _parse_trec_xml(raw, sink) if fmt == "trec-xml" else _parse_qline(raw, sink)
    )
    seen: set[str] = set()
    for q in questions:
        if q.qid in seen:
            raise DuplicateQid(f"duplicate qid: {q.qid}")
        seen.add(q.qid)
    return questions


def _parse_trec_xml(raw: str, rejects: list[MalformedRecord]) -> list[Question]:
    out: list[Question] = []
    for t_no, t_match in enumerate(_TARGET_RE.finditer(raw), start=1):
        target = t_match.group(1).strip() or None
        for q_no, q_match in enumerate(_Q_RE.finditer(t_match.group(2)), start=1):
            where = f"target {t_no} question {q_no}"
            qid = q_match.group(1).strip()
            text = q_match.group(2).strip()
            if not qid:
                rejects.append(MalformedRecord(where, "empty question id"))
                continue
            if not text:
                rejects.append(MalformedRecord(where, "empty question text"))
                continue
            out.append(Question(qid, text, target))
    return out


def _parse_qline(raw: str, rejects: list[MalformedRecord]) -> list[Question]:
    out: list[Question] = []
    for where, (qid, text) in tab_separated(raw, 2, rejects):
        qid, text = qid.strip(), text.strip()
        if qid and text:
            out.append(Question(qid, text))
        else:
            rejects.append(MalformedRecord(where, "empty qid or question"))
    return out


# Wh-word rules protecting obvious cases when the model is unsure.
_PREFIX_RULES = (
    ("how many", ("NUM", "count")),
    ("how much", ("NUM", "count")),
    ("who", ("HUM", "ind")),
    ("where", ("LOC", "other")),
    ("when", ("NUM", "date")),
)
_CONTAINS_RULES = (
    ("what year", ("NUM", "date")),
    ("which year", ("NUM", "date")),
)


def rule_fallback(text: str) -> AnswerType | None:
    lowered = text.strip().lower()
    for prefix, (coarse, fine) in _PREFIX_RULES:
        if lowered.startswith(prefix):
            return AnswerType(coarse, fine, 1.0)
    for needle, (coarse, fine) in _CONTAINS_RULES:
        if needle in lowered:
            return AnswerType(coarse, fine, 1.0)
    return None


def analyze(
    question: Question, model: ClassifierModel | None, stopwords: frozenset[str] = STOPWORDS
) -> QuestionAnalysis:
    """Build the stage-2 record for one question; its query terms leave out
    `stopwords`, the shipped STOPWORDS unless given (`qabench/steadiness.py` gives them)."""
    words = [w for w in terms(question.text) if w not in stopwords]
    if question.target:
        words += [w for w in terms(question.target) if w not in stopwords]
    query_terms = list(dict.fromkeys(words))  # order-preserving dedup

    rule = rule_fallback(question.text)
    if model is not None:
        model_type = classify_question(model, question.text)
        if rule is not None and model_type.confidence < 0.5:
            answer_type, source = rule, "rule"
        else:
            answer_type, source = model_type, "model"
    elif rule is not None:
        answer_type, source = rule, "rule"
    else:
        answer_type, source = AnswerType("DESC", None, 0.0), "default"
    return QuestionAnalysis(question.qid, question.text, query_terms, answer_type, source)


def write_analyses(analyses: list[QuestionAnalysis], path) -> None:
    """Write the stage 2 -> 3 artifact. Query terms are joined by spaces,
    so an empty term or one holding whitespace is refused."""

    def record(a: QuestionAnalysis) -> str:
        if any(term.split() != [term] for term in a.query_terms):
            raise QAError(f"question {a.qid!r}: query term empty or holding whitespace")
        return "\t".join((
            escape_field(a.qid), " ".join(a.query_terms), a.answer_type.coarse,
            "-" if a.answer_type.fine is None else a.answer_type.fine,
            repr(a.answer_type.confidence), escape_field(a.classifier_source),
            escape_field(a.text),
        ))

    write_records(path, MAGIC, VERSION, map(record, analyses))


def load_analyses(path) -> list[QuestionAnalysis]:
    """Read the stage-2 artifact; a version-1 file, which held no question
    text, raises VersionMismatch."""
    out: list[QuestionAnalysis] = []
    records = read_records(path, MAGIC, VERSION, QAError, "qapipe process-questions")
    for line_no, line in enumerate(records, start=2):
        try:
            qid, query, coarse, fine, confidence, source, text = line.split("\t")
            answer_type = AnswerType(coarse, None if fine == "-" else fine, float(confidence))
        except (ValueError, InvalidAnswerType) as exc:
            raise QAError(f"malformed analysis record at line {line_no}: {exc}") from exc
        out.append(QuestionAnalysis(unescape_field(qid), unescape_field(text), query.split(),
                                    answer_type, unescape_field(source)))
    return out
