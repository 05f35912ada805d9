"""The answers file: stage 3's artifact, which stage 4 reads.

The format is the README's "File formats: Answers" section. This module
holds the codec alone, so the `evaluate` stage reads answers without
importing the answer engine in `extraction`.
"""

from typing import NamedTuple

from .errors import QAError
from .serde import (
    escape_field, escape_optional, read_records, unescape_field, unescape_optional, write_records,
)

MAGIC = "QANUSANS"
VERSION = 2


class AnswerRecord(NamedTuple):
    qid: str
    answer: str | None        # None encodes NIL
    supporting_doc: str | None
    final_score: float


def write_answers(records: list[AnswerRecord], path) -> None:
    """Write the stage 3 artifact, which `load_answers` reads back exactly."""
    write_records(path, MAGIC, VERSION, (
        f"{escape_field(r.qid)}\t{escape_optional(r.answer)}\t"
        f"{escape_optional(r.supporting_doc)}\t{r.final_score!r}"
        for r in records
    ))


def load_answers(path) -> list[AnswerRecord]:
    out: list[AnswerRecord] = []
    records = read_records(path, MAGIC, VERSION, QAError, "qapipe answer")
    for line_no, line in enumerate(records, start=2):
        try:
            qid, answer, doc, score = line.split("\t")
            final_score = float(score)
        except ValueError as exc:
            raise QAError(f"malformed answer record at line {line_no}: {exc}") from exc
        out.append(AnswerRecord(
            unescape_field(qid), unescape_optional(answer), unescape_optional(doc), final_score
        ))
    return out
