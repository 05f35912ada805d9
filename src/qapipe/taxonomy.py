"""Expected-answer-type taxonomy: 6 coarse classes, 50 fine subclasses.

Fine labels use the conventional short names from the public question
classification training distribution, so that data drops in unchanged.
"""

from dataclasses import dataclass

from .errors import QAError

COARSE_CLASSES = ("ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM")

FINE_CLASSES: dict[str, frozenset[str]] = {
    "ABBR": frozenset({"abb", "exp"}),
    "DESC": frozenset({"def", "desc", "manner", "reason"}),
    "ENTY": frozenset({
        "animal", "body", "color", "cremat", "currency", "dismed", "event",
        "food", "instru", "lang", "letter", "other", "plant", "product",
        "religion", "sport", "substance", "symbol", "techmeth", "termeq",
        "veh", "word",
    }),
    "HUM": frozenset({"desc", "gr", "ind", "title"}),
    "LOC": frozenset({"city", "country", "mount", "other", "state"}),
    "NUM": frozenset({
        "code", "count", "date", "dist", "money", "ord", "other", "perc",
        "period", "speed", "temp", "volsize", "weight",
    }),
}


class InvalidAnswerType(QAError):
    pass


@dataclass(frozen=True)
class AnswerType:
    coarse: str
    fine: str | None = None
    confidence: float = 0.0

    def __post_init__(self):
        if self.coarse not in COARSE_CLASSES:
            raise InvalidAnswerType(f"unknown coarse class: {self.coarse!r}")
        if self.fine is not None and self.fine not in FINE_CLASSES[self.coarse]:
            raise InvalidAnswerType(f"unknown fine class {self.coarse}:{self.fine}")
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidAnswerType(f"confidence out of range: {self.confidence}")

    @property
    def label(self) -> str:
        return self.coarse if self.fine is None else f"{self.coarse}:{self.fine}"


def parse_label(label: str) -> tuple[str, str | None]:
    """Split a COARSE or COARSE:fine label; raises on anything unknown."""
    coarse, sep, fine = label.partition(":")
    answer_type = AnswerType(coarse, fine if sep else None)
    return answer_type.coarse, answer_type.fine
