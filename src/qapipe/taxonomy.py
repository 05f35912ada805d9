"""Expected-answer-type taxonomy: 6 coarse classes, 50 fine subclasses.

Fine labels use the conventional short names from the public question
classification training distribution, so that data drops in unchanged.
"""

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


class AnswerType:
    """A coarse class, an optional fine class of it, and a confidence in
    [0, 1], checked when built. Answer types compare and hash by the three."""

    __slots__ = ("coarse", "fine", "confidence")

    def __init__(self, coarse: str, fine: str | None = None, confidence: float = 0.0):
        if coarse not in COARSE_CLASSES:
            raise InvalidAnswerType(f"unknown coarse class: {coarse!r}")
        if fine is not None and fine not in FINE_CLASSES[coarse]:
            raise InvalidAnswerType(f"unknown fine class {coarse}:{fine}")
        if not 0.0 <= confidence <= 1.0:
            raise InvalidAnswerType(f"confidence out of range: {confidence}")
        self.coarse = coarse
        self.fine = fine
        self.confidence = confidence

    def _key(self) -> tuple:
        return self.coarse, self.fine, self.confidence

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"AnswerType({self.coarse!r}, {self.fine!r}, {self.confidence!r})"

    @property
    def label(self) -> str:
        return self.coarse if self.fine is None else f"{self.coarse}:{self.fine}"


def parse_label(label: str) -> tuple[str, str | None]:
    """Split a COARSE or COARSE:fine label; raises on anything unknown."""
    coarse, sep, fine = label.partition(":")
    answer_type = AnswerType(coarse, fine if sep else None)
    return answer_type.coarse, answer_type.fine
