"""Pipeline configuration: the README's "Configuration" file, parsed and checked.

Building a `PipelineConfig`, loaded or not, parses every stage parameter
to its typed value, so a bad value is refused for every command. Path
existence is checked later, by `pipeline.validate_config`, because a
config may name artifacts that a later stage creates. This module
imports neither `extraction` nor `questions` (the format names live in
`corpus`), so every command can load a config cheaply.
"""

import hashlib
import math
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from .corpus import CORPUS_FORMATS, QUESTION_FORMATS
from .errors import QAError, UsageError
from .serde import read_text

REQUIRED_PATH_KEYS = ("corpus_path", "index_path", "questions_path", "answers_out_path")
OPTIONAL_PATH_KEYS = ("classifier_model_path", "gold_path", "report_out_path")


def _choice(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return text

    return parse


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _path(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def load_gazetteer(path) -> frozenset[str]:
    """One name per line, case-insensitive membership."""
    names = {
        line.strip().lower()
        for line in read_text(path, QAError).split("\n")
        if line.strip()
    }
    return frozenset(names)


class AnswerSettings(NamedTuple):
    """The stage-3 settings: the retrieval.*, weights.* and extract.* keys.
    The defaults here are the config defaults. The `answer` stage and the
    `ask` command both build them with `from_config`, so the two answer a
    question alike."""

    k: int = 50                      # documents to retrieve
    max_passages: int = 20           # passages kept per question
    coverage_weight: float = 2.0
    proximity_weight: float = 1.0
    redundancy_weight: float = 0.5
    persons: frozenset[str] = frozenset()    # gazetteer names, lowercased
    locations: frozenset[str] = frozenset()

    @classmethod
    def from_config(cls, config) -> "AnswerSettings":
        """Take a PipelineConfig's stage-3 values, which the config parsed and
        checked when it was built, and load the gazetteers it names.

        Raises FileNotFoundError for a named gazetteer file that is missing.
        """
        persons = config.param("extract.persons")
        locations = config.param("extract.locations")
        return cls(
            **{field: config.param(key) for key, (_, field) in STAGE3_FIELDS.items()},
            persons=load_gazetteer(persons) if persons else frozenset(),
            locations=load_gazetteer(locations) if locations else frozenset(),
        )


# Each numeric stage-3 key -> (its parser, the AnswerSettings field it sets).
STAGE3_FIELDS: dict[str, tuple[Callable[[str], object], str]] = {
    "retrieval.k": (_count, "k"),
    "retrieval.max_passages": (_count, "max_passages"),
    "weights.coverage": (_finite, "coverage_weight"),
    "weights.proximity": (_finite, "proximity_weight"),
    "weights.redundancy": (_finite, "redundancy_weight"),
}

# key -> (parse: text -> typed value or ValueError, typed default or None)
PARAM_SPECS: dict[str, tuple[Callable[[str], object], object]] = {
    "corpus.format": (_choice(*CORPUS_FORMATS), "trec-sgml"),
    "questions.format": (_choice(*QUESTION_FORMATS), "qline"),
    "questions.analysis_out": (_path, None),  # analysis.txt next to answers_out_path
    **{key: (parse, AnswerSettings._field_defaults[field])
       for key, (parse, field) in STAGE3_FIELDS.items()},
    "extract.persons": (_path, None),
    "extract.locations": (_path, None),
}


class ParseError(UsageError):
    def __init__(self, line, message):
        super().__init__(f"config line {line}: {message}")
        self.line = line


class UnknownKey(UsageError):
    def __init__(self, key):
        super().__init__(f"unknown config key: {key}")
        self.key = key


class ValidationFailed(UsageError):
    def __init__(self, issues):
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = issues


class ConfigIssue(NamedTuple):
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


class PipelineConfig:
    """The paths of a run and its typed stage parameters.

    Building one parses `str(value)` of each given stage parameter, then
    fills the defaults. A value of None leaves its key unset, as an empty
    value in a file does.
    """

    __slots__ = (*REQUIRED_PATH_KEYS, *OPTIONAL_PATH_KEYS, "stage_params")

    def __init__(
        self,
        corpus_path: str,
        index_path: str,
        questions_path: str,
        answers_out_path: str,
        classifier_model_path: str | None = None,
        gold_path: str | None = None,
        report_out_path: str | None = None,
        stage_params: dict[str, object] | None = None,
    ):
        self.corpus_path = corpus_path
        self.index_path = index_path
        self.questions_path = questions_path
        self.answers_out_path = answers_out_path
        self.classifier_model_path = classifier_model_path
        self.gold_path = gold_path
        self.report_out_path = report_out_path
        params = {}
        for key, value in (stage_params or {}).items():
            if key not in PARAM_SPECS:
                raise UnknownKey(key)
            if value is None:
                continue
            try:
                params[key] = PARAM_SPECS[key][0](str(value))
            except ValueError as exc:
                raise UsageError(f"config key {key}: bad value {str(value)!r}: {exc}") from None
        for key, (_, default) in PARAM_SPECS.items():
            if default is not None:
                params.setdefault(key, default)
        analysis = Path(answers_out_path).parent / "analysis.txt"
        params.setdefault("questions.analysis_out", str(analysis))
        self.stage_params = params

    def param(self, key: str):
        """The typed value of a stage parameter, or None when it is unset."""
        return self.stage_params.get(key)

    def digest(self) -> str:
        """Content hash of the resolved configuration."""
        items = [(k, getattr(self, k) or "") for k in REQUIRED_PATH_KEYS + OPTIONAL_PATH_KEYS]
        items += sorted(self.stage_params.items())
        blob = "\n".join(f"{k}={v}" for k, v in items)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path) -> PipelineConfig:
    """Read a config file, resolve its paths, and build the config from it."""
    path = Path(path)
    path_keys = REQUIRED_PATH_KEYS + OPTIONAL_PATH_KEYS
    seen: set[str] = set()
    values: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path, UsageError).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(line_no, f"expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(line_no, "empty key")
        if key not in path_keys and key not in PARAM_SPECS:
            raise UnknownKey(key)
        if key in seen:
            raise ParseError(line_no, f"duplicate key {key}")
        seen.add(key)
        if not value:
            continue  # an empty value leaves the key unset
        if key in path_keys or PARAM_SPECS[key][0] is _path:
            if "\0" in value:
                raise ParseError(line_no, f"{key}: a path cannot hold a NUL byte")
            value = str((path.parent / value).resolve())
        values[key] = value

    for key in REQUIRED_PATH_KEYS:
        if key not in values:
            raise ParseError(0, f"missing required path key {key}")
    paths = {key: values.pop(key) for key in path_keys if key in values}
    return PipelineConfig(**paths, stage_params=values)
