"""Pipeline configuration: flat `key = value` files with # comments.

Relative paths are resolved against the config file's directory at load
time. Unknown keys are rejected at load; value typing and path existence
are checked at validation time, per requested stage, because a config
may legitimately name artifacts that a later stage will create.

Path keys:
    corpus_path, index_path, questions_path, answers_out_path   (required)
    classifier_model_path          (required when question processing runs)
    gold_path                      (required when evaluation runs)
    report_out_path                (optional)

Stage parameters and their defaults:
    corpus.format        trec-sgml | record-lines     (trec-sgml)
    questions.format     trec-xml | qline             (qline)
    questions.analysis_out   stage-2 artifact path    (analysis.txt)
    retrieval.k              documents to retrieve
    retrieval.max_passages   passages to keep
    weights.coverage         passage coverage bonus
    weights.proximity        candidate proximity
    weights.redundancy       candidate redundancy
    extract.persons          persons gazetteer path   (unset)
    extract.locations        locations gazetteer path (unset)

The retrieval.*, weights.* and extract.* keys are the stage-3 settings.
Their defaults are those of `extraction.AnswerSettings`, which both the
`answer` stage and the `ask` command build from the config, gazetteers
included, so the two answer a question alike.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import CORPUS_FORMATS
from .errors import UsageError
from .extraction import AnswerSettings
from .questions import QUESTION_FORMATS
from .serde import read_text

REQUIRED_PATH_KEYS = ("corpus_path", "index_path", "questions_path", "answers_out_path")
OPTIONAL_PATH_KEYS = ("classifier_model_path", "gold_path", "report_out_path")

_INT = "int"
_FLOAT = "float"
_PATH = "path"
_CHOICE = "choice"

_STAGE3 = AnswerSettings()

# key -> (kind, default or None, choices for _CHOICE)
PARAM_SPECS: dict[str, tuple] = {
    "corpus.format": (_CHOICE, "trec-sgml", CORPUS_FORMATS),
    "questions.format": (_CHOICE, "qline", QUESTION_FORMATS),
    "questions.analysis_out": (_PATH, "analysis.txt", None),
    "retrieval.k": (_INT, str(_STAGE3.k), None),
    "retrieval.max_passages": (_INT, str(_STAGE3.max_passages), None),
    "weights.coverage": (_FLOAT, str(_STAGE3.coverage_weight), None),
    "weights.proximity": (_FLOAT, str(_STAGE3.proximity_weight), None),
    "weights.redundancy": (_FLOAT, str(_STAGE3.redundancy_weight), None),
    "extract.persons": (_PATH, None, None),
    "extract.locations": (_PATH, None, None),
}


class MissingFile(UsageError):
    pass


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


@dataclass(frozen=True)
class ConfigIssue:
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


@dataclass
class PipelineConfig:
    corpus_path: str
    index_path: str
    questions_path: str
    answers_out_path: str
    classifier_model_path: str | None = None
    gold_path: str | None = None
    report_out_path: str | None = None
    stage_params: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # Fill defaults so directly constructed configs behave like loaded
        # ones; load_config resolves these against the config directory first.
        for key, (kind, default, _) in PARAM_SPECS.items():
            if key in self.stage_params or default is None:
                continue
            if key == "questions.analysis_out":
                self.stage_params[key] = str(Path(self.answers_out_path).parent / default)
            else:
                self.stage_params[key] = default

    def param(self, key: str) -> str | None:
        return self.stage_params.get(key)

    def int_param(self, key: str) -> int:
        return int(self.stage_params[key])

    def float_param(self, key: str) -> float:
        return float(self.stage_params[key])

    def digest(self) -> str:
        """Content hash of the resolved configuration."""
        items = [(k, getattr(self, k) or "") for k in REQUIRED_PATH_KEYS + OPTIONAL_PATH_KEYS]
        items += sorted(self.stage_params.items())
        blob = "\n".join(f"{k}={v}" for k, v in items)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path) -> PipelineConfig:
    """Parse, resolve paths, and apply stage-parameter defaults."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"config file not found: {path}")
    base = path.parent
    raw: dict[str, str] = {}
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
        if key in raw:
            raise ParseError(line_no, f"duplicate key {key}")
        raw[key] = value

    known_paths = set(REQUIRED_PATH_KEYS) | set(OPTIONAL_PATH_KEYS)
    for key in raw:
        if key not in known_paths and key not in PARAM_SPECS:
            raise UnknownKey(key)
    for key in REQUIRED_PATH_KEYS:
        if not raw.get(key):
            raise ParseError(0, f"missing required path key {key}")

    def resolve(value: str) -> str:
        return str((base / value).resolve()) if value else value

    params: dict[str, str] = {}
    for key, (kind, default, _) in PARAM_SPECS.items():
        value = raw.get(key, default)
        if value is None:
            continue
        params[key] = resolve(value) if kind == _PATH else value

    return PipelineConfig(
        corpus_path=resolve(raw["corpus_path"]),
        index_path=resolve(raw["index_path"]),
        questions_path=resolve(raw["questions_path"]),
        answers_out_path=resolve(raw["answers_out_path"]),
        classifier_model_path=resolve(raw["classifier_model_path"])
        if raw.get("classifier_model_path")
        else None,
        gold_path=resolve(raw["gold_path"]) if raw.get("gold_path") else None,
        report_out_path=resolve(raw["report_out_path"]) if raw.get("report_out_path") else None,
        stage_params=params,
    )


def check_param_types(config: PipelineConfig) -> list[ConfigIssue]:
    issues = []
    for key, value in config.stage_params.items():
        kind, _, choices = PARAM_SPECS[key]
        if kind == _INT:
            try:
                if int(value) < 1:
                    issues.append(ConfigIssue("BadParam", f"{key} must be >= 1"))
            except ValueError:
                issues.append(ConfigIssue("BadParam", f"{key} not an integer: {value!r}"))
        elif kind == _FLOAT:
            try:
                float(value)
            except ValueError:
                issues.append(ConfigIssue("BadParam", f"{key} not a number: {value!r}"))
        elif kind == _CHOICE and value not in choices:
            issues.append(
                ConfigIssue("BadParam", f"{key} must be one of {', '.join(choices)}")
            )
    return issues
