"""Trainable expected-answer-type classifier.

Multinomial naive Bayes with add-alpha smoothing over simple question
features. Training is a closed-form count, so models are deterministic
and independent of example order.

Features for a question are a multiset of:
  - every lowercased token,
  - first2=<tok1>_<tok2>, the bigram of the first two tokens,
  - wh=<who|what|when|where|which|why|how|none>, first wh-word present,
  - len=<1-3|4-7|8+>, bucketed token count.

The model file format is the README's "File formats: Classifier model"
section. Only integer counts and alpha are stored; log-probabilities
are recomputed at load, so load(write(m)) reproduces the model exactly.
"""

import math
from collections import Counter

from .errors import QAError, UsageError
from .serde import read_records, read_text, write_records
from .taxonomy import AnswerType, parse_label
from .text import terms, tokenize  # tokenize unused: qabench/trace_shim.py wraps this name

MAGIC = "QANUSNB1"
VERSION = 2

WH_WORDS = ("who", "what", "when", "where", "which", "why", "how")

COARSE_ONLY = "coarse"
COARSE_FINE = "coarse+fine"


class NoExamples(QAError):
    pass


class CorruptModel(QAError):
    pass


class TrainingExample:
    """A question and its label, COARSE or COARSE:fine, checked against the
    taxonomy when built."""

    __slots__ = ("label", "text")

    def __init__(self, label: str, text: str):
        parse_label(label)
        self.label = label
        self.text = text


def extract_features(text: str) -> Counter:
    """Feature multiset for one question; see module docstring."""
    tokens = terms(text)
    feats = Counter(tokens)
    if len(tokens) >= 2:
        feats[f"first2={tokens[0]}_{tokens[1]}"] += 1
    wh = next((t for t in tokens if t in WH_WORDS), "none")
    feats[f"wh={wh}"] += 1
    n = len(tokens)
    bucket = "1-3" if n <= 3 else "4-7" if n <= 7 else "8+"
    feats[f"len={bucket}"] += 1
    return feats


class ClassifierModel:
    """The counts of a trained model and the tables derived from them. Two
    models are equal when their counts and alpha are; the derived tables
    are rebuilt identically from those."""

    __slots__ = (
        "alpha", "label_space", "example_counts", "feature_counts",
        "vocabulary", "class_priors", "term_log_likelihoods", "unseen_log_likelihood",
    )

    def __init__(
        self,
        alpha: float,
        label_space: str,  # COARSE_ONLY or COARSE_FINE
        example_counts: dict[str, int],
        feature_counts: dict[str, dict[str, int]],
    ):
        self.alpha = alpha
        self.label_space = label_space
        self.example_counts = example_counts
        self.feature_counts = feature_counts
        vocab: set[str] = set()
        for counts in feature_counts.values():
            vocab.update(counts)
        self.vocabulary = frozenset(vocab)
        total_examples = sum(example_counts.values())
        self.class_priors = {
            label: math.log(n / total_examples) for label, n in example_counts.items()
        }
        # The +1 vocabulary slot reserves smoothed mass for unseen features,
        # keeping each class distribution normalized.
        v = len(self.vocabulary)
        self.term_log_likelihoods: dict[str, dict[str, float]] = {}
        self.unseen_log_likelihood: dict[str, float] = {}
        for label, counts in feature_counts.items():
            denom = sum(counts.values()) + alpha * (v + 1)
            self.term_log_likelihoods[label] = {
                f: math.log((c + alpha) / denom) for f, c in sorted(counts.items())
            }
            self.unseen_log_likelihood[label] = math.log(alpha / denom)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.label_space == other.label_space
            and self.example_counts == other.example_counts
            and self.feature_counts == other.feature_counts
        )

    @property
    def labels(self) -> list[str]:
        return sorted(self.example_counts)


def check_alpha(alpha: float) -> float:
    """`alpha`, or UsageError when it is not positive and finite."""
    if not 0.0 < alpha < math.inf:
        raise UsageError(f"alpha {alpha} is not positive and finite")
    return alpha


def train_classifier(
    examples: list[TrainingExample],
    alpha: float = 1.0,
    label_space: str = COARSE_FINE,
) -> ClassifierModel:
    """Count features per label and build the smoothed model."""
    check_alpha(alpha)
    if label_space not in (COARSE_ONLY, COARSE_FINE):
        raise UsageError(f"unknown label space: {label_space!r}")
    if not examples:
        raise NoExamples("no training examples")
    example_counts: dict[str, int] = {}
    feature_counts: dict[str, dict[str, int]] = {}
    for ex in examples:
        label = ex.label.split(":")[0] if label_space == COARSE_ONLY else ex.label
        example_counts[label] = example_counts.get(label, 0) + 1
        bucket = feature_counts.setdefault(label, {})
        for feat, n in extract_features(ex.text).items():
            bucket[feat] = bucket.get(feat, 0) + n
    return ClassifierModel(alpha, label_space, example_counts, feature_counts)


def posterior(model: ClassifierModel, text: str) -> dict[str, float]:
    """Softmax-normalized label posterior for one question."""
    feats = extract_features(text)
    scores: dict[str, float] = {}
    for label in model.labels:
        table = model.term_log_likelihoods[label]
        unseen = model.unseen_log_likelihood[label]
        s = model.class_priors[label]
        for feat, n in feats.items():
            s += n * table.get(feat, unseen)
        scores[label] = s
    top = max(scores.values())
    exps = {label: math.exp(s - top) for label, s in scores.items()}
    z = sum(exps.values())
    return {label: e / z for label, e in exps.items()}


def classify_question(model: ClassifierModel, text: str) -> AnswerType:
    """Argmax label with its posterior; ties break lexicographically."""
    post = posterior(model, text)
    best = min(post, key=lambda label: (-post[label], label))
    coarse, fine = parse_label(best)
    return AnswerType(coarse, fine, post[best])


def write_model(model: ClassifierModel, path) -> None:
    lines = [f"alpha {model.alpha!r}", f"space {model.label_space}"]
    for label in sorted(model.example_counts):
        lines.append(f"label {label} {model.example_counts[label]}")
    for label in sorted(model.feature_counts):
        for feat, n in sorted(model.feature_counts[label].items()):
            lines.append(f"feat {label} {feat} {n}")
    write_records(path, MAGIC, VERSION, lines)


def _positive_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"count {n} is not positive")
    return n


def load_model(path) -> ClassifierModel:
    lines = read_records(path, MAGIC, VERSION, CorruptModel, "qapipe train-classifier")
    alpha: float | None = None
    label_space: str | None = None
    example_counts: dict[str, int] = {}
    feature_counts: dict[str, dict[str, int]] = {}
    for line_no, line in enumerate(lines, start=2):
        kind, _, rest = line.partition(" ")
        try:
            if kind == "alpha":
                alpha = check_alpha(float(rest))
            elif kind == "space":
                if rest not in (COARSE_ONLY, COARSE_FINE):
                    raise ValueError(f"unknown label space {rest!r}")
                label_space = rest
            elif kind == "label":
                label, n = rest.rsplit(" ", 1)
                if parse_label(label)[1] is not None and label_space != COARSE_FINE:
                    raise ValueError(f"fine label {label!r} outside a {COARSE_FINE} model")
                example_counts[label] = _positive_count(n)
                feature_counts.setdefault(label, {})
            elif kind == "feat":
                label, feat, n = rest.split(" ")
                if label not in example_counts:
                    raise ValueError(f"feature of undeclared label {label!r}")
                feature_counts[label][feat] = _positive_count(n)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (ValueError, QAError) as exc:  # QAError: a bad alpha or label
            raise CorruptModel(f"malformed model record at line {line_no}: {exc}") from exc
    if alpha is None or label_space is None or not example_counts:
        raise CorruptModel("incomplete model file")
    try:
        return ClassifierModel(alpha, label_space, example_counts, feature_counts)
    except (ValueError, ArithmeticError) as exc:  # counts or alpha beyond float range
        raise CorruptModel(f"model out of numeric range: {exc}") from exc


def parse_training_file(path) -> tuple[list[TrainingExample], list[str]]:
    """Read `LABEL question text` lines; invalid lines go to the rejects list."""
    examples: list[TrainingExample] = []
    rejected: list[str] = []
    for line_no, line in enumerate(read_text(path, UsageError).split("\n"), start=1):
        if not line.strip():
            continue
        label, _, question = line.partition(" ")
        if not question.strip():
            rejected.append(f"line {line_no}: missing question text")
            continue
        try:
            examples.append(TrainingExample(label, question.strip()))
        except QAError as exc:
            rejected.append(f"line {line_no}: {exc}")
    return examples, rejected
