"""Pluggable four-stage factoid question answering pipeline.

The framework (pipeline and config: a system is one engine per stage) and
the reference engines (indexing, question analysis, answer retrieval,
evaluation) it ships with.

`import qapipe` loads no submodule: each name in `__all__` comes from
the module that owns it through `_import_on_first_use`, so a process
pays only for the modules it uses. No qapipe module imports
`dataclasses`, which saves each stage process and each `ask` launch its
import and per-class code generation.
"""

__version__ = "0.1.0"

# Each qapipe module -> the names exported from it.
_EXPORTS = {
    "answers": ("AnswerRecord",),
    "classifier": ("ClassifierModel", "classify_question", "train_classifier"),
    "config": ("PipelineConfig", "load_config"),
    "corpus": ("Document", "parse_corpus"),
    "evaluation": ("EvaluationReport", "evaluate_answers", "judge", "load_gold"),
    "extraction": ("answer_question", "extract_candidates", "rank_candidates"),
    "index": ("InvertedIndex", "build_index", "load_index", "write_index"),
    "pipeline": ("RunManifest", "StageKind", "run_pipeline", "validate_config"),
    "questions": ("Question", "QuestionAnalysis", "analyze", "parse_questions"),
    "retrieval": ("retrieve_documents", "score_passage", "segment_passages"),
    "stages": ("default_engines",),
    "stopwords": ("STOPWORDS",),
    "taxonomy": ("AnswerType",),
    "text": ("Token", "tokenize"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNERS)


def _import_on_first_use(namespace: dict, owners: dict[str, str]):
    """A module `__getattr__` (PEP 562) for the module whose globals are
    `namespace`. It imports each name of `owners` from the qapipe module
    named there and binds it in `namespace`, so later reads find it
    without a call. A name that is bound, such as a wrapper set on the
    module, is never looked up here."""

    def __getattr__(name: str):
        owner = owners.get(name)
        if owner is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(__import__(f"{__name__}.{owner}", fromlist=[name]), name)
        return value

    return __getattr__


__getattr__ = _import_on_first_use(globals(), _OWNERS)


def __dir__():
    return sorted({*globals(), *__all__})
