"""Reference stage engines wiring the library into the pipeline.

Each engine reads its inputs from the config's paths, does the stage's
work, persists this stage's artifact, and returns a one-line detail; the
pipeline takes the paths it records from the config. `default_engines()`
maps each stage to its engine: the complete reference QA system.

Each engine imports the modules its stage runs when it runs, so the
`index` and `evaluate` processes load neither question analysis nor the
answer engine (`extraction`), and `process-questions` does not load the
answer engine. `load_model` and `evaluate_answers` are looked up on
this module through `_import_on_first_use`, so a wrapper set on it is
the one an engine calls.
"""

import sys

from . import _import_on_first_use, corpus
from .config import AnswerSettings, PipelineConfig
from .pipeline import Engine, StageKind

__getattr__ = _import_on_first_use(
    globals(), {"load_model": "classifier", "evaluate_answers": "evaluation"}
)
_module = sys.modules[__name__]


def run_info_source_prep(config: PipelineConfig) -> str:
    from . import index

    rejects: list[corpus.MalformedRecord] = []
    docs = corpus.parse_corpus(config.corpus_path, config.param("corpus.format"), rejects)
    idx = index.build_index(docs)
    index.write_index(idx, config.index_path)
    corpus.write_rejects(rejects, config.index_path + ".rejects")
    st = idx.stats()
    return (
        f"docs={st.doc_count} terms={st.distinct_terms} "
        f"postings={st.total_postings} rejects={len(rejects)}"
    )


def run_question_processing(config: PipelineConfig) -> str:
    from . import questions

    out_path = config.param("questions.analysis_out")
    rejects: list[corpus.MalformedRecord] = []
    parsed = questions.parse_questions(
        config.questions_path, config.param("questions.format"), rejects
    )
    model = _module.load_model(config.classifier_model_path)
    analyses = [questions.analyze(q, model) for q in parsed]
    questions.write_analyses(analyses, out_path)
    corpus.write_rejects(rejects, out_path + ".rejects")
    return f"questions={len(analyses)} rejects={len(rejects)}"


def run_answer_retrieval(config: PipelineConfig) -> str:
    from . import extraction, index, questions

    idx = index.load_index(config.index_path)
    analyses = questions.load_analyses(config.param("questions.analysis_out"))
    settings = AnswerSettings.from_config(config)
    records = [extraction.answer_question(idx, analysis, settings) for analysis in analyses]
    extraction.write_answers(records, config.answers_out_path)
    answered = sum(1 for r in records if r.answer is not None)
    return f"questions={len(records)} answered={answered}"


def run_evaluation(config: PipelineConfig) -> str:
    from .answers import load_answers
    from .evaluation import format_report, load_gold, write_report

    answers = load_answers(config.answers_out_path)
    gold = load_gold(config.gold_path)
    report = _module.evaluate_answers(answers, gold)
    if config.report_out_path:
        write_report(report, config.report_out_path)
    return format_report(report).splitlines()[0]


def default_engines() -> dict[StageKind, Engine]:
    """Built per call, so engines replaced on this module after import are used."""
    return {
        StageKind.INFO_SOURCE_PREP: run_info_source_prep,
        StageKind.QUESTION_PROCESSING: run_question_processing,
        StageKind.ANSWER_RETRIEVAL: run_answer_retrieval,
        StageKind.EVALUATION: run_evaluation,
    }
