"""Reference stage components wiring the library into the pipeline.

Each engine reads its inputs from the config's paths, does the stage's
work, and persists this stage's artifact before returning; the pipeline
takes the paths it records from the config. Registering these four
components against a fresh registry yields the complete reference QA
system.
"""

from . import corpus, extraction, index, questions
from .classifier import load_model
from .config import PipelineConfig
from .evaluation import evaluate_answers, format_report, load_gold, write_report
from .pipeline import (
    ComponentRegistry,
    StageComponent,
    StageKind,
    StageResult,
    analysis_out_path,
)
from .stopwords import STOPWORDS


def run_info_source_prep(config: PipelineConfig) -> StageResult:
    rejects: list[corpus.MalformedRecord] = []
    docs = corpus.parse_corpus(config.corpus_path, config.param("corpus.format"), rejects)
    idx = index.build_index(docs)
    index.write_index(idx, config.index_path)
    corpus.write_rejects(rejects, config.index_path + ".rejects")
    st = idx.stats()
    return StageResult(
        f"docs={st.doc_count} terms={st.distinct_terms} "
        f"postings={st.total_postings} rejects={len(rejects)}"
    )


def run_question_processing(config: PipelineConfig) -> StageResult:
    out_path = analysis_out_path(config)
    rejects: list[corpus.MalformedRecord] = []
    parsed = questions.parse_questions(
        config.questions_path, config.param("questions.format"), rejects
    )
    model = load_model(config.classifier_model_path)
    analyses = [questions.analyze(q, model, STOPWORDS) for q in parsed]
    questions.write_analyses(analyses, out_path)
    corpus.write_rejects(rejects, out_path + ".rejects")
    return StageResult(f"questions={len(analyses)} rejects={len(rejects)}")


def run_answer_retrieval(config: PipelineConfig) -> StageResult:
    idx = index.load_index(config.index_path)
    analyses = questions.load_analyses(analysis_out_path(config))
    settings = extraction.AnswerSettings.from_config(config)
    records = [extraction.answer_question(idx, analysis, settings) for analysis in analyses]
    extraction.write_answers(records, config.answers_out_path)
    answered = sum(1 for r in records if r.answer is not None)
    return StageResult(f"questions={len(records)} answered={answered}")


def run_evaluation(config: PipelineConfig) -> StageResult:
    answers = extraction.load_answers(config.answers_out_path)
    gold = load_gold(config.gold_path)
    report = evaluate_answers(answers, gold)
    if config.report_out_path:
        write_report(report, config.report_out_path)
    return StageResult(format_report(report).splitlines()[0])


def default_registry() -> ComponentRegistry:
    registry = ComponentRegistry()
    registry.register(
        StageComponent(StageKind.INFO_SOURCE_PREP, "default-index", run_info_source_prep)
    )
    registry.register(
        StageComponent(StageKind.QUESTION_PROCESSING, "default-qp", run_question_processing)
    )
    registry.register(
        StageComponent(StageKind.ANSWER_RETRIEVAL, "default-retrieval", run_answer_retrieval)
    )
    registry.register(
        StageComponent(StageKind.EVALUATION, "default-evaluation", run_evaluation)
    )
    return registry
