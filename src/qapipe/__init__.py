"""Pluggable four-stage factoid question answering pipeline.

The framework (pipeline and config: a system is one engine per stage) and
the reference engines (indexing, question analysis, answer retrieval,
evaluation) it ships with.
"""

__version__ = "0.1.0"

from .classifier import ClassifierModel, classify_question, train_classifier
from .config import PipelineConfig, load_config
from .corpus import Document, parse_corpus
from .evaluation import EvaluationReport, evaluate_answers, judge, load_gold
from .extraction import AnswerRecord, answer_question, extract_candidates, rank_candidates
from .index import InvertedIndex, build_index, load_index, write_index
from .pipeline import RunManifest, StageKind, run_pipeline, validate_config
from .questions import Question, QuestionAnalysis, analyze, parse_questions
from .retrieval import retrieve_documents, score_passage, segment_passages
from .stages import default_engines
from .stopwords import STOPWORDS
from .taxonomy import AnswerType
from .text import Token, tokenize

__all__ = [
    "AnswerRecord",
    "AnswerType",
    "ClassifierModel",
    "Document",
    "EvaluationReport",
    "InvertedIndex",
    "PipelineConfig",
    "Question",
    "QuestionAnalysis",
    "RunManifest",
    "STOPWORDS",
    "StageKind",
    "Token",
    "analyze",
    "answer_question",
    "build_index",
    "classify_question",
    "default_engines",
    "evaluate_answers",
    "extract_candidates",
    "judge",
    "load_config",
    "load_gold",
    "load_index",
    "parse_corpus",
    "parse_questions",
    "rank_candidates",
    "retrieve_documents",
    "run_pipeline",
    "score_passage",
    "segment_passages",
    "tokenize",
    "train_classifier",
    "validate_config",
    "write_index",
]
