"""Command-line entry point.

The commands and exit codes are the README's "Commands" section. Each
command imports what it runs when it runs, so a process loads only its
command's modules: `ask` and `stats` never load the stage machinery
(`pipeline`, `stages`), and only `answer`, `run-all` and `ask` load the
answer engine (`extraction`). `run_pipeline`, `load_model`, `analyze`
and `answer_question` are looked up on this module through
`_import_on_first_use`, so a wrapper set on it is the one a command
calls.
"""

import argparse
import sys

from . import _import_on_first_use
from .config import AnswerSettings, load_config
from .errors import UsageError
from .serde import escape_field

__getattr__ = _import_on_first_use(globals(), {
    "run_pipeline": "pipeline", "load_model": "classifier", "analyze": "questions",
    "answer_question": "extraction",
})
_module = sys.modules[__name__]  # `__main__` under `python -m qapipe.cli`

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Each command that runs one pipeline stage -> that stage's `StageKind`
# value; run-all (None) runs them in `StageKind` order, less evaluation
# when no gold is set.
_STAGE_COMMANDS = {
    "index": "info-source-prep",
    "process-questions": "question-processing",
    "answer": "answer-retrieval",
    "evaluate": "evaluation",
    "run-all": None,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qapipe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name in (*_STAGE_COMMANDS, "stats"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)

    p = sub.add_parser("train-classifier")
    p.add_argument("--train-file", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--coarse-only", action="store_true")

    p = sub.add_parser("ask")
    p.add_argument("--config", required=True)
    p.add_argument("question", nargs="*")
    return parser


def cmd_stages(args) -> int:
    from .pipeline import StageKind
    from .stages import default_engines

    config = load_config(args.config)
    value = _STAGE_COMMANDS[args.command]
    stages = [StageKind(value)] if value else [
        s for s in StageKind if config.gold_path or s is not StageKind.EVALUATION
    ]
    manifest = _module.run_pipeline(config, default_engines(), stages)
    for run in manifest.stages_run:
        print(f"{run.stage.value}: {run.detail}")
    return EXIT_OK


def cmd_train_classifier(args) -> int:
    from .classifier import parse_training_file, train_classifier, write_model

    examples, rejected = parse_training_file(args.train_file)
    for line in rejected:
        print(f"rejected: {line}", file=sys.stderr)
    if not examples:
        raise UsageError("training file has no valid examples")
    total = len(examples) + len(rejected)
    if len(rejected) > 0.01 * total:
        raise UsageError(
            f"{len(rejected)} of {total} training lines malformed (over 1% tolerance)"
        )
    space = "coarse" if args.coarse_only else "coarse+fine"
    model = train_classifier(examples, alpha=args.alpha, label_space=space)
    write_model(model, args.out)
    print(f"labels={len(model.example_counts)} vocab={len(model.vocabulary)}")
    return EXIT_OK


def cmd_ask(args) -> int:
    from .index import load_index
    from .questions import Question

    config = load_config(args.config)
    settings = AnswerSettings.from_config(config)
    idx = load_index(config.index_path)
    path = config.classifier_model_path
    model = _module.load_model(path) if path else None
    analyze, answer_question = _module.analyze, _module.answer_question
    for i, line in enumerate([" ".join(args.question)] if args.question else sys.stdin, start=1):
        # A blank line gets a NIL reply, so every line sent gets one.
        record = answer_question(idx, analyze(Question(f"q{i}", line.strip()), model), settings)
        # Escaped as answers.txt stores them, so each reply is one line, and
        # flushed, so a client reading a pipe gets it before its next line.
        answer = "NIL" if record.answer is None else escape_field(record.answer)
        doc = "-" if record.supporting_doc is None else escape_field(record.supporting_doc)
        print(f"{answer}\t{doc}\t{record.final_score:g}", flush=True)
    return EXIT_OK


def cmd_stats(args) -> int:
    import os

    from .index import load_index

    config = load_config(args.config)
    found = False
    if os.path.isfile(config.index_path):
        st = load_index(config.index_path).stats()
        print(
            f"index: docs={st.doc_count} terms={st.distinct_terms} "
            f"postings={st.total_postings} avg_len={st.avg_doc_length:.2f}"
        )
        found = True
    if config.classifier_model_path and os.path.isfile(config.classifier_model_path):
        model = _module.load_model(config.classifier_model_path)
        print(
            f"model: labels={len(model.example_counts)} vocab={len(model.vocabulary)} "
            f"alpha={model.alpha:g} space={model.label_space}"
        )
        found = True
    if not found:
        raise UsageError("neither index nor model file exists yet")
    return EXIT_OK


_COMMANDS = {
    **dict.fromkeys(_STAGE_COMMANDS, cmd_stages),
    "train-classifier": cmd_train_classifier,
    "ask": cmd_ask,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError) as exc:
        problem = "is a directory" if isinstance(exc, IsADirectoryError) else "file not found"
        print(f"error: {problem}: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # QAError or any other: never panic to the shell
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
