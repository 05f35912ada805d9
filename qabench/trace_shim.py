"""Run `qapipe.cli.main` with layer spans recorded from outside.

Usage (with the program's `src` on PYTHONPATH):

    python trace_shim.py SPANS_OUT qapipe-cli-args...

Each wrapper replaces a function at the name its caller looks it up by,
so the program is not modified. A span records its name, start, end,
parent span and request id (the question id inside a question, the
stage name inside a stage) plus the counts measured at that boundary.
Spans stay in memory and are written to SPANS_OUT when the command
returns, one tab-separated line each:

    id  parent  name  request  start  end  key=value,...

Times are `time.perf_counter()` seconds, which on Linux is the
system-wide monotonic clock, so they compare with the parent's clock.
"""

import importlib
import sys
import time

class Recorder:
    """In-memory spans of one process; ids are allocated when a span opens."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, str]] = []  # (span id, request id)
        self._next_id = 0

    def begin(self, request: str | None):
        span_id = self._next_id
        self._next_id += 1
        parent, inherited = self._stack[-1] if self._stack else (-1, "-")
        req = request if request is not None else inherited
        self._stack.append((span_id, req))
        return span_id, parent, req, time.perf_counter()

    def end(self, token, name: str) -> None:
        end = time.perf_counter()
        span_id, parent, req, start = token
        self._stack.pop()
        self.spans.append((span_id, parent, name, req, start, end, None))

    def attach(self, counts: dict) -> None:
        """Attach counts to the span closed last, outside its timed interval."""
        self.spans[-1] = self.spans[-1][:6] + (counts,)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, req, start, end, counts in self.spans:
                kv = ",".join(f"{k}={v}" for k, v in counts.items()) if counts else "-"
                out.write(f"{span_id}\t{parent}\t{name}\t{req}\t{start!r}\t{end!r}\t{kv}\n")


def _wrap(rec: Recorder, owner, attr: str, name: str, request=None, counts=None):
    """Replace owner.attr with a span-recording wrapper."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        token = rec.begin(request(args) if request else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(token, name)
        if counts:
            rec.attach(counts(args, result))
        return result

    setattr(owner, attr, wrapper)


def _wrap_generator(rec: Recorder, owner, attr: str, name: str):
    """Wrap a generator function so each `next` is one span."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            token = rec.begin(None)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.end(token, name)
            yield item

    setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    m = {n: importlib.import_module(f"qapipe.{n}") for n in (
        "cli", "classifier", "corpus", "extraction", "index",
        "questions", "retrieval", "serde", "stages",
    )}
    for stage in ("info_source_prep", "question_processing", "answer_retrieval", "evaluation"):
        label = stage.replace("_", "-")
        _wrap(rec, m["stages"], f"run_{stage}", f"pipeline.stage.{label}", request=lambda a, s=label: s)
    _wrap(rec, m["cli"], "run_pipeline", "pipeline.run")

    _wrap_generator(rec, m["corpus"], "parse_corpus", "corpus.parse")
    for caller in ("index", "retrieval", "extraction", "classifier", "questions"):
        _wrap(rec, m[caller], "tokenize", f"text.tokenize.{caller}", counts=lambda a, r: {"tokens": len(r)})
    _wrap(rec, m["index"], "build_index", "index.build")
    _wrap(rec, m["index"], "write_index", "index.write")
    _wrap(rec, m["index"], "load_index", "index.load")
    for owner in ("index", "serde", "extraction"):
        _wrap(rec, m[owner], "unescape_field", "serde.unescape")

    for owner in ("cli", "stages"):
        _wrap(rec, m[owner], "load_model", "classifier.load")
    _wrap(rec, m["questions"], "classify_question", "classifier.classify")
    _wrap(rec, m["questions"], "parse_questions", "questions.parse")
    for owner in ("cli", "questions"):
        _wrap(rec, m[owner], "analyze", "questions.analyze", request=lambda a: a[0].qid)
    _wrap(rec, m["questions"], "write_analyses", "questions.write_analyses")
    _wrap(rec, m["questions"], "load_analyses", "questions.load_analyses")

    for owner in ("cli", "extraction"):
        _wrap(rec, m[owner], "answer_question", "extraction.answer_question", request=lambda a: a[1].qid)
    _wrap(
        rec, m["extraction"], "retrieve_documents", "retrieval.retrieve",
        counts=lambda a, r: {
            "scanned": sum(a[0].document_frequency(t) for t in a[1]),
            "returned": len(r),
        },
    )
    _wrap(rec, m["extraction"], "segment_passages", "retrieval.segment", counts=lambda a, r: {"passages": len(r)})
    _wrap(rec, m["extraction"], "score_passage", "retrieval.score_passage")
    _wrap(rec, m["extraction"], "extract_candidates", "extraction.extract", counts=lambda a, r: {"candidates": len(r)})
    _wrap(
        rec, m["extraction"], "rank_candidates", "extraction.rank",
        counts=lambda a, r: {"candidates": len(a[0]), "kept": len(a[2]), "ranked": len(r)},
    )
    _wrap(rec, m["extraction"], "write_answers", "extraction.write_answers")
    _wrap(rec, m["extraction"], "load_answers", "extraction.load_answers")
    _wrap(rec, m["stages"], "evaluate_answers", "evaluation.evaluate")


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from qapipe import cli

    try:
        return cli.main(cli_args)
    finally:
        rec.write(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
