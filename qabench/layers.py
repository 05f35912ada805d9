"""Per-layer metrics from the spans that `trace_shim.py` writes.

Stage totals come from one traced pass of the four stage processes.
Per-question values come from the traced `ask` REPL, one request per
question, and are reported as p50 and p95. Self time is a span's
duration minus the union of its children.
"""

from collections import defaultdict
from dataclasses import dataclass, field

from stats import covered, percentile, self_time

STAGES = ("info-source-prep", "question-processing", "answer-retrieval", "evaluation")
TOKENIZE_CALLERS = ("index", "retrieval", "extraction", "classifier", "questions")

# Direct children of an answer_question span, for the per-question breakdown.
ANSWER_PARTS = (
    "retrieval.retrieve", "retrieval.segment", "retrieval.score_passage",
    "extraction.extract", "extraction.rank",
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    request: str
    start: float
    end: float
    counts: dict[str, int]
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self_time(self.start, self.end, [(c.start, c.end) for c in self.children])


def read_spans(path) -> list[Span]:
    spans: dict[int, Span] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            sid, parent, name, req, start, end, kv = line.rstrip("\n").split("\t")
            counts = {}
            if kv != "-":
                for cell in kv.split(","):
                    k, _, v = cell.partition("=")
                    counts[k] = int(v)
            spans[int(sid)] = Span(int(sid), int(parent), name, req, float(start), float(end), counts)
    for span in spans.values():
        if span.parent in spans:
            spans[span.parent].children.append(span)
    return list(spans.values())


@dataclass(frozen=True)
class TracedProcess:
    role: str          # stage command name, or "ask"
    wall_s: float
    spans: list[Span]


def _total(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _count(spans, name: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _descendants(span: Span):
    stack = list(span.children)
    while stack:
        s = stack.pop()
        yield s
        stack.extend(s.children)


def _layer_covered(spans: list[Span]) -> float:
    """Time covered by at least one layer span (orchestration excluded)."""
    layer = [(s.start, s.end) for s in spans if not s.name.startswith("pipeline.")]
    if not layer:
        return 0.0
    return covered(layer, min(a for a, _ in layer), max(b for _, b in layer))


def staged_metrics(procs: list[TracedProcess]) -> dict[str, tuple[float, str]]:
    """Layer totals over one traced pass of the four stage processes."""
    spans = [s for p in procs for s in p.spans]
    by_role = {p.role: p for p in procs}
    out: dict[str, tuple[float, str]] = {}
    out["corpus.parse_s"] = (_total(spans, "corpus.parse"), "s")
    for caller in TOKENIZE_CALLERS:
        name = f"text.tokenize.{caller}"
        out[f"text.tokenize_s.{caller}"] = (_total(spans, name), "s")
        out[f"text.tokens.{caller}"] = (_count(spans, name, "tokens"), "count")
    out["index.build_s"] = (sum(s.self_time for s in spans if s.name == "index.build"), "s")
    out["index.write_s"] = (_total(spans, "index.write"), "s")
    load = sum(s.duration for s in by_role["answer"].spans if s.name == "index.load")
    out["index.load_s"] = (load, "s")
    out["index.load_share_of_answer"] = (load / by_role["answer"].wall_s, "ratio")
    out["serde.unescape_s"] = (_total(spans, "serde.unescape"), "s")
    out["serde.unescape_calls"] = (sum(1 for s in spans if s.name == "serde.unescape"), "count")
    out["classifier.load_s"] = (_total(spans, "classifier.load"), "s")
    out["classifier.classify_s"] = (_total(spans, "classifier.classify"), "s")
    out["questions.analyze_s"] = (
        sum(s.self_time for s in spans if s.name == "questions.analyze"), "s")
    for name in ("questions.write_analyses", "questions.load_analyses",
                 "extraction.write_answers", "extraction.load_answers", "evaluation.evaluate"):
        out[f"{name}_s"] = (_total(spans, name), "s")
    for stage in STAGES:
        out[f"pipeline.stage_s.{stage}"] = (_total(spans, f"pipeline.stage.{stage}"), "s")
    out["pipeline.process_overhead_s"] = (
        sum(p.wall_s - _total(p.spans, "pipeline.run") for p in procs), "s")
    return out


def _per_question(ask: TracedProcess) -> list[dict[str, float]]:
    """One row of values per question of the REPL, the set-up question excluded."""
    roots = defaultdict(list)
    for s in ask.spans:
        if s.name in ("questions.analyze", "extraction.answer_question") and s.parent == -1:
            roots[s.request].append(s)
    order = sorted(roots, key=lambda r: min(s.start for s in roots[r]))[1:]
    rows = []
    for req in order:
        row: dict[str, float] = defaultdict(float)
        for root in roots[req]:
            tree = [root, *_descendants(root)]
            for s in tree:
                if s.name.startswith("text.tokenize."):
                    row["tokenize_calls"] += 1
                    row["tokenize_ms"] += s.duration * 1e3
                elif s.name == "classifier.classify":
                    row["classify_ms"] += s.duration * 1e3
                elif s.name == "questions.analyze":
                    row["analyze_self_ms"] += s.self_time * 1e3
                elif s.name == "extraction.answer_question":
                    row["answer_question_ms"] += s.duration * 1e3
                    row["answer_question_self_ms"] += s.self_time * 1e3
                    for part in s.children:
                        if part.name in ANSWER_PARTS:
                            row[f"part:{part.name}"] += part.duration * 1e3
                elif s.name == "retrieval.retrieve":
                    row["retrieve_ms"] += s.duration * 1e3
                    row["postings_scanned"] += s.counts.get("scanned", 0)
                    row["docs_returned"] += s.counts.get("returned", 0)
                elif s.name == "retrieval.segment":
                    row["segment_ms"] += s.duration * 1e3
                    row["passages_segmented"] += s.counts.get("passages", 0)
                elif s.name == "retrieval.score_passage":
                    row["score_passage_ms"] += s.duration * 1e3
                    row["score_passage_calls"] += 1
                elif s.name == "extraction.extract":
                    row["extract_ms"] += s.duration * 1e3
                elif s.name == "extraction.rank":
                    row["rank_ms"] += s.duration * 1e3
                    row["candidates"] += s.counts.get("candidates", 0)
                    row["kept"] += s.counts.get("kept", 0)
                    row["ranked"] += s.counts.get("ranked", 0)
        rows.append(row)
    return rows


# (row key, metric name, unit) reported as p50 and p95 over questions.
PER_QUESTION = (
    ("tokenize_calls", "text.tokenize_calls_per_question", "count"),
    ("tokenize_ms", "text.tokenize_ms_per_question", "ms"),
    ("classify_ms", "classifier.classify_ms", "ms"),
    ("analyze_self_ms", "questions.analyze_self_ms", "ms"),
    ("answer_question_ms", "extraction.answer_question_ms", "ms"),
    ("answer_question_self_ms", "extraction.answer_question_self_ms", "ms"),
    ("retrieve_ms", "retrieval.retrieve_ms", "ms"),
    ("postings_scanned", "retrieval.postings_scanned", "count"),
    ("segment_ms", "retrieval.segment_ms", "ms"),
    ("passages_segmented", "retrieval.passages_segmented", "count"),
    ("score_passage_ms", "retrieval.score_passage_ms", "ms"),
    ("score_passage_calls", "retrieval.score_passage_calls", "count"),
    ("extract_ms", "extraction.extract_ms", "ms"),
    ("candidates", "extraction.candidates", "count"),
    ("rank_ms", "extraction.rank_ms", "ms"),
    ("ranked", "extraction.ranked", "count"),
)


def ask_metrics(ask: TracedProcess, p95_min_beyond: int) -> dict[str, tuple[float, str]]:
    """Per-question p50/p95 and ratios over the traced REPL's questions."""
    rows = _per_question(ask)
    out: dict[str, tuple[float, str]] = {}
    for key, name, unit in PER_QUESTION:
        values = [r.get(key, 0.0) for r in rows]
        for p in (50, 95):
            v = percentile(values, p) if p == 50 else percentile(values, p, p95_min_beyond)
            if v is None:
                raise ValueError(f"too few traced questions for p{p} of {name}: {len(values)}")
            out[f"{name}.p{p}"] = (v, unit)

    def total(key):
        return sum(r.get(key, 0.0) for r in rows)

    out["retrieval.postings_per_doc_returned"] = (
        total("postings_scanned") / total("docs_returned"), "ratio")
    out["retrieval.passages_kept_ratio"] = (total("kept") / total("passages_segmented"), "ratio")
    out["extraction.dedup_ratio"] = (total("ranked") / total("candidates"), "ratio")
    answer_total = total("answer_question_ms")
    for part in ANSWER_PARTS:
        out[f"ask.share.{part}"] = (total(f"part:{part}") / answer_total, "ratio")
    out["ask.share.answer_question_self"] = (total("answer_question_self_ms") / answer_total, "ratio")
    return out


def unattributed_share(procs: list[TracedProcess]) -> float:
    """Share of traced process wall time that no layer span covers."""
    wall = sum(p.wall_s for p in procs)
    return (wall - sum(_layer_covered(p.spans) for p in procs)) / wall
