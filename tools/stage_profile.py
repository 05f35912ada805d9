"""Time each stage of a fixture, and the index and answer stages' layers in process.

    python tools/stage_profile.py FIXTURE_DIR [SRC] [--runs N]

FIXTURE_DIR holds a `config.qa` whose classifier model exists (as after
`python -m qapipe.synth DIR` and `qapipe run-all --config config.qa`).
SRC is the source directory that `qapipe` is imported from; it defaults
to this repository's `src`, and pointing it at another checkout's `src`
measures that one on the same fixture.

The tool pins itself, and so every child, to one CPU. It then runs the
four stages and a one-question `ask` (the fixture's first question),
each as its own `python -m qapipe.cli` process in FIXTURE_DIR, and
prints each one's wall time and the peak RSS that `os.wait4` reports
for it. The stages write their artifacts into FIXTURE_DIR as
`run-all` does.

Next it prints the start-up floor that every such process pays: the
wall time of `python -c pass` and of `python -c "import qapipe.cli"`.
For each of those commands it then runs one more process under
`python -X importtime` and prints the qapipe modules that the process
imports (those that a module imports on first use of a name included),
with the ms of their imports: the cumulative time of each qapipe import
that no other qapipe import encloses, summed. (`qapipe.cli` itself runs
as `__main__`, so it is not among them.) Then it splits the
set-up of that `ask` into its steps, timed inside a fresh `python`
process per run: importing `qapipe.cli`, `load_config` with the stage-3
settings it names, `load_index`, `load_model`, and the first answer
(analysis included), each step with the imports it makes first. A
tracing shim cannot see import time; this split can.

In process, it times the index stage's layers: corpus parse, `terms`
over every document, `build_index` on the parse stream as the index
stage calls it (so that row includes the parse), `write_index` (to a
temporary directory) and `load_index`. For each it also prints, from one more
call under tracemalloc, the traced peak and the MB the call's result
keeps, and last the ratio of the two for `load_index`. Beside the
`build_index(parse_corpus)` row it prints the build's own peak, which
the parse's can hide (`traced_consumer`): the parse holds the corpus
text until its last document, and the build may hold the most after
it. It splits the written index's bytes by section: the doc lines (the
document records), the term lines (the posting cells, each line with
its term) and the framing (the header, stats and digest lines). Each
row gives the bytes, the share of the file and the bytes per corpus
byte; the total's last
figure is the benchmark's `index_bytes_per_corpus_byte`. Then it answers
the fixture's analyses (the `process-questions` stage's `analysis.txt`)
twice on one freshly loaded index, cold and then warm, and prints the
ms per question of `answer_question` and of its layers: retrieve,
segment, score (the passage-score kernel, `score_term_tuples`, which
scores every passage of the retrieved documents in one call per
question and DESC's sentences in one call per passage), extract and
rank, each its self time, and the rest of `answer_question` as
"other". Each layer is timed by a wrapper on the name `answer_question`
calls, which adds two clock reads per call. Each figure is the median
of N runs (default 3). After the passes it prints how many documents
answering decoded, against the index's doc count: a document is decoded
only when it is first segmented, so that is the number of documents
whose passages the index keeps. Then it prints the median and the
maximum number of passages scored per question, those of the
documents the question retrieves; answering sorts them by score to
keep the best. Then it prints how many query terms answering decoded,
those in the index's BM25 memo that the index holds, and how many of
them hold an explicit tf, a cell with `:TF`: the traffic that
`InvertedIndex.postings`' one decode loop serves.

Last, it answers the analyses cold and then warm once more, on another
freshly loaded index with tracemalloc on, and prints each per-index
memo's entries and the MB that clearing it frees, cleared in this
order: the passages' extraction hits, found on the features that the
documents' passages memo holds; that memo, each document's passages
with their features, whose row also counts the passages; and the BM25
memo, each term's idf and its dict of doc id to impact, whose row also
counts the impacts.
"""

import argparse
import gc
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from statistics import median

STAGES = ("index", "process-questions", "answer", "evaluate")
ANSWER_LAYERS = {"retrieve": "retrieve_documents", "segment": "segment_passages",
                 "score": "score_term_tuples", "extract": "extract_candidates",
                 "rank": "rank_candidates"}


def run_pinned(argv, cwd, env) -> tuple[float, float]:
    """Run one process to completion; return (wall s, ru_maxrss MB)."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise SystemExit(f"{' '.join(argv[2:])} exited {proc.returncode}: "
                             f"{err.read().decode('utf-8', 'replace').strip()[-300:]}")
    return wall, usage.ru_maxrss / 1024.0  # Linux reports KiB


# Run in a fresh interpreter in the fixture's directory, as `qapipe ask`
# would run; prints the seconds of each ASK_SETUP step.
ASK_SETUP_PROBE = """
import sys, time
t = [time.perf_counter()]
from qapipe import cli
t.append(time.perf_counter())
config = cli.load_config("config.qa")
settings = cli.AnswerSettings.from_config(config)
t.append(time.perf_counter())
from qapipe.index import load_index
index = load_index(config.index_path)
t.append(time.perf_counter())
from qapipe.classifier import load_model
model = load_model(config.classifier_model_path)
t.append(time.perf_counter())
from qapipe.extraction import answer_question
from qapipe.questions import Question, analyze
answer_question(index, analyze(Question("q1", sys.argv[1]), model), settings)
t.append(time.perf_counter())
print(*(b - a for a, b in zip(t, t[1:])))
"""
ASK_SETUP = ("import qapipe.cli", "load_config", "load_index", "load_model", "first answer")


def qapipe_imports(cli_args, cwd, env) -> tuple[list[str], float]:
    """The qapipe modules that one `python -m qapipe.cli` process imports,
    and the ms of their imports: the cumulative `-X importtime` time of
    each qapipe import that no other qapipe import encloses, summed."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "qapipe.cli", *cli_args],
                            cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if result.returncode:
        raise SystemExit(f"{' '.join(cli_args)} exited {result.returncode}")
    modules, total_us = [], 0
    # `-X importtime` prints each import after the ones it encloses, which
    # are indented further; read backwards, an import precedes them.
    enclosing: list[tuple[int, bool]] = []  # (indent, is qapipe) of the open imports
    for line in reversed(result.stderr.splitlines()):
        fields = line.split("|")
        if not line.startswith("import time:") or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        indent = len(fields[2]) - len(fields[2].lstrip())
        while enclosing and enclosing[-1][0] >= indent:
            enclosing.pop()
        is_qapipe = name.split(".")[0] == "qapipe"
        if is_qapipe:
            modules.append(name)
            if not any(q for _, q in enclosing):
                total_us += int(fields[1])
        enclosing.append((indent, is_qapipe))
    return sorted(modules), total_us / 1000


def ask_setup(fixture: Path, env, question: str, runs: int) -> list[float]:
    """The median seconds of each ASK_SETUP step over `runs` fresh processes."""
    steps = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", ASK_SETUP_PROBE, question], cwd=fixture,
                             env=env, capture_output=True, text=True, check=True).stdout
        steps.append([float(s) for s in out.split()])
    return [median(run[i] for run in steps) for i in range(len(ASK_SETUP))]


def timed(fn, runs: int):
    """The median wall time of `runs` calls of fn(), and its last result."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return median(times), result


def traced(fn) -> tuple[float, float]:
    """The traced peak MB of one call of fn(), and the MB its result keeps,
    both counting only what the call allocates (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()  # held until the reading, so that it counts as kept
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20, kept / 2**20


def traced_consumer(consume, items) -> float:
    """The traced peak MB of what consume(items) holds itself, where `items`
    is a stream whose producer holds its state until the stream ends, as
    the corpus parse holds the corpus text: the larger of the peak while
    the stream runs, less what was traced when it yielded its first item,
    and the peak after it ends, when the producer holds nothing."""
    at_first = None
    streaming_peak = 0

    def watched():
        nonlocal at_first, streaming_peak
        for item in items:
            if at_first is None:
                at_first = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            yield item
        streaming_peak = tracemalloc.get_traced_memory()[1] - (at_first or 0)
        tracemalloc.reset_peak()

    gc.collect()
    tracemalloc.start()
    try:
        result = consume(watched())  # held until the reading, as in traced()
        peak = max(streaming_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2**20


def index_sections(path: Path) -> dict[str, int]:
    """The bytes of each section of an index file, whole lines each."""
    sizes = dict.fromkeys(("doc records", "term cells", "framing"), 0)
    with open(path, "rb") as f:
        for line in f:
            section = ("doc records" if line.startswith(b"doc\t")
                       else "term cells" if line.startswith(b"term\t") else "framing")
            sizes[section] += len(line)
    return sizes


def time_layers(module, totals: dict[str, float]) -> None:
    """Wrap each ANSWER_LAYERS function of `module` to add its self time,
    its time less that of the wrapped calls it makes, to totals[layer]."""
    open_calls: list[float] = []  # per open call, the time of the calls it made

    def wrap(layer, fn):
        def timed_call(*args, **kwargs):
            open_calls.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                totals[layer] += elapsed - open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed
        return timed_call

    for layer, name in ANSWER_LAYERS.items():
        setattr(module, name, wrap(layer, getattr(module, name)))


def answer_passes(extraction, index, analyses, settings) -> list[dict[str, float]]:
    """ms per question of each layer, of the rest ("other") and of
    answer_question, over a cold and then a warm pass on `index`."""
    totals = dict.fromkeys(ANSWER_LAYERS, 0.0)
    originals = {name: getattr(extraction, name) for name in ANSWER_LAYERS.values()}
    time_layers(extraction, totals)
    passes = []
    try:
        for _ in ("cold", "warm"):
            totals.update(dict.fromkeys(ANSWER_LAYERS, 0.0))
            t0 = time.perf_counter()
            for analysis in analyses:
                extraction.answer_question(index, analysis, settings)
            wall = time.perf_counter() - t0
            seconds = {**totals, "other": wall - sum(totals.values()), "answer_question": wall}
            passes.append({k: v * 1000 / len(analyses) for k, v in seconds.items()})
    finally:
        for name, fn in originals.items():
            setattr(extraction, name, fn)
    return passes


def memo_sizes(extraction, index, analyses, settings) -> list[tuple[str, int, float]]:
    """(memo, entries, MB freed by clearing it) for each per-index memo after
    a cold and a warm pass on `index`, measured with tracemalloc."""
    tracemalloc.start()
    try:
        for _ in ("cold", "warm"):
            for analysis in analyses:
                extraction.answer_question(index, analysis, settings)

        def features():
            return (f for _, doc_features in index.doc_passages.values() for f in doc_features)

        with_hits = sum(f.hits is not None for f in features())

        def clear(name, entries, clear_memo):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            clear_memo()
            gc.collect()
            return name, entries, (before - tracemalloc.get_traced_memory()[0]) / 2**20

        def drop_hits():
            for f in features():
                f.hits = None

        passages = sum(len(doc_passages) for doc_passages, _ in index.doc_passages.values())
        impacts = sum(len(term_impacts) for _, term_impacts in index.bm25_terms.values())
        return [
            clear("passage hits", with_hits, drop_hits),
            clear(f"doc passages + features ({passages} passages)", len(index.doc_passages),
                  index.doc_passages.clear),
            clear(f"bm25 terms: idf + impacts ({impacts} impacts)", len(index.bm25_terms),
                  index.bm25_terms.clear),
        ]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixture", type=Path)
    parser.add_argument("src", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    fixture, src = args.fixture.resolve(), args.src.resolve()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if not (src / "qapipe" / "cli.py").is_file():
        parser.error(f"{src} holds no qapipe package")
    sys.path.insert(0, str(src))
    from qapipe import extraction
    from qapipe.config import load_config
    from qapipe.corpus import parse_corpus
    from qapipe.config import AnswerSettings
    from qapipe.index import build_index, load_index, write_index
    from qapipe.questions import load_analyses, parse_questions
    from qapipe.retrieval import retrieve_documents
    from qapipe.text import terms

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.chdir(fixture)
    config = load_config("config.qa")
    question = parse_questions(config.questions_path, config.param("questions.format"))[0].text

    env = dict(os.environ, PYTHONPATH=str(src))
    commands = [(cmd, [cmd, "--config", "config.qa"]) for cmd in STAGES]
    commands.append(("ask (1 question)", ["ask", "--config", "config.qa", question]))
    print(f"{'process':24s} {'wall s':>8s} {'maxrss MB':>10s}")
    for name, cli_args in commands:
        runs = [run_pinned([sys.executable, "-m", "qapipe.cli", *cli_args], fixture, env)
                for _ in range(args.runs)]
        print(f"{name:24s} {median(w for w, _ in runs):8.3f} "
              f"{median(r for _, r in runs):10.1f}")

    print(f"\n{'start-up floor':24s} {'wall ms':>8s}")
    for name, code in [("python -c pass", "pass"), ("import qapipe.cli", "import qapipe.cli")]:
        runs = [run_pinned([sys.executable, "-c", code], fixture, env) for _ in range(args.runs)]
        print(f"{name:24s} {median(w for w, _ in runs) * 1000:8.1f}")
    print(f"\n{'qapipe imports, 1 run':24s} {'ms':>8s}  modules")
    for name, cli_args in commands:
        modules, ms = qapipe_imports(cli_args, fixture, env)
        short = " ".join(m.removeprefix("qapipe.") for m in modules)
        print(f"{name:24s} {ms:8.1f}  {len(modules)}: {short}")
    print(f"\n{'ask set-up, in process':24s} {'wall ms':>8s}")
    for name, seconds in zip(ASK_SETUP, ask_setup(fixture, env, question, args.runs)):
        print(f"{name:24s} {seconds * 1000:8.1f}")

    fmt = config.param("corpus.format")
    docs = list(parse_corpus(config.corpus_path, fmt))
    index = build_index(parse_corpus(config.corpus_path, fmt))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.qix"
        write_index(index, path)
        steps = [("corpus parse", lambda: list(parse_corpus(config.corpus_path, fmt))),
                 ("terms", lambda: [terms(doc.text) for doc in docs]),
                 ("build_index(parse_corpus)",
                  lambda: build_index(parse_corpus(config.corpus_path, fmt))),
                 ("write_index", lambda: write_index(index, path)),
                 ("load_index", lambda: load_index(path))]
        print(f"\n{'in process':26s} {'wall ms':>8s} {'peak MB':>8s} {'kept MB':>8s}")
        memory = {}
        for name, fn in steps:
            seconds, _ = timed(fn, args.runs)
            peak, kept = memory[name] = traced(fn)
            alone = ""
            if name == "build_index(parse_corpus)":
                own = traced_consumer(build_index, parse_corpus(config.corpus_path, fmt))
                alone = f"  build's own peak {own:.2f}"
            print(f"{name:26s} {seconds * 1000:8.1f} {peak:8.2f} {kept:8.2f}{alone}")
        sections = index_sections(path)
    peak, kept = memory["load_index"]
    print(f"{'load_index peak / kept':26s} {peak / kept:8.2f}")

    corpus_bytes = Path(config.corpus_path).stat().st_size
    total = sum(sections.values())
    print(f"\n{'index bytes':26s} {'bytes':>10s} {'share':>6s} {'/corpus B':>9s}")
    for name, size in [*sections.items(), ("total", total)]:
        print(f"{name:26s} {size:10d} {size / total:6.3f} {size / corpus_bytes:9.3f}")

    analyses = load_analyses(config.param("questions.analysis_out"))
    settings = AnswerSettings.from_config(config)
    runs = []
    for _ in range(args.runs):
        index = load_index(config.index_path)
        runs.append(answer_passes(extraction, index, analyses, settings))
    print(f"\n{f'answer, ms per question ({len(analyses)})':32s} {'cold':>8s} {'warm':>8s}")
    for name in runs[0][0]:
        cold, warm = (median(run[i][name] for run in runs) for i in (0, 1))
        print(f"{name:32s} {cold:8.3f} {warm:8.3f}")
    print(f"{'documents decoded':32s} {len(index.doc_passages):8d} of {index.doc_count}")
    scored = [sum(len(index.doc_passages[d.doc_id][0]) for d in
                  retrieve_documents(index, analysis.query_terms, settings.k))
              for analysis in analyses]
    print(f"{'passages scored, median / max':32s} {median(scored):8g} {max(scored):8d}")
    decoded = [index.cells[term] for term in index.bm25_terms if term in index.cells]
    explicit = sum(":" in cells for cells in decoded)
    print(f"{'query terms decoded, explicit tf':32s} {len(decoded):8d} {explicit:8d}")

    sizes = memo_sizes(extraction, load_index(config.index_path), analyses, settings)
    print(f"\n{'memo after cold + warm':40s} {'entries':>8s} {'MB':>8s}")
    for name, entries, mb in sizes:
        print(f"{name:40s} {entries:8d} {mb:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
