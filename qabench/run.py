"""qapipe benchmark: the four stages and a warm `ask` REPL on seeded fixtures.

Run from the repository root:

    python3 qabench/run.py --workload staged-sgml-zipf-2k --seed 1 --seconds 55 --trace 0

Every workload builds its fixture from the seed and trains the
classifier with `qapipe train-classifier`. It then repeats two kinds of
work, interleaved, until the measuring time is used. A staged pass runs
the four stages as separate `python -m qapipe.cli` processes and checks
that the artifacts are byte-identical to the first pass's. A launch
starts one `qapipe ask` stdin REPL and drives it with a single
closed-loop client that asks every distinct question of the fixture
once. Every timed unit is scaled to a reference host speed read just
before and after it (see speed.py), and each metric is the median over
the run's repeats (see end_to_end). The benchmark and the program run
on one CPU. The program runs from `src/` with PYTHONPATH; it is not
installed.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` the same work is run once
untraced and once through `trace_shim.py`, and the JSON object holds the
per-layer metrics, the tracing overhead and the unattributed share.

Exit codes: 0 success, 1 a correctness check failed (the result line
says `"correct": false` and stderr names the check), 2 the program
source is missing or the arguments are invalid.
"""

import argparse
import hashlib
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers
import speed
from procs import CheckFailed, ProcResult, Repl, program_env, run_program
from stats import MIN_BEYOND, median_each, percentile

BENCH_DIR = Path(__file__).resolve().parent
STAGE_COMMANDS = ("index", "process-questions", "answer", "evaluate")
ARTIFACTS = ("index.qix", "analysis.txt", "answers.txt")
# The first question of every REPL launch; its reply marks the end of set-up.
SETUP_QUESTION = "What is the set-up question?"
MIN_ROUNDS = 3
STAGED_SHARE = 3       # staged passes get this many times the launches' time
ASK_BLOCK = 25         # questions between two speed readings
RUN_LIMIT_S = 150.0    # stop measuring well inside the 180 s a run may take


@dataclass(frozen=True)
class Workload:
    kind: str              # "planted" or "zipf"
    docs: int
    questions: int         # distinct questions; synth's planted fixture has 20
    corpus_format: str
    accuracy_floor: float  # the run fails below this staged accuracy
    p95_min_beyond: int    # distinct questions that must lie beyond ask_p95_ms


# Why each workload exists is recorded in BENCHMARK.json. The fixtures
# are sized so that a run repeats every stage process about ten times.
# The zipf fixture has the fewest questions whose p95 still has
# MIN_BEYOND beyond it. The planted fixture has only 20, so its p95 is
# the second slowest question, with one beyond it.
WORKLOADS = {
    "staged-planted-5k": Workload("planted", 5000, 20, "record-lines", 1.0, 1),
    "staged-sgml-zipf-2k": Workload("zipf", 2000, 200, "trec-sgml", 0.8, MIN_BEYOND),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ask_p50_ms": "ms",
    "ask_p95_ms": "ms",
    "ask_qps": "1/s",
    "index_s": "s",
    "answer_s": "s",
    "pipeline_s": "s",
    "index_bytes_per_corpus_byte": "ratio",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}


def cli_argv(args, traced_spans: Path | None) -> list[str]:
    """`python -m qapipe.cli ARGS`, or the same through the tracing shim."""
    if traced_spans is None:
        return [sys.executable, "-m", "qapipe.cli", *args]
    return [sys.executable, str(BENCH_DIR / "trace_shim.py"), str(traced_spans), *args]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Run:
    """State and tallies of one benchmark run."""

    root: Path
    fixture: Path
    seed: int
    procs: list[ProcResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_digests: dict[str, str] | None = None

    @property
    def src(self) -> str:
        return str(self.root / "src")

    def program(self, args, traced_spans: Path | None = None) -> ProcResult:
        """Run one program process; a non-zero exit fails the run."""
        self.attempted += 1
        result = run_program(cli_argv(args, traced_spans), self.fixture, program_env(self.src))
        self.procs.append(result)
        if result.returncode != 0:
            self.failed += 1
            raise CheckFailed(
                f"stage process exited {result.returncode}: qapipe {' '.join(args)}: "
                f"{result.stderr.strip()[-300:]}"
            )
        return result

    def repl(self, traced_spans: Path | None = None) -> Repl:
        # Unbuffered, or replies wait in stdout's block buffer and stall the loop.
        env = program_env(self.src, {"PYTHONUNBUFFERED": "1"})
        return Repl(cli_argv(["ask", "--config", "config.qa"], traced_spans), self.fixture, env)


def build_fixture(run: Run, workload: Workload) -> tuple[list[tuple[str, str]], Path]:
    """Write the seeded fixture and train its model; return (questions, corpus path)."""
    import fixtures  # imports qapipe, which main() puts on sys.path
    from qapipe import synth

    if workload.kind == "planted":
        paths = synth.write_fixture(run.fixture, num_docs=workload.docs, seed=run.seed)
    else:
        paths = fixtures.write_zipf_fixture(
            run.fixture, run.seed, workload.docs, workload.questions, workload.corpus_format)
    run.program(["train-classifier", "--train-file", "train.txt", "--out", "model.nb"])
    questions = fixtures.read_questions(paths["questions"])
    if len(questions) != workload.questions:
        raise CheckFailed(f"fixture has {len(questions)} questions, not {workload.questions}")
    return questions, paths["corpus"]


@dataclass
class StagedPass:
    procs: dict[str, ProcResult]
    scaled_s: dict[str, float]  # each stage's wall time at the reference speed


def staged_pass(run: Run, spans_dir: Path | None = None) -> StagedPass:
    """The four stages as separate processes; checks artifact determinism."""
    procs, scaled = {}, {}
    before = speed.reading()
    for cmd in STAGE_COMMANDS:
        spans = None if spans_dir is None else spans_dir / f"{cmd}.spans"
        procs[cmd] = run.program([cmd, "--config", "config.qa"], spans)
        after = speed.reading()
        scaled[cmd] = speed.scaled(procs[cmd].wall_s, before, after)
        before = after
    digests = {name: _digest(run.fixture / name) for name in ARTIFACTS}
    if run.first_digests is None:
        run.first_digests = digests
    for name, digest in digests.items():
        if digest != run.first_digests[name]:
            raise CheckFailed(f"artifact {name} differs byte-wise between repeats of seed {run.seed}")
    return StagedPass(procs, scaled)


def judged_accuracy(run: Run, floor: float) -> tuple[float, dict[str, tuple[str, str]]]:
    """Staged accuracy via evaluation.evaluate_answers, and answers by qid."""
    from qapipe.evaluation import evaluate_answers, load_gold
    from qapipe.extraction import load_answers

    answers = load_answers(run.fixture / "answers.txt")
    report = evaluate_answers(answers, load_gold(run.fixture / "gold.txt"))
    if report.accuracy < floor:
        raise CheckFailed(f"accuracy {report.accuracy:.4f} below the workload floor {floor}")
    by_qid = {a.qid: (a.answer or "NIL", a.supporting_doc or "-") for a in answers}
    return report.accuracy, by_qid


@dataclass
class Session:
    """One REPL launch, every time scaled to the reference speed."""

    setup_s: float
    latency_ms: dict[str, float]  # by qid
    loop_s: float                 # the question blocks' wall time


class AskClient:
    """One closed-loop client: send a line, wait for the reply, send the next.

    Every REPL launch first asks SETUP_QUESTION; its reply marks the end
    of set-up (imports, index and model load) and must only be well
    formed. Then every distinct question is asked once, in a seeded
    shuffled order, and each reply must match the staged answer for the
    same question. No question is repeated within a process, so a cache
    inside the program cannot turn repeats into fast samples.

    Speed readings are taken before the launch, after the set-up reply
    and after every ASK_BLOCK questions, while the REPL waits for its
    next line; each question and block is scaled by the readings around
    its block.
    """

    def __init__(self, run: Run, questions, staged: dict[str, tuple[str, str]]):
        self.run = run
        self.order = list(questions)
        random.Random(run.seed).shuffle(self.order)
        self.staged = staged
        self.sessions: list[Session] = []

    def _exchange(self, repl: Repl, qid: str, text: str) -> list[str]:
        """One question; returns the reply's (answer, doc, score) fields."""
        run = self.run
        run.attempted += 1
        reply = repl.ask(text)
        if reply is None:
            run.failed += 1
            raise CheckFailed(f"ask REPL died or stalled on {qid}")
        fields = reply.split("\t")
        try:
            float(fields[2])
        except (IndexError, ValueError):
            fields = None
        if fields is None or len(fields) != 3:
            run.failed += 1
            raise CheckFailed(f"ask REPL reply malformed for {qid}: {reply!r}")
        return fields

    def session(self, traced_spans: Path | None = None) -> ProcResult:
        """Launch a REPL, time its set-up, then ask every question once."""
        run = self.run
        before = speed.reading()
        repl = run.repl(traced_spans)
        try:
            self._exchange(repl, "set-up", SETUP_QUESTION)
            setup_wall = time.perf_counter() - repl.start
            after = speed.reading()
            setup_s = speed.scaled(setup_wall, before, after)
            latency, loop_s = {}, 0.0
            for i in range(0, len(self.order), ASK_BLOCK):
                before, block = after, {}
                t_block = time.perf_counter()
                for qid, text in self.order[i:i + ASK_BLOCK]:
                    t0 = time.perf_counter()
                    fields = self._exchange(repl, qid, text)
                    block[qid] = (time.perf_counter() - t0) * 1e3
                    if (fields[0], fields[1]) != self.staged[qid]:
                        raise CheckFailed(f"ask reply for {qid} {fields[:2]} differs from the "
                                          f"staged answer {self.staged[qid]}")
                block_wall = time.perf_counter() - t_block
                after = speed.reading()
                loop_s += speed.scaled(block_wall, before, after)
                latency.update((q, speed.scaled(ms, before, after)) for q, ms in block.items())
            self.sessions.append(Session(setup_s, latency, loop_s))
        finally:
            code = repl.close()
            result = ProcResult(code, repl.end - repl.start, repl.maxrss_mb)
            run.procs.append(result)
        run.attempted += 1
        if code != 0:
            run.failed += 1
            raise CheckFailed(f"ask REPL exited {code}")
        return result


def end_to_end(run: Run, workload: Workload, passes: list[StagedPass], ask: AskClient,
               accuracy: float, corpus: Path) -> dict:
    """End-to-end metrics of an untraced run, from times at the reference speed.

    Staged passes and launches repeat the same work in fresh processes.
    Each stage's time is its median pass, and pipeline_s the median
    pass's total. Each question's latency is its median launch; p50
    and p95 are taken over those per-question latencies. Throughput is
    the questions of one launch over its question blocks' wall time,
    client time and gaps included, from the median launch. Set-up is
    the median launch.
    """
    per_question = list(median_each([s.latency_ms for s in ask.sessions]).values())
    p95 = percentile(per_question, 95, workload.p95_min_beyond)
    if p95 is None:
        raise CheckFailed(f"too few distinct questions for p95: {len(per_question)}")
    return {
        "setup_s": median([s.setup_s for s in ask.sessions]),
        "ask_p50_ms": median(per_question),
        "ask_p95_ms": p95,
        "ask_qps": median([len(s.latency_ms) / s.loop_s for s in ask.sessions]),
        "index_s": median([p.scaled_s["index"] for p in passes]),
        "answer_s": median([p.scaled_s["answer"] for p in passes]),
        "pipeline_s": median([sum(p.scaled_s.values()) for p in passes]),
        "index_bytes_per_corpus_byte": (run.fixture / "index.qix").stat().st_size
        / corpus.stat().st_size,
        "peak_rss_mb": max(p.maxrss_mb for p in run.procs),
        "accuracy": accuracy,
    }


def measure(run: Run, workload: Workload, seconds: float, t_start: float) -> dict:
    """Untraced run: staged passes and REPL launches until `seconds` are used.

    The host's speed drifts over seconds, so the two kinds of work are
    interleaved: the next one is a staged pass whenever staged passes
    have taken no more than STAGED_SHARE times the launches' time so
    far, else a launch. The stage processes are the longer units, so
    they get the larger share of the time. Each launch asks every
    question once. There are at least MIN_ROUNDS of each, so the
    artifact determinism check always runs and every median has
    several repeats.
    """
    questions, corpus = build_fixture(run, workload)
    deadline = t_start + min(seconds, RUN_LIMIT_S)
    passes, client, accuracy = [], None, 0.0
    spent = {"staged": 0.0, "ask": 0.0}
    last = dict(spent)

    def next_kind():
        return "staged" if spent["staged"] <= STAGED_SHARE * spent["ask"] else "ask"

    while True:
        kind = "staged" if client is None else next_kind()
        t0 = time.perf_counter()
        if kind == "staged":
            passes.append(staged_pass(run))
            if client is None:
                accuracy, answers = judged_accuracy(run, workload.accuracy_floor)
                client = AskClient(run, questions, answers)
        else:
            client.session()
        now = time.perf_counter()
        last[kind] = now - t0
        spent[kind] += last[kind]
        if (min(len(passes), len(client.sessions)) >= MIN_ROUNDS
                and now + last[next_kind()] > deadline):
            break
    metrics = end_to_end(run, workload, passes, client, accuracy, corpus)
    metrics["_rounds"] = [
        f"staged pass: index_s {p.scaled_s['index']:.3f} (wall {p.procs['index'].wall_s:.3f}) "
        f"answer_s {p.scaled_s['answer']:.3f} (wall {p.procs['answer'].wall_s:.3f}) "
        f"pipeline_s {sum(p.scaled_s.values()):.3f}"
        for p in passes
    ] + [
        f"ask launch: setup_s {c.setup_s:.3f} ask_p50_ms {median(c.latency_ms.values()):.3f}"
        for c in client.sessions
    ]
    metrics["_samples"] = (f"{len(questions)} distinct questions, "
                           f"median of {len(client.sessions)} launches")
    return metrics


def measure_traced(run: Run, workload: Workload) -> dict:
    """Untraced and traced runs of the same work, then layer metrics.

    One staged pass of each kind, and two REPL launches of each kind,
    alternated, so that the ask overhead compares per-question median
    launches; the layer metrics come from the last traced launch.
    """
    questions, _ = build_fixture(run, workload)
    untraced_pass = staged_pass(run)
    _, answers = judged_accuracy(run, workload.accuracy_floor)
    spans_dir = run.fixture / "spans"
    spans_dir.mkdir()
    traced_pass = staged_pass(run, spans_dir)
    judged_accuracy(run, workload.accuracy_floor)

    untraced_ask = AskClient(run, questions, answers)
    traced_ask = AskClient(run, questions, answers)
    for _ in range(2):
        untraced_ask.session()
        repl_proc = traced_ask.session(traced_spans=spans_dir / "ask.spans")

    staged_procs = [
        layers.TracedProcess(cmd, traced_pass.procs[cmd].wall_s,
                             layers.read_spans(spans_dir / f"{cmd}.spans"))
        for cmd in STAGE_COMMANDS
    ]
    ask_proc = layers.TracedProcess("ask", repl_proc.wall_s, layers.read_spans(spans_dir / "ask.spans"))
    out = layers.staged_metrics(staged_procs)
    out.update(layers.ask_metrics(ask_proc, workload.p95_min_beyond))
    idx = run.fixture / "index.qix"
    with idx.open(encoding="utf-8") as f:
        f.readline()
        cells = dict(c.split("=", 1) for c in f.readline().rstrip("\n").split("\t")[1:])
    out["index.bytes"] = (idx.stat().st_size, "B")
    out["index.terms"] = (int(cells["terms"]), "count")
    out["index.postings"] = (int(cells["postings"]), "count")

    def pipeline_s(p):
        return sum(p.scaled_s.values())

    def ask_p50_ms(client):
        return median(median_each([s.latency_ms for s in client.sessions]).values())

    out["trace.overhead.pipeline_s"] = (pipeline_s(traced_pass) / pipeline_s(untraced_pass), "ratio")

    out["trace.overhead.ask_p50_ms"] = (ask_p50_ms(traced_ask) / ask_p50_ms(untraced_ask), "ratio")
    out["trace.unattributed_share"] = (
        layers.unattributed_share(staged_procs + [ask_proc]), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qapipe" / "cli.py").is_file():
        print("error: run from the repository root; src/qapipe is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    speed.pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    work = root / ".qabench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(root, work / "fixture", args.seed)
    run.fixture.mkdir(parents=True)
    t_start = time.perf_counter()
    correct, metrics, notes = True, {}, {}
    try:
        if args.trace:
            metrics = measure_traced(run, workload)
        else:
            raw = measure(run, workload, args.seconds, t_start)
            for line in raw.pop("_rounds"):
                print(line)
            notes["ask_p50_ms"] = notes["ask_p95_ms"] = f"n = {raw.pop('_samples')}"
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in raw.items()}
    except CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    if not args.trace:
        # Any failure ends the run, so a run that completes reports 0.
        print(f"{'error_rate':48s} {run.failed / max(run.attempted, 1):14.6g} ratio  "
              f"failed {run.failed} of {run.attempted} operations")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
