"""Time each stage of a fixture, and the index stage's layers in process.

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
`run-all` does. In process, it times the index stage's layers: corpus
parse, `terms` over every document, `build_index`, `write_index` (to a
temporary directory) and `load_index`. Each figure is the median of N
runs (default 3).
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

STAGES = ("index", "process-questions", "answer", "evaluate")


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


def timed(fn, runs: int):
    """The median wall time of `runs` calls of fn(), and its last result."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return median(times), result


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
    from qapipe.config import load_config
    from qapipe.corpus import parse_corpus
    from qapipe.index import build_index, load_index, write_index
    from qapipe.questions import parse_questions
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

    fmt = config.param("corpus.format")
    parse_s, docs = timed(lambda: list(parse_corpus(config.corpus_path, fmt)), args.runs)
    terms_s, _ = timed(lambda: [terms(doc.text) for doc in docs], args.runs)
    build_s, index = timed(lambda: build_index(docs), args.runs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.qix"
        write_s, _ = timed(lambda: write_index(index, path), args.runs)
        load_s, _ = timed(lambda: load_index(path), args.runs)
    print(f"\n{'in process':24s} {'wall ms':>8s}")
    for name, seconds in [("corpus parse", parse_s), ("terms", terms_s),
                          ("build_index", build_s), ("write_index", write_s),
                          ("load_index", load_s)]:
        print(f"{name:24s} {seconds * 1000:8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
