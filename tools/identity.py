"""Digest every seed-1 artifact and `ask` reply of the benchmark's fixtures.

    python tools/identity.py [--record]

It builds three runs in a temporary directory:

planted
    the seed-1 planted fixture of 5,000 record-lines documents
    (`qapipe.synth.write_fixture`);
zipf
    the seed-1 zipf fixture of 2,000 trec-sgml documents and 200
    questions (`qabench/fixtures.py`, imported and not changed);
zipf-stage3
    the zipf fixture answered and judged again under the non-default
    stage-3 settings that CI's stage-3 step sets.

Each run goes through `qapipe.cli.main` in this process: `train-classifier`,
then `run-all` (or `answer` and `evaluate` for zipf-stage3), then `ask`
with every question on standard input. Last it loads the run's index and
analyses and writes `retrieval`: for each question, each document that
`retrieve_documents` returns under the run's `retrieval.k`, as
`qid<TAB>doc id<TAB>repr(score)`. No stage artifact holds a BM25 score,
so this one pins the scores themselves. It prints one
`sha256  run/artifact` line for each of `index.qix`, `model.nb`,
`analysis.txt`, `answers.txt`, `report.txt`, the joined replies and
`retrieval` (zipf-stage3 writes only the last four). `run_manifest.txt`
holds timestamps and is left out.

With `--record` the lines are written to `tests/identity.sha256`, which
`tests/test_identity.py` compares with a fresh build. Without it, the
tool compares them with that file, names each artifact that differs and
exits 1 if any does.

    python tools/identity.py --against OTHER_SRC

compares two trees instead: this repository's `src` and OTHER_SRC,
another checkout's `src`. Both trees are the `qapipe` package, so each
builds the three runs in its own `python` process. For each artifact
that differs, the tool prints the run and the artifact, the first line
that differs with its number, and that line of each tree, truncated. It
exits 1 if any artifact differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RECORD = REPO / "tests" / "identity.sha256"
SEED = 1
STAGE3_SETTINGS = (
    "answers_out_path = stage3_answers.txt\n"
    "report_out_path = stage3_report.txt\n"
    "retrieval.k = 7\n"
    "retrieval.max_passages = 3\n"
    "weights.coverage = -1.5\n"
    "weights.proximity = 0.5\n"
)


def _cli(*argv: str, stdin: str = "") -> str:
    """Run one qapipe command in this process; return what it printed."""
    from qapipe import cli

    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(list(argv))
    finally:
        sys.stdin = saved
    if status != 0:
        raise RuntimeError(f"qapipe {' '.join(argv)} exited {status}")
    return out.getvalue()


def _questions(directory: Path) -> str:
    """The question text of each qline, one per line, as `ask` reads them."""
    lines = (directory / "questions.txt").read_text(encoding="utf-8").splitlines()
    return "".join(line.partition("\t")[2] + "\n" for line in lines)


def _retrieval(config_path: Path) -> str:
    """`qid<TAB>doc id<TAB>repr(score)` of each document that `retrieve_documents`
    returns for each analysed question, under the config's `retrieval.k`."""
    from qapipe.config import AnswerSettings, load_config
    from qapipe.index import load_index
    from qapipe.questions import load_analyses
    from qapipe.retrieval import retrieve_documents

    config = load_config(config_path)
    index = load_index(config.index_path)
    k = AnswerSettings.from_config(config).k
    return "".join(
        f"{analysis.qid}\t{doc.doc_id}\t{doc.retrieval_score!r}\n"
        for analysis in load_analyses(config.param("questions.analysis_out"))
        for doc in retrieve_documents(index, analysis.query_terms, k)
    )


def _run(name: str, directory: Path, config: str, commands, artifacts) -> dict[str, Path]:
    """Run `commands` and `ask`; return the path of each artifact by `run/artifact`.
    The replies and the retrieval are written to `NAME.replies` and
    `NAME.retrieval` in `directory`."""
    for command in commands:
        _cli(command, "--config", str(directory / config))
    replies = directory / f"{name}.replies"
    replies.write_bytes(
        _cli("ask", "--config", str(directory / config), stdin=_questions(directory)).encode("utf-8")
    )
    retrieval = directory / f"{name}.retrieval"
    retrieval.write_bytes(_retrieval(directory / config).encode("utf-8"))
    paths = {f"{name}/{a}": directory / a for a in artifacts}
    paths[f"{name}/replies"] = replies
    paths[f"{name}/retrieval"] = retrieval
    return paths


def build_runs(work: Path) -> dict[str, Path]:
    """Build every run under `work`; return each artifact's path by `run/artifact`."""
    sys.path.insert(0, str(REPO / "qabench"))
    try:
        import fixtures
    finally:
        sys.path.remove(str(REPO / "qabench"))
    from qapipe import synth

    staged = ("index.qix", "model.nb", "analysis.txt", "answers.txt", "report.txt")
    planted, zipf = work / "planted", work / "zipf"
    synth.write_fixture(planted, num_docs=5000, seed=SEED)
    fixtures.write_zipf_fixture(zipf, SEED, 2000, 200, "trec-sgml")
    for directory in (planted, zipf):
        _cli("train-classifier", "--train-file", str(directory / "train.txt"),
             "--out", str(directory / "model.nb"))
    paths = _run("planted", planted, "config.qa", ["run-all"], staged)
    paths |= _run("zipf", zipf, "config.qa", ["run-all"], staged)
    config = (zipf / "config.qa").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in config if not line.startswith(("answers_out_path", "report_out_path"))]
    (zipf / "stage3.qa").write_text("".join(kept) + STAGE3_SETTINGS, encoding="utf-8")
    paths |= _run("zipf-stage3", zipf, "stage3.qa", ["answer", "evaluate"],
                  ("stage3_answers.txt", "stage3_report.txt"))
    return paths


def build_digests(work: Path) -> dict[str, str]:
    """Build every run under `work`; return its digests by `run/artifact`."""
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in build_runs(work).items()}


def first_difference(a: Path, b: Path) -> tuple[int, str, str] | None:
    """(line number, line of `a`, line of `b`) of the first line that differs,
    or None when the files are equal. A file that ends first reads "" there."""
    pairs = zip_longest(a.read_bytes().splitlines(keepends=True),
                        b.read_bytes().splitlines(keepends=True), fillvalue=b"")
    for number, (line_a, line_b) in enumerate(pairs, start=1):
        if line_a != line_b:
            return number, line_a.decode("utf-8", "replace"), line_b.decode("utf-8", "replace")
    return None


def _shorten(line: str, width: int = 100) -> str:
    text = repr(line)
    return text if len(text) <= width else text[:width - 3] + "..."


def _build_tree(src: Path, work: Path) -> dict[str, Path]:
    """Build the runs of the `qapipe` in `src` under `work` in a child process."""
    out = subprocess.run(
        [sys.executable, __file__, "--src", str(src), "--build-into", str(work)],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return {name: Path(path) for name, path in json.loads(out).items()}


def compare_trees(src_a: Path, src_b: Path) -> int:
    """Print each artifact that differs between the two trees; 1 if any does."""
    with tempfile.TemporaryDirectory() as work:
        runs_a = _build_tree(src_a, Path(work) / "a")
        runs_b = _build_tree(src_b, Path(work) / "b")
        differ = 0
        for name, path_a in runs_a.items():
            found = first_difference(path_a, runs_b[name])
            if found is not None:
                number, line_a, line_b = found
                print(f"{name}: line {number} differs\n"
                      f"  {src_a}: {_shorten(line_a)}\n  {src_b}: {_shorten(line_b)}")
                differ += 1
    print(f"{differ} of {len(runs_a)} artifacts differ")
    return 1 if differ else 0


def format_digests(digests: dict[str, str]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in digests.items())


def read_digests(path: Path = RECORD) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"write the digests to {RECORD.relative_to(REPO)}")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="compare the artifacts of this tree with those of OTHER_SRC")
    # The child process of --against: build one tree's runs, print their paths.
    parser.add_argument("--src", type=Path, default=REPO / "src", help=argparse.SUPPRESS)
    parser.add_argument("--build-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.against:
        return compare_trees(REPO / "src", args.against.resolve())
    args.src = args.src.resolve()
    sys.path.insert(0, str(args.src))
    if args.build_into:
        import qapipe

        if Path(qapipe.__file__).parent.parent != args.src:
            raise RuntimeError(f"imported {qapipe.__file__}, not the qapipe in {args.src}")
        args.build_into.mkdir(parents=True)
        paths = build_runs(args.build_into)
        print(json.dumps({name: str(path) for name, path in paths.items()}))
        return 0
    with tempfile.TemporaryDirectory() as work:
        digests = build_digests(Path(work))
    print(format_digests(digests), end="")
    if args.record:
        RECORD.write_text(format_digests(digests), encoding="utf-8")
        return 0
    recorded = read_digests()
    differ = [name for name in recorded.keys() | digests.keys()
              if recorded.get(name) != digests.get(name)]
    for name in sorted(differ):
        print(f"differs from {RECORD.relative_to(REPO)}: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
