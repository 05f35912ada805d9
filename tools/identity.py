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
with every question on standard input. It prints one `sha256  run/artifact`
line for each of `index.qix`, `model.nb`, `analysis.txt`, `answers.txt`,
`report.txt` and the joined replies (zipf-stage3 writes only the last
three). `run_manifest.txt` holds timestamps and is left out.

With `--record` the lines are written to `tests/identity.sha256`, which
`tests/test_identity.py` compares with a fresh build. Without it, the
tool compares them with that file, names each artifact that differs and
exits 1 if any does.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
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


def _digest_run(name: str, directory: Path, config: str, commands, artifacts) -> dict[str, str]:
    for command in commands:
        _cli(command, "--config", str(directory / config))
    replies = _cli("ask", "--config", str(directory / config), stdin=_questions(directory))
    digests = {f"{name}/{a}": hashlib.sha256((directory / a).read_bytes()).hexdigest()
               for a in artifacts}
    digests[f"{name}/replies"] = hashlib.sha256(replies.encode("utf-8")).hexdigest()
    return digests


def build_digests(work: Path) -> dict[str, str]:
    """Build every run under `work`; return its digests by `run/artifact`."""
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
    digests = _digest_run("planted", planted, "config.qa", ["run-all"], staged)
    digests |= _digest_run("zipf", zipf, "config.qa", ["run-all"], staged)
    config = (zipf / "config.qa").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in config if not line.startswith(("answers_out_path", "report_out_path"))]
    (zipf / "stage3.qa").write_text("".join(kept) + STAGE3_SETTINGS, encoding="utf-8")
    digests |= _digest_run("zipf-stage3", zipf, "stage3.qa", ["answer", "evaluate"],
                           ("stage3_answers.txt", "stage3_report.txt"))
    return digests


def format_digests(digests: dict[str, str]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in digests.items())


def read_digests(path: Path = RECORD) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"write the digests to {RECORD.relative_to(REPO)}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))
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
