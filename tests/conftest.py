import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))


TREC_SGML_SAMPLE = """<DOC>
<DOCNO> DOC-A </DOCNO>
<HEADLINE> Treaty signed in Rome </HEADLINE>
<TEXT>
<P>
The treaty was signed on 12 January 2004 in Rome.
</P>
<P>
Delegates praised the accord as historic.
</P>
</TEXT>
</DOC>
<DOC>
<DOCNO> DOC-B </DOCNO>
<TEXT>
Gordon Moore and Robert Noyce founded Intel. The company grew quickly.
</TEXT>
</DOC>
"""


@pytest.fixture
def sgml_corpus(tmp_path):
    path = tmp_path / "corpus.sgml"
    path.write_text(TREC_SGML_SAMPLE, encoding="utf-8")
    return path


def make_record_corpus(path: Path, docs: dict[str, str]) -> Path:
    lines = [f"{doc_id}\t\t{text}" for doc_id, text in docs.items()]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def framed(text) -> bytes:
    """A stage file's header and records (str or bytes, each line ending in
    "\\n") with the trailing digest line serde.write_records adds."""
    body = text.encode("utf-8") if isinstance(text, str) else text
    return body + b"sha256\t" + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"


def with_stage_params(config, stage_params):
    """`config` built anew with `stage_params` in place of its own, so the
    new parameters are parsed and checked as in any built config."""
    from qapipe.config import OPTIONAL_PATH_KEYS, REQUIRED_PATH_KEYS, PipelineConfig

    paths = {key: getattr(config, key) for key in REQUIRED_PATH_KEYS + OPTIONAL_PATH_KEYS}
    return PipelineConfig(**paths, stage_params=stage_params)


def rewrite_as_index_version_3(path: Path) -> None:
    """Rewrite a QANUSIDX 4 file in the version-3 layout, whose cells were
    `ORD:TF`: the absolute ordinal and the tf, written also when it is 1."""
    lines = path.read_bytes().split(b"\n")[:-2]  # without the digest line
    lines[0] = b"QANUSIDX 3"
    for i, line in enumerate(lines):
        if line.startswith(b"term\t"):
            kind, term, *cells = line.split(b"\t")
            ordinal, absolute = 0, []
            for cell in cells:
                gap, _, tf = cell.partition(b":")
                ordinal += int(gap)
                absolute.append(b"%d:%s" % (ordinal, tf or b"1"))
            lines[i] = b"\t".join([kind, term, *absolute])
    path.write_bytes(framed(b"\n".join(lines) + b"\n"))


def rewrite_as_index_version_2(path: Path) -> None:
    """Rewrite a QANUSIDX 4 file in the version-2 layout: version 3's cells,
    and each document's headline, here absent (\\N), between its length and
    spans."""
    rewrite_as_index_version_3(path)
    lines = path.read_bytes().split(b"\n")[:-2]  # without the digest line
    lines[0] = b"QANUSIDX 2"
    for i, line in enumerate(lines):
        if line.startswith(b"doc\t"):
            kind, doc_id, length, rest = line.split(b"\t", 3)
            lines[i] = b"\t".join((kind, doc_id, length, b"\\N", rest))
    path.write_bytes(framed(b"\n".join(lines) + b"\n"))


def with_version(path: Path, version: int) -> None:
    """Give a stage file another header version and re-digest it, so the
    version is all that keeps it from loading."""
    lines = path.read_bytes().split(b"\n")[:-2]  # without the digest line
    lines[0] = lines[0].split(b" ")[0] + b" %d" % version
    path.write_bytes(framed(b"\n".join(lines) + b"\n"))


def random_docs(n_docs: int, seed: int, vocab_size: int = 60) -> dict[str, str]:
    """Random filler documents for the counting and ranking oracles."""
    rng = random.Random(seed)
    vocab = [f"w{i:02d}" for i in range(vocab_size)]
    docs = {}
    for d in range(n_docs):
        words = [rng.choice(vocab) for _ in range(rng.randint(20, 60))]
        docs[f"R{d:03d}"] = " ".join(words) + "."
    return docs


def run_cli(*args, cwd=None, stdin=None):
    env = dict(PYTHONPATH=str(SRC_DIR))
    import os

    env.update({k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + os.environ.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "qapipe.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        input=stdin,
        env=env,
    )


@pytest.fixture(scope="session")
def planted_dir(tmp_path_factory):
    """Planted-answer benchmark directory with a trained model."""
    from qapipe.synth import write_fixture

    out = tmp_path_factory.mktemp("planted")
    write_fixture(out)
    result = run_cli(
        "train-classifier",
        "--train-file", "train.txt",
        "--out", "model.nb",
        cwd=out,
    )
    assert result.returncode == 0, result.stderr
    return out
