import os

import pytest

from qapipe.answers import AnswerRecord, load_answers, write_answers
from qapipe.classifier import parse_training_file
from qapipe.config import load_gazetteer
from qapipe.corpus import parse_corpus
from qapipe.errors import QAError
from qapipe.questions import parse_questions
from qapipe.serde import atomic_write_text, write_records


def test_failed_artifact_write_keeps_old_bytes(tmp_path):
    path = tmp_path / "answers.txt"
    write_answers([AnswerRecord("q1", "Elena Castwright", "D1", 7.25)], path)
    old = path.read_bytes()
    # A lone surrogate cannot be encoded as UTF-8: the write raises after
    # the file it writes to has been opened.
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "x" * 100_000 + "\ud800")
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["answers.txt"]
    assert load_answers(path)[0].answer == "Elena Castwright"


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "artifact.txt"
    path.write_text("old\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        atomic_write_text(path, "new\n")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["artifact.txt"]


@pytest.mark.parametrize(
    "last, error",
    [(RuntimeError("the records failed"), RuntimeError),
     ("term\tbad\ud800\t0:1", UnicodeEncodeError)],  # a lone surrogate is not UTF-8
    ids=["raising-generator", "lone-surrogate"],
)
def test_failed_streamed_write_keeps_old_bytes(tmp_path, last, error):
    path = tmp_path / "index.qix"
    write_records(path, "QANUSIDX", 2, ["stats\tdocs=0\tterms=0\tpostings=0"])
    old = path.read_bytes()
    temp_sizes = []

    def records():
        for i in range(5000):
            yield f"term\tt{i}\t{i}:1"
        # The records so far were written as they came, not held for the end.
        temp_sizes.extend(p.stat().st_size for p in tmp_path.glob(".*.tmp"))
        if isinstance(last, Exception):
            raise last
        yield last

    with pytest.raises(error):
        write_records(path, "QANUSIDX", 2, records())
    assert len(temp_sizes) == 1 and temp_sizes[0] > 0
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["index.qix"]


@pytest.mark.parametrize(
    "parse",
    [
        lambda path: list(parse_corpus(path, "record-lines")),
        lambda path: parse_questions(path, "qline"),
        parse_training_file,
        load_gazetteer,
    ],
    ids=["corpus", "questions", "training-file", "gazetteer"],
)
def test_input_parsers_name_the_line_of_undecodable_bytes(tmp_path, parse):
    path = tmp_path / "input.txt"
    path.write_bytes(b"d1\tHUM:ind who\tfirst\nd2\tsecond \xff\n")
    with pytest.raises(QAError, match=r"input\.txt: line 2 is not valid UTF-8"):
        parse(path)
