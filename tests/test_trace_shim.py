"""The traced benchmark wraps qapipe functions by name and reads the index
stats line; a rename or format change must fail here, not in a bench run."""

import os
import subprocess
import sys

from qapipe.classifier import parse_training_file, train_classifier, write_model
from qapipe.pipeline import StageKind
from qapipe.synth import write_fixture

from conftest import SRC_DIR

SHIM = SRC_DIR.parent / "qabench" / "trace_shim.py"


def test_trace_shim_runs_all_stages(tmp_path):
    paths = write_fixture(tmp_path)
    examples, _ = parse_training_file(paths["train"])
    write_model(train_classifier(examples), tmp_path / "model.nb")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run(
        [sys.executable, str(SHIM), "spans", "run-all", "--config", "config.qa"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr

    spans = (tmp_path / "spans").read_text(encoding="utf-8").splitlines()
    names = {line.split("\t")[2] for line in spans}
    assert {"index.load", "serde.unescape", "extraction.answer_question"} <= names
    # The shim replaces stages.run_* after import; an engine map captured at
    # import time would run the unwrapped engines and drop these spans.
    assert {"pipeline.run"} | {f"pipeline.stage.{kind.value}" for kind in StageKind} <= names

    with (tmp_path / "index.qix").open(encoding="utf-8") as f:
        f.readline()
        kind, *rest = f.readline().rstrip("\n").split("\t")
    cells = dict(c.split("=", 1) for c in rest)
    assert kind == "stats"
    assert all(int(cells[key]) > 0 for key in ("docs", "terms", "postings"))


def traced_spans(tmp_path, *cli_args, stdin=None) -> list[list[str]]:
    """The spans that one traced command records, each split into its fields."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run(
        [sys.executable, str(SHIM), "spans", *cli_args, "--config", "config.qa"],
        cwd=tmp_path, env=env, capture_output=True, text=True, input=stdin,
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "spans").read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines]


def test_trace_shim_sees_the_names_each_command_imports_on_first_use(tmp_path):
    """`cli` and `stages` import what a command runs when it runs, and read
    the names the shim wraps through their own namespaces; the wrappers
    must still be the ones called."""
    paths = write_fixture(tmp_path)
    examples, _ = parse_training_file(paths["train"])
    write_model(train_classifier(examples), tmp_path / "model.nb")

    stage = traced_spans(tmp_path, "index")
    assert "index.build" in {span[2] for span in stage}
    stage = traced_spans(tmp_path, "process-questions")
    assert "classifier.load" in {span[2] for span in stage}

    spans = traced_spans(tmp_path, "ask", stdin="Who founded the onyx lighthouse?\nWhat?\n")
    names = [span[2] for span in spans]
    assert names.count("classifier.load") == 1
    assert names.count("index.load") == 1
    for name in ("questions.analyze", "extraction.answer_question"):
        assert sorted(span[3] for span in spans if span[2] == name) == ["q1", "q2"], name

    traced_spans(tmp_path, "answer")
    stage = traced_spans(tmp_path, "evaluate")
    assert "evaluation.evaluate" in {span[2] for span in stage}
