import os
import subprocess
import sys

import qapipe
from qapipe.classifier import parse_training_file, train_classifier, write_model
from qapipe.synth import write_fixture

from conftest import SRC_DIR

ENV = dict(os.environ, PYTHONPATH=str(SRC_DIR))


def loaded_after(code: str, cwd=None) -> set[str]:
    """The modules that running `code` in a fresh interpreter (in `cwd`)
    adds to sys.modules. The modules loaded before it, such as those `site`
    loads, do not count."""
    probe = (
        f"import sys; before = set(sys.modules); {code}; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    return set(subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=ENV, capture_output=True, text=True,
        check=True,
    ).stdout.splitlines()[-1].split())


def imported_by_command(tmp_path, command: str, *args: str) -> set[str]:
    """The modules that `python -m qapipe.cli COMMAND --config config.qa
    ARGS` imports, read from its `-X importtime` report."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qapipe.cli", command, "--config", "config.qa",
         *args],
        cwd=tmp_path, env=ENV, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines() if line.startswith("import time:")
    }


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every stage process and `ask` launch imports qapipe.cli first, so what
    that import loads is paid per process."""
    added = loaded_after("import qapipe.cli")
    assert "qapipe.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_importing_the_package_loads_no_submodule():
    added = loaded_after("import qapipe")
    assert "qapipe" in added
    assert not {name for name in added if name.startswith("qapipe.")}


def test_star_import_binds_every_export_to_its_owners_object():
    namespace: dict = {}
    exec("from qapipe import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qapipe.__all__)
    for name in qapipe.__all__:
        owner = sys.modules[f"qapipe.{qapipe._OWNERS[name]}"]
        assert namespace[name] is getattr(owner, name), name


def test_each_stage_command_imports_only_what_it_runs(tmp_path):
    """The answer engine (`extraction`, with `retrieval`) runs only in
    `answer`, and question analysis only in `process-questions` and
    `answer`; no other stage process imports them."""
    paths = write_fixture(tmp_path)
    examples, _ = parse_training_file(paths["train"])
    write_model(train_classifier(examples), tmp_path / "model.nb")
    engine = {"qapipe.extraction", "qapipe.retrieval"}
    analysis = {"qapipe.classifier", "qapipe.questions"}

    index = imported_by_command(tmp_path, "index")
    assert "qapipe.index" in index
    assert not (engine | analysis) & index

    process_questions = imported_by_command(tmp_path, "process-questions")
    assert analysis <= process_questions
    assert not engine & process_questions

    assert engine <= imported_by_command(tmp_path, "answer")

    evaluate = imported_by_command(tmp_path, "evaluate")
    assert {"qapipe.answers", "qapipe.evaluation"} <= evaluate
    assert not (engine | analysis) & evaluate


def test_ask_imports_no_stage_machinery(tmp_path):
    """`ask` answers from the index and the model alone: it loads neither the
    pipeline orchestration (nor, through it, `datetime`) nor the stage
    engines. One `-X importtime` report shows every module it loads, those
    that `cli` imports on first use included."""
    paths = write_fixture(tmp_path)
    examples, _ = parse_training_file(paths["train"])
    write_model(train_classifier(examples), tmp_path / "model.nb")
    subprocess.run([sys.executable, "-m", "qapipe.cli", "index", "--config", "config.qa"],
                   cwd=tmp_path, env=ENV, capture_output=True, check=True)
    reported = imported_by_command(tmp_path, "ask", "Who founded the onyx lighthouse?")
    assert {"qapipe.index", "qapipe.retrieval", "qapipe.extraction"} <= reported
    assert not {"qapipe.pipeline", "qapipe.stages", "datetime"} & reported
