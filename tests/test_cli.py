import os
import select
import subprocess
import sys
import time

import pytest

from conftest import SRC_DIR, rewrite_as_index_version_2, run_cli

TOY_TRAINING = """ABBR:exp What does DNA stand for ?
DESC:def What is an atoll ?
ENTY:animal What animal brays at dawn ?
HUM:ind Who mapped the coastline ?
LOC:city What city straddles two continents ?
NUM:date When did the lighthouse fail ?
ABBR:abb What is the short form of kilogram ?
DESC:reason Why does bread rise ?
ENTY:color What color is cobalt glass ?
HUM:gr What crew sailed the vessel ?
LOC:country What country borders three seas ?
NUM:count How many arches hold the bridge ?
"""


def write_basic_setup(tmp_path):
    (tmp_path / "corpus.tsv").write_text(
        "d1\t\tThe amber mill was built by Rolf Akkerman near the weir.\n"
        "d2\t\tBarges carried grain to the southern markets every autumn.\n"
        "d3\t\tThe old mill burned down in 1742 during a dry summer.\n",
        encoding="utf-8",
    )
    (tmp_path / "questions.txt").write_text(
        "q1\tWho built the amber mill?\nq2\tWhen did the old mill burn down?\n",
        encoding="utf-8",
    )
    (tmp_path / "gold.txt").write_text(
        "q1 Rolf\\s+Akkerman\nq2 1742\n", encoding="utf-8"
    )
    (tmp_path / "train.txt").write_text(TOY_TRAINING, encoding="utf-8")
    (tmp_path / "config.qa").write_text(
        "corpus_path = corpus.tsv\n"
        "index_path = index.qix\n"
        "questions_path = questions.txt\n"
        "classifier_model_path = model.nb\n"
        "answers_out_path = answers.txt\n"
        "gold_path = gold.txt\n"
        "report_out_path = report.txt\n"
        "corpus.format = record-lines\n"
        "questions.format = qline\n",
        encoding="utf-8",
    )


def train(tmp_path):
    return run_cli(
        "train-classifier", "--train-file", "train.txt", "--out", "model.nb",
        cwd=tmp_path,
    )


def test_train_classifier_reports_labels(tmp_path):
    write_basic_setup(tmp_path)
    result = train(tmp_path)
    assert result.returncode == 0, result.stderr
    assert "labels=12" in result.stdout  # 12 distinct fine labels in the toy file


def test_train_classifier_coarse_only(tmp_path):
    write_basic_setup(tmp_path)
    result = run_cli(
        "train-classifier", "--train-file", "train.txt", "--out", "m.nb", "--coarse-only",
        cwd=tmp_path,
    )
    assert result.returncode == 0
    assert "labels=6" in result.stdout


def test_train_classifier_rejects_bad_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("NOPE:xx Question one ?\nHUM:ind Who is it ?\n", encoding="utf-8")
    result = run_cli("train-classifier", "--train-file", str(bad), "--out", str(tmp_path / "m.nb"))
    assert result.returncode == 1  # 1 bad line of 2 is over the 1% tolerance
    assert "rejected" in result.stderr


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
def test_train_classifier_refuses_alpha_not_positive_and_finite(tmp_path, alpha):
    write_basic_setup(tmp_path)
    result = run_cli(
        "train-classifier", "--train-file", "train.txt", "--out", "model.nb", "--alpha", alpha,
        cwd=tmp_path,
    )
    assert result.returncode == 1, result.stderr
    assert "not positive and finite" in result.stderr
    assert not (tmp_path / "model.nb").exists()


def test_index_prints_stats(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    result = run_cli("index", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "docs=3" in result.stdout


def test_index_missing_corpus_exits_1(tmp_path):
    write_basic_setup(tmp_path)
    (tmp_path / "corpus.tsv").unlink()
    result = run_cli("index", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 1
    assert "MissingFile" in result.stderr


def test_unknown_flag_exits_1(tmp_path):
    write_basic_setup(tmp_path)
    result = run_cli("index", "--config", "config.qa", "--bogus", cwd=tmp_path)
    assert result.returncode == 1


def test_unknown_command_exits_1():
    result = run_cli("frobnicate")
    assert result.returncode == 1


def test_run_all_answers_planted_questions(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    result = run_cli("run-all", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "accuracy = 1.000" in report


def test_run_all_without_gold_runs_the_first_three_stages(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    config = (tmp_path / "config.qa").read_text(encoding="utf-8")
    config = config.replace("gold_path = gold.txt\n", "")
    (tmp_path / "config.qa").write_text(config, encoding="utf-8")
    result = run_cli("run-all", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert [line.split(":")[0] for line in result.stdout.splitlines()] == [
        "info-source-prep", "question-processing", "answer-retrieval"
    ]
    assert (tmp_path / "answers.txt").is_file()
    assert not (tmp_path / "report.txt").exists()


def test_evaluate_without_gold_exits_1(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    config = (tmp_path / "config.qa").read_text(encoding="utf-8")
    config = config.replace("gold_path = gold.txt\n", "")
    (tmp_path / "config.qa").write_text(config, encoding="utf-8")
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    run_cli("process-questions", "--config", "config.qa", cwd=tmp_path)
    run_cli("answer", "--config", "config.qa", cwd=tmp_path)
    result = run_cli("evaluate", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 1
    assert "MissingGoldPath" in result.stderr


def test_answer_before_process_questions_exits_1(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    result = run_cli("answer", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 1


def test_separate_stages_match_run_all(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    assert run_cli("run-all", "--config", "config.qa", cwd=tmp_path).returncode == 0
    combined = (tmp_path / "answers.txt").read_bytes()
    for artifact in ("index.qix", "analysis.txt", "answers.txt", "report.txt"):
        (tmp_path / artifact).unlink()
    for command in ("index", "process-questions", "answer", "evaluate"):
        result = run_cli(command, "--config", "config.qa", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "answers.txt").read_bytes() == combined


def test_ask_one_shot(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    result = run_cli(
        "ask", "--config", "config.qa", "Who", "built", "the", "amber", "mill?",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    answer, doc, score = result.stdout.strip().split("\t")
    assert answer == "Rolf Akkerman"
    assert doc == "d1"
    assert float(score) > 0


def test_ask_all_stopwords_prints_nil(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    result = run_cli("ask", "--config", "config.qa", "what", "is", "the", cwd=tmp_path)
    assert result.stdout == "NIL\t-\t0\n"


def test_ask_repl_three_lines(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    stdin = "Who built the amber mill?\nWhen did the old mill burn down?\nwhat is the\n"
    result = run_cli("ask", "--config", "config.qa", cwd=tmp_path, stdin=stdin)
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("Rolf Akkerman\t")
    assert "1742" in lines[1]
    assert lines[2] == "NIL\t-\t0"


def test_ask_replies_to_every_line_blank_ones_with_nil(tmp_path):
    """A client that sends one line and waits for one reply must get it,
    so a blank or all-whitespace line gets the NIL reply of a question
    without query terms."""
    write_basic_setup(tmp_path)
    train(tmp_path)
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    stdin = "Who built the amber mill?\n\n   \nWhat?\n"
    result = run_cli("ask", "--config", "config.qa", cwd=tmp_path, stdin=stdin)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("Rolf Akkerman\t")
    assert lines[1:] == ["NIL\t-\t0"] * 3


def read_reply(fd: int, seconds: float) -> str:
    """One reply line from `fd`, which must arrive within `seconds`."""
    deadline = time.monotonic() + seconds
    reply = b""
    while not reply.endswith(b"\n"):
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        assert ready, f"no whole reply line within {seconds} s, got {reply!r}"
        chunk = os.read(fd, 4096)
        assert chunk, f"ask closed its output after {reply!r}"
        reply += chunk
    return reply.decode("utf-8")


def test_ask_replies_to_each_line_before_the_next_is_sent(tmp_path):
    """A closed-loop client sends one line and waits for its reply, so each
    reply reaches a pipe when it is printed, with no PYTHONUNBUFFERED in the
    environment."""
    write_basic_setup(tmp_path)
    train(tmp_path)
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + os.environ.get("PYTHONPATH", "")
    replies = []
    with subprocess.Popen(
        [sys.executable, "-m", "qapipe.cli", "ask", "--config", "config.qa"],
        cwd=tmp_path, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    ) as proc:
        try:
            for line in ("Who built the amber mill?", "", "When did the old mill burn down?"):
                proc.stdin.write(line.encode("utf-8") + b"\n")
                proc.stdin.flush()
                replies.append(read_reply(proc.stdout.fileno(), 30.0))
        finally:
            proc.kill()  # so a failed wait cannot leave ask running
    assert replies[0].startswith("Rolf Akkerman\td1\t")
    assert replies[1] == "NIL\t-\t0\n"
    assert replies[2].startswith("1742\td3\t")


def test_ask_prints_one_escaped_line_per_question(tmp_path):
    """A capitalized run and a DESC sentence that cross a line break, and a
    doc id holding a tab and a backslash, print escaped as answers.txt stores
    them, so each question gets one reply line."""
    from qapipe.answers import load_answers
    from qapipe.serde import escape_field

    write_basic_setup(tmp_path)
    train(tmp_path)
    (tmp_path / "corpus.tsv").write_text(
        "<DOC>\n<DOCNO> D\\1\tx </DOCNO>\n<TEXT>\n"
        "The onyx lighthouse was founded by Maria\nVoss in a harsh winter.\n"
        "</TEXT>\n</DOC>\n",
        encoding="utf-8",
    )
    questions = ["Who founded the onyx lighthouse?", "What is an onyx lighthouse?"]
    (tmp_path / "questions.txt").write_text(
        "".join(f"q{i}\t{q}\n" for i, q in enumerate(questions, start=1)), encoding="utf-8"
    )
    config = tmp_path / "config.qa"
    config.write_text(
        config.read_text(encoding="utf-8").replace("record-lines", "trec-sgml"), encoding="utf-8"
    )
    for command in ("index", "process-questions", "answer"):
        result = run_cli(command, "--config", "config.qa", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
    records = load_answers(tmp_path / "answers.txt")
    assert [r.answer for r in records] == [
        "Maria\nVoss", "The onyx lighthouse was founded by Maria\nVoss in a harsh winter."
    ]
    stdin = "".join(q + "\n" for q in questions)
    result = run_cli("ask", "--config", "config.qa", cwd=tmp_path, stdin=stdin)
    assert result.returncode == 0, result.stderr
    replies = [line.split("\t") for line in result.stdout.split("\n")[:-1]]
    assert [reply[:2] for reply in replies] == [
        [escape_field(r.answer), escape_field(r.supporting_doc)] for r in records
    ]
    assert replies[0][:2] == ["Maria\\nVoss", "D\\\\1\\tx"]


def test_ask_without_index_exits_1(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    result = run_cli("ask", "--config", "config.qa", "anything?", cwd=tmp_path)
    assert result.returncode == 1


def test_stats_reports_index_and_model(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    result = run_cli("stats", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 0
    assert "docs=3" in result.stdout
    assert "labels=12" in result.stdout


def test_stats_without_artifacts_exits_1(tmp_path):
    write_basic_setup(tmp_path)
    result = run_cli("stats", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 1


def test_ask_and_answer_agree_on_gazetteer_config(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    (tmp_path / "corpus.tsv").write_text(
        "d1\t\tThe amber mill was built by Anna Berg near the river. "
        "Visitors often mention Carl Holm today.\n",
        encoding="utf-8",
    )
    (tmp_path / "questions.txt").write_text("q1\tWho built the amber mill?\n", encoding="utf-8")
    (tmp_path / "people.txt").write_text("Carl Holm\n", encoding="utf-8")
    with open(tmp_path / "config.qa", "a", encoding="utf-8") as cfg:
        cfg.write("extract.persons = people.txt\n")
    for command in ("index", "process-questions", "answer"):
        result = run_cli(command, "--config", "config.qa", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
    answers = (tmp_path / "answers.txt").read_text(encoding="utf-8")
    assert answers.split("\t")[1] == "Carl Holm"

    result = run_cli("ask", "--config", "config.qa", "Who built the amber mill?", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\t")[0] == "Carl Holm"


@pytest.mark.parametrize(
    "extra, message",
    [
        # The id is the one this case had when the error carried a BadParam code.
        pytest.param("retrieval.k = abc", "retrieval.k", id="retrieval.k = abc-BadParam"),
        ("extract.persons = missing.txt", "missing.txt"),
    ],
)
def test_ask_rejects_bad_config_like_answer(tmp_path, extra, message):
    write_basic_setup(tmp_path)
    train(tmp_path)
    run_cli("index", "--config", "config.qa", cwd=tmp_path)
    with open(tmp_path / "config.qa", "a", encoding="utf-8") as cfg:
        cfg.write(extra + "\n")
    result = run_cli("ask", "--config", "config.qa", "Who built the amber mill?", cwd=tmp_path)
    assert result.returncode == 1, result.stderr
    assert message in result.stderr
    assert result.stdout == ""


def test_train_classifier_missing_file_exits_1(tmp_path):
    result = run_cli("train-classifier", "--train-file", "nope.txt", "--out", "m.nb", cwd=tmp_path)
    assert result.returncode == 1
    assert "nope.txt" in result.stderr


def test_train_classifier_directory_exits_1(tmp_path):
    result = run_cli("train-classifier", "--train-file", ".", "--out", "m.nb", cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr == "error: is a directory: .\n"
    assert result.stdout == ""


@pytest.mark.parametrize("is_dir, problem", [(True, "is a directory"), (False, "file not found")])
def test_config_path_that_is_no_file_exits_1(tmp_path, is_dir, problem):
    if is_dir:
        (tmp_path / "cfg").mkdir()
    result = run_cli("stats", "--config", "cfg", cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr == f"error: {problem}: cfg\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "extra", ["retrieval.k = abc", "retrieval.k = 0", "weights.coverage = nan",
              "weights.proximity = inf"],
)
def test_bad_value_exits_1_under_every_command(tmp_path, monkeypatch, capsys, extra):
    from qapipe.cli import main

    write_basic_setup(tmp_path)
    with open(tmp_path / "config.qa", "a", encoding="utf-8") as cfg:
        cfg.write(extra + "\n")
    monkeypatch.chdir(tmp_path)
    for argv in (["stats"], ["index"], ["ask", "Who built the amber mill?"]):
        assert main([argv[0], "--config", "config.qa", *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and extra.partition(" ")[0] in err


def test_answer_on_a_damaged_index_exits_2(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    assert run_cli("run-all", "--config", "config.qa", cwd=tmp_path).returncode == 0
    index = tmp_path / "index.qix"
    raw = bytearray(index.read_bytes())
    raw[len(raw) // 2] ^= 1
    index.write_bytes(bytes(raw))
    result = run_cli("answer", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and "index.qix" in line


def test_answer_on_a_version_2_index_exits_2(tmp_path):
    write_basic_setup(tmp_path)
    train(tmp_path)
    assert run_cli("run-all", "--config", "config.qa", cwd=tmp_path).returncode == 0
    rewrite_as_index_version_2(tmp_path / "index.qix")
    result = run_cli("answer", "--config", "config.qa", cwd=tmp_path)
    assert result.returncode == 2
    assert "QANUSIDX version '2', expected 4; run 'qapipe index' to rewrite it" in result.stderr
