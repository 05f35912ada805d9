from pathlib import Path

import pytest

from qapipe.config import (
    STAGE3_FIELDS,
    AnswerSettings,
    ParseError,
    PipelineConfig,
    UnknownKey,
    load_config,
)
from qapipe.errors import UsageError
from qapipe.pipeline import StageKind, validate_config

from conftest import framed, with_stage_params

MINIMAL = (
    "corpus_path = corpus.tsv\n"
    "index_path = index.qix\n"
    "questions_path = questions.txt\n"
    "answers_out_path = answers.txt\n"
)


def write_config(tmp_path, body, name="config.qa"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def test_defaults_applied(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    assert config.stage_params["retrieval.k"] == 50
    assert config.stage_params["retrieval.max_passages"] == 20
    assert config.stage_params["weights.coverage"] == 2.0
    assert config.stage_params["weights.proximity"] == 1.0
    assert config.stage_params["weights.redundancy"] == 0.5
    assert config.stage_params["corpus.format"] == "trec-sgml"


def test_relative_paths_resolved_against_config_dir(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    assert config.corpus_path == str(tmp_path / "corpus.tsv")
    assert config.stage_params["questions.analysis_out"] == str(tmp_path / "analysis.txt")


def test_unknown_key_rejected_at_load(tmp_path):
    path = write_config(tmp_path, MINIMAL + "retrieval.bogus = 1\n")
    with pytest.raises(UnknownKey) as exc:
        load_config(path)
    assert exc.value.key == "retrieval.bogus"


def test_missing_config_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.qa")


def test_readme_config_example_loads(tmp_path):
    """The README's ini block loads, with the values its comments describe;
    its stage-3 values are the AnswerSettings defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = load_config(write_config(tmp_path, block))
    here = tmp_path.resolve()
    assert config.corpus_path == str(here / "corpus.tsv")
    assert config.report_out_path == str(here / "report.txt")
    assert config.param("corpus.format") == "record-lines"
    assert config.param("questions.format") == "qline"
    assert config.param("questions.analysis_out") == str(here / "analysis.txt")
    defaults = AnswerSettings()
    for key, (_, field) in STAGE3_FIELDS.items():
        assert config.param(key) == getattr(defaults, field), key
    assert config.param("extract.persons") == str(here / "people.txt")
    assert config.param("extract.locations") == str(here / "places.txt")


def test_parse_error_reports_line(tmp_path):
    path = write_config(tmp_path, MINIMAL + "not a key value line\n")
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert exc.value.line == 5


def test_duplicate_key_rejected(tmp_path):
    path = write_config(tmp_path, MINIMAL + "corpus_path = other.tsv\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_comments_and_blanks_ignored(tmp_path):
    body = "# a comment\n\n" + MINIMAL + "# retrieval.k = 9\n"
    config = load_config(write_config(tmp_path, body))
    assert config.stage_params["retrieval.k"] == 50


def test_leading_byte_order_mark_is_dropped(tmp_path):
    """An editor that saves UTF-8 with a BOM puts U+FEFF before the first key."""
    with_bom = load_config(write_config(tmp_path, "\ufeff" + MINIMAL, name="bom.qa"))
    assert with_bom.digest() == load_config(write_config(tmp_path, MINIMAL)).digest()
    assert with_bom.corpus_path == str(tmp_path / "corpus.tsv")


def test_nul_byte_in_a_path_is_a_parse_error(tmp_path):
    path = write_config(tmp_path, MINIMAL + "extract.persons = a\x00b\n")
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert exc.value.line == 5


def test_nonexistent_questions_path_accepted_at_load(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    assert config.questions_path.endswith("questions.txt")  # no existence check here


def codes(issues):
    return [i.code for i in issues]


def test_validate_missing_gold_only_when_evaluation_requested(tmp_path):
    (tmp_path / "corpus.tsv").write_text("d1\t\ttext\n", encoding="utf-8")
    config = load_config(write_config(tmp_path, MINIMAL))
    no_eval = validate_config(config, {StageKind.INFO_SOURCE_PREP})
    assert "MissingGoldPath" not in codes(no_eval)
    with_eval = validate_config(config, {StageKind.EVALUATION})
    assert "MissingGoldPath" in codes(with_eval)


def test_bad_integer_refused_at_load(tmp_path):
    with pytest.raises(UsageError) as exc:
        load_config(write_config(tmp_path, MINIMAL + "retrieval.k = abc\n"))
    assert "retrieval.k" in str(exc.value) and "'abc'" in str(exc.value)


def test_validate_all_good_is_empty(tmp_path):
    (tmp_path / "corpus.tsv").write_text("d1\t\ttext\n", encoding="utf-8")
    config = load_config(write_config(tmp_path, MINIMAL))
    assert validate_config(config, {StageKind.INFO_SOURCE_PREP}) == []


def test_validate_missing_corpus_file(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    issues = validate_config(config, {StageKind.INFO_SOURCE_PREP})
    assert "MissingFile" in codes(issues)


def test_validate_artifacts_may_be_produced_in_run(tmp_path):
    (tmp_path / "corpus.tsv").write_text("d1\t\ttext\n", encoding="utf-8")
    (tmp_path / "questions.txt").write_text("q1\tWho?\n", encoding="utf-8")
    (tmp_path / "model.nb").write_bytes(framed("QANUSNB1 2\nalpha 1.0\nspace coarse\nlabel HUM 1\n"))
    config = load_config(
        write_config(tmp_path, MINIMAL + "classifier_model_path = model.nb\n")
    )
    all_stages = {
        StageKind.INFO_SOURCE_PREP,
        StageKind.QUESTION_PROCESSING,
        StageKind.ANSWER_RETRIEVAL,
    }
    assert validate_config(config, all_stages) == []
    # Index artifact missing and its producer not requested -> a real issue.
    partial = validate_config(config, {StageKind.ANSWER_RETRIEVAL})
    assert "MissingFile" in codes(partial)


def test_validate_missing_output_dir(tmp_path):
    (tmp_path / "corpus.tsv").write_text("d1\t\ttext\n", encoding="utf-8")
    config = load_config(write_config(tmp_path, MINIMAL.replace("index.qix", "out/index.qix")))
    issues = validate_config(config, {StageKind.INFO_SOURCE_PREP})
    assert [(i.code, i.detail) for i in issues] == [("MissingDir", str(tmp_path / "out"))]


def test_validation_failure_lists_every_stage_issue_in_pipeline_order(tmp_path):
    """Issues in all four stages, each stage's in the order it checks them."""
    from qapipe.config import ValidationFailed
    from qapipe.pipeline import run_pipeline
    from qapipe.stages import default_engines

    body = MINIMAL.replace("answers.txt", "out/answers.txt")
    config = load_config(write_config(tmp_path, body))
    with pytest.raises(ValidationFailed) as exc:
        run_pipeline(config, default_engines(), list(StageKind))
    out = tmp_path / "out"
    assert str(exc.value) == (
        f"MissingFile: {tmp_path / 'corpus.tsv'}; "
        "MissingModelPath: classifier_model_path is not set; "
        f"MissingFile: {tmp_path / 'questions.txt'}; "
        f"MissingDir: {out}; MissingDir: {out}; "
        "MissingGoldPath: gold_path is not set"
    )


def test_validate_model_required_for_question_processing(tmp_path):
    (tmp_path / "questions.txt").write_text("q1\tWho?\n", encoding="utf-8")
    config = load_config(write_config(tmp_path, MINIMAL))
    issues = validate_config(config, {StageKind.QUESTION_PROCESSING})
    assert "MissingModelPath" in codes(issues)


def test_digest_deterministic_and_sensitive(tmp_path):
    c1 = load_config(write_config(tmp_path, MINIMAL, "a.qa"))
    c2 = load_config(write_config(tmp_path, MINIMAL, "b.qa"))
    assert c1.digest() == c2.digest()
    c3 = load_config(write_config(tmp_path, MINIMAL + "retrieval.k = 9\n", "c.qa"))
    assert c3.digest() != c1.digest()


def test_typed_param_accessors(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL + "retrieval.k = 7\n"))
    assert config.param("retrieval.k") == 7
    assert config.param("weights.coverage") == pytest.approx(2.0)


def test_missing_required_path_rejected(tmp_path):
    body = "corpus_path = c.tsv\nindex_path = i.qix\nquestions_path = q.txt\n"
    with pytest.raises(ParseError):
        load_config(write_config(tmp_path, body))


def test_gazetteer_params_resolved_and_validated(tmp_path):
    (tmp_path / "corpus.tsv").write_text("d1\t\ttext\n", encoding="utf-8")
    body = MINIMAL + "extract.persons = people.txt\n"
    config = load_config(write_config(tmp_path, body))
    assert config.stage_params["extract.persons"] == str(tmp_path / "people.txt")

    # Missing gazetteer only matters when answer retrieval is requested.
    assert "MissingFile" not in codes(validate_config(config, {StageKind.INFO_SOURCE_PREP}))
    issues = validate_config(config, {StageKind.ANSWER_RETRIEVAL})
    assert any(i.code == "MissingFile" and "people" in i.detail for i in issues)

    (tmp_path / "people.txt").write_text("Maria Voss\n", encoding="utf-8")
    issues = validate_config(config, {StageKind.INFO_SOURCE_PREP})
    assert issues == []


@pytest.mark.parametrize(
    "key, value",
    [("retrieval.k", "0"), ("weights.coverage", "nan"), ("weights.proximity", "inf"),
     ("corpus.format", "xml")],
)
def test_bad_value_refused_at_load(tmp_path, key, value):
    with pytest.raises(UsageError) as exc:
        load_config(write_config(tmp_path, MINIMAL + f"{key} = {value}\n"))
    assert key in str(exc.value) and repr(value) in str(exc.value)


def test_empty_value_is_unset(tmp_path):
    body = MINIMAL + "questions.analysis_out =\nextract.persons =\nretrieval.k =\n"
    config = load_config(write_config(tmp_path, body))
    assert config.param("questions.analysis_out") == str(tmp_path / "analysis.txt")
    assert config.param("extract.persons") is None
    assert config.param("retrieval.k") == 50


def test_none_value_is_unset(tmp_path):
    body = MINIMAL + "extract.persons = persons.txt\nretrieval.k = 9\n"
    config = load_config(write_config(tmp_path, body))
    unset = with_stage_params(config, {
        **config.stage_params, "extract.persons": None, "retrieval.k": None,
        "questions.analysis_out": None,
    })
    assert unset.param("extract.persons") is None
    assert unset.param("retrieval.k") == 50
    assert unset.digest() == load_config(write_config(tmp_path, MINIMAL)).digest()


def test_loaded_and_constructed_configs_agree(tmp_path):
    body = MINIMAL.replace("answers_out_path = answers.txt", "answers_out_path = out/answers.txt")
    loaded = load_config(write_config(tmp_path, body))
    built = PipelineConfig(
        corpus_path=str(tmp_path / "corpus.tsv"),
        index_path=str(tmp_path / "index.qix"),
        questions_path=str(tmp_path / "questions.txt"),
        answers_out_path=str(tmp_path / "out" / "answers.txt"),
    )
    assert loaded.param("questions.analysis_out") == str(tmp_path / "out" / "analysis.txt")
    assert loaded.stage_params == built.stage_params
    assert loaded.digest() == built.digest()


def test_constructed_config_parses_each_value(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    as_text = with_stage_params(config, {"weights.redundancy": "0.25"})
    as_float = with_stage_params(config, {"weights.redundancy": 0.25})
    assert as_text.param("weights.redundancy") == as_float.param("weights.redundancy") == 0.25
    assert as_text.digest() == as_float.digest()
    with pytest.raises(UnknownKey):
        with_stage_params(config, {"retrieval.K": "9"})
    with pytest.raises(UsageError):
        with_stage_params(config, {"retrieval.max_passages": -3})
