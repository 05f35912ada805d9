import pytest

from qapipe.config import ValidationFailed, load_config
from qapipe.pipeline import OrderViolation, StageFailure, StageKind, run_pipeline
from qapipe.stages import default_engines


def fixture_config(tmp_path):
    from qapipe.synth import write_fixture
    from qapipe.classifier import parse_training_file, train_classifier, write_model

    paths = write_fixture(tmp_path, num_docs=100)
    examples, _ = parse_training_file(paths["train"])
    write_model(train_classifier(examples), tmp_path / "model.nb")
    return load_config(paths["config"])


ALL_STAGES = [
    StageKind.INFO_SOURCE_PREP,
    StageKind.QUESTION_PROCESSING,
    StageKind.ANSWER_RETRIEVAL,
    StageKind.EVALUATION,
]


def test_full_run_manifest(tmp_path):
    config = fixture_config(tmp_path)
    manifest = run_pipeline(config, default_engines(), ALL_STAGES)
    assert [r.stage for r in manifest.stages_run] == ALL_STAGES
    assert all(r.duration_s > 0 for r in manifest.stages_run)
    assert (tmp_path / "run_manifest.txt").is_file()
    assert len(manifest.config_digest) == 64


def test_stages_must_respect_order(tmp_path):
    config = fixture_config(tmp_path)
    with pytest.raises(OrderViolation):
        run_pipeline(
            config,
            default_engines(),
            [StageKind.QUESTION_PROCESSING, StageKind.INFO_SOURCE_PREP],
        )


def test_retrieval_without_artifacts_is_order_violation(tmp_path):
    config = fixture_config(tmp_path)
    with pytest.raises(OrderViolation):
        run_pipeline(config, default_engines(), [StageKind.ANSWER_RETRIEVAL])


def test_evaluation_alone_runs_from_persisted_artifacts(tmp_path):
    config = fixture_config(tmp_path)
    run_pipeline(config, default_engines(), ALL_STAGES[:3])
    manifest = run_pipeline(config, default_engines(), [StageKind.EVALUATION])
    assert len(manifest.stages_run) == 1
    assert manifest.stages_run[0].stage is StageKind.EVALUATION


def manifest_stages(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    return [line.removeprefix("stage = ") for line in lines if line.startswith("stage = ")]


def test_separate_runs_add_up_to_one_manifest(tmp_path):
    config = fixture_config(tmp_path)
    for stages in (ALL_STAGES[:1], ALL_STAGES[1:3], ALL_STAGES[3:], ALL_STAGES[:1]):
        run_pipeline(config, default_engines(), stages)
    assert manifest_stages(tmp_path / "run_manifest.txt") == [s.value for s in ALL_STAGES]


def test_manifest_of_another_config_is_replaced(tmp_path):
    from conftest import with_stage_params

    config = fixture_config(tmp_path)
    run_pipeline(config, default_engines(), ALL_STAGES[:3])
    changed = with_stage_params(config, {**config.stage_params, "weights.redundancy": "0.25"})
    assert changed.digest() != config.digest()
    run_pipeline(changed, default_engines(), ALL_STAGES[3:])
    assert manifest_stages(tmp_path / "run_manifest.txt") == ["evaluation"]


def test_validation_failure_raised_before_running(tmp_path):
    config = fixture_config(tmp_path)
    import os

    os.remove(config.corpus_path)
    with pytest.raises(ValidationFailed):
        run_pipeline(config, default_engines(), ALL_STAGES)


def test_stage_failure_aborts_and_keeps_prior_artifacts(tmp_path):
    config = fixture_config(tmp_path)

    def explode(_config):
        raise RuntimeError("boom")

    engines = {**default_engines(), StageKind.QUESTION_PROCESSING: explode}
    with pytest.raises(StageFailure) as exc:
        run_pipeline(
            config, engines, [StageKind.INFO_SOURCE_PREP, StageKind.QUESTION_PROCESSING]
        )
    assert exc.value.stage is StageKind.QUESTION_PROCESSING
    import os

    assert os.path.isfile(config.index_path)  # stage 1 artifact intact


def test_missing_engine_refused_before_any_stage_runs(tmp_path):
    from qapipe.errors import UsageError

    config = fixture_config(tmp_path)
    engines = {StageKind.INFO_SOURCE_PREP: default_engines()[StageKind.INFO_SOURCE_PREP]}
    with pytest.raises(UsageError, match="question-processing"):
        run_pipeline(config, engines, ALL_STAGES[:2])
    assert not (tmp_path / "index.qix").exists()


def test_rerun_single_stage_is_byte_identical(tmp_path):
    config = fixture_config(tmp_path)
    engines = default_engines()
    run_pipeline(config, engines, [StageKind.INFO_SOURCE_PREP])
    from pathlib import Path

    first = Path(config.index_path).read_bytes()
    run_pipeline(config, engines, [StageKind.INFO_SOURCE_PREP])
    assert Path(config.index_path).read_bytes() == first


def test_empty_stage_list_rejected(tmp_path):
    config = fixture_config(tmp_path)
    with pytest.raises(OrderViolation):
        run_pipeline(config, default_engines(), [])


def test_trec_xml_questions_through_the_stage(tmp_path):
    from qapipe.classifier import TrainingExample, train_classifier, write_model
    from qapipe.questions import load_analyses

    (tmp_path / "corpus.sgml").write_text(
        "<DOC>\n<DOCNO>X1</DOCNO>\n<TEXT>Wolfgang performed in Vienna in 1781.</TEXT>\n</DOC>\n",
        encoding="utf-8",
    )
    (tmp_path / "questions.xml").write_text(
        '<target text="Mozart">\n<q id="1.1">When was he born?</q>\n</target>\n',
        encoding="utf-8",
    )
    write_model(
        train_classifier([TrainingExample("NUM:date", "when was it built")]),
        tmp_path / "model.nb",
    )
    (tmp_path / "config.qa").write_text(
        "corpus_path = corpus.sgml\n"
        "index_path = index.qix\n"
        "questions_path = questions.xml\n"
        "classifier_model_path = model.nb\n"
        "answers_out_path = answers.txt\n"
        "questions.format = trec-xml\n",
        encoding="utf-8",
    )
    config = load_config(tmp_path / "config.qa")
    run_pipeline(config, default_engines(), [StageKind.QUESTION_PROCESSING])
    (analysis,) = load_analyses(tmp_path / "analysis.txt")
    assert analysis.qid == "1.1"
    assert analysis.query_terms == ["born", "mozart"]  # target terms appended
    assert analysis.answer_type.coarse == "NUM"


def test_ids_holding_a_tab_survive_every_stage(tmp_path):
    """A trec-sgml DOCNO and a trec-xml question id with a tab are escaped in
    analysis.txt and answers.txt, so evaluation reads them back."""
    from qapipe.classifier import TrainingExample, train_classifier, write_model
    from qapipe.answers import load_answers
    from qapipe.questions import load_analyses

    (tmp_path / "corpus.sgml").write_text(
        "<DOC>\n<DOCNO>AP 1\tx\\n</DOCNO>\n"
        "<TEXT>Wolfgang performed in Vienna in 1781.</TEXT>\n</DOC>\n",
        encoding="utf-8",
    )
    (tmp_path / "questions.xml").write_text(
        '<target text="Mozart">\n<q id="1\t1">When did Wolfgang play in Vienna?</q>\n</target>\n',
        encoding="utf-8",
    )
    (tmp_path / "gold.txt").write_text("1\t1 1781\n", encoding="utf-8")
    write_model(
        train_classifier([TrainingExample("NUM:date", "when was it built")]),
        tmp_path / "model.nb",
    )
    (tmp_path / "config.qa").write_text(
        "corpus_path = corpus.sgml\n"
        "index_path = index.qix\n"
        "questions_path = questions.xml\n"
        "classifier_model_path = model.nb\n"
        "answers_out_path = answers.txt\n"
        "gold_path = gold.txt\n"
        "report_out_path = report.txt\n"
        "questions.format = trec-xml\n",
        encoding="utf-8",
    )
    run_pipeline(load_config(tmp_path / "config.qa"), default_engines(), ALL_STAGES)
    assert load_analyses(tmp_path / "analysis.txt")[0].qid == "1\t1"
    (answer,) = load_answers(tmp_path / "answers.txt")
    assert (answer.qid, answer.answer, answer.supporting_doc) == ("1\t1", "1781", "AP 1\tx\\n")
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert report.startswith("accuracy = 1.000 (1/1)")


def test_programmatic_config_gets_param_defaults(tmp_path):
    from qapipe.config import PipelineConfig

    config = PipelineConfig(
        corpus_path=str(tmp_path / "c.tsv"),
        index_path=str(tmp_path / "i.qix"),
        questions_path=str(tmp_path / "q.txt"),
        answers_out_path=str(tmp_path / "a.txt"),
    )
    assert config.param("retrieval.k") == 50
    assert config.stage_params["questions.analysis_out"] == str(tmp_path / "analysis.txt")


def test_gazetteer_wired_through_answer_stage(tmp_path):
    config = fixture_config(tmp_path)
    (tmp_path / "people.txt").write_text("Marcus Greenfield\n", encoding="utf-8")
    body = (tmp_path / "config.qa").read_text(encoding="utf-8")
    (tmp_path / "config.qa").write_text(body + "extract.persons = people.txt\n", encoding="utf-8")
    config = load_config(tmp_path / "config.qa")
    manifest = run_pipeline(config, default_engines(), ALL_STAGES)
    assert str(tmp_path / "people.txt") in manifest.stages_run[2].inputs
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "accuracy = 1.000" in report
    answers = (tmp_path / "answers.txt").read_text(encoding="utf-8")
    assert "Marcus Greenfield" in answers


def test_desc_sentence_choice_uses_coverage_weight(tmp_path):
    from qapipe.classifier import TrainingExample, train_classifier, write_model
    from qapipe.answers import load_answers

    # With weights.coverage = 0 the first sentence scores 2.06 against 1.11;
    # the default coverage bonus of 2.0 would favour the second.
    (tmp_path / "corpus.tsv").write_text(
        "d1\t\tZeta zeta zeta is noted here. Zeta and alpha appear together here.\n"
        "d2\t\talpha one. alpha two. alpha three.\n"
        "d3\t\talpha four.\n",
        encoding="utf-8",
    )
    (tmp_path / "questions.txt").write_text("q1\tWhat is zeta alpha?\n", encoding="utf-8")
    write_model(
        train_classifier([TrainingExample("DESC:def", "what is an atoll")]),
        tmp_path / "model.nb",
    )
    (tmp_path / "config.qa").write_text(
        "corpus_path = corpus.tsv\n"
        "index_path = index.qix\n"
        "questions_path = questions.txt\n"
        "classifier_model_path = model.nb\n"
        "answers_out_path = answers.txt\n"
        "corpus.format = record-lines\n"
        "weights.coverage = 0\n",
        encoding="utf-8",
    )
    config = load_config(tmp_path / "config.qa")
    run_pipeline(config, default_engines(), ALL_STAGES[:3])
    (record,) = load_answers(tmp_path / "answers.txt")
    assert record.answer == "Zeta zeta zeta is noted here."


@pytest.mark.parametrize(
    "stage, source, sidecar",
    [
        (StageKind.INFO_SOURCE_PREP, "corpus.tsv", "index.qix.rejects"),
        (StageKind.QUESTION_PROCESSING, "questions.txt", "analysis.txt.rejects"),
    ],
)
def test_rerun_on_fixed_input_removes_stale_rejects(tmp_path, stage, source, sidecar):
    config = fixture_config(tmp_path)
    good = (tmp_path / source).read_text(encoding="utf-8")
    first, rest = good.split("\n", 1)
    (tmp_path / source).write_text(f"{first}\nno tabs here\n{rest}", encoding="utf-8")
    run_pipeline(config, default_engines(), [stage])
    assert (tmp_path / sidecar).read_text(encoding="utf-8").startswith("line 2\t")
    (tmp_path / source).write_text(good, encoding="utf-8")
    run_pipeline(config, default_engines(), [stage])
    assert not (tmp_path / sidecar).exists()
