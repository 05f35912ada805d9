"""Four-stage pipeline skeleton: stage contracts, validation, and serial
run orchestration.

A QA system is one engine per stage, a mapping from `StageKind` to a
callable that takes the config and returns a one-line detail for the
manifest. `StageKind`'s definition order is the pipeline order.

Stages hand off through files at the paths named in the config, never
through memory, so any subset of stages can run in its own process and
produce byte-identical artifacts. Stage outputs carry no timestamps;
wall-clock data lives only in the run manifest, whose `stages_run` list
grows as the stages run.
"""

import time
from collections.abc import Callable, Mapping
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .config import ConfigIssue, PipelineConfig, ValidationFailed
from .errors import QAError, UsageError
from .serde import atomic_write_text


class StageKind(Enum):
    INFO_SOURCE_PREP = "info-source-prep"
    QUESTION_PROCESSING = "question-processing"
    ANSWER_RETRIEVAL = "answer-retrieval"
    EVALUATION = "evaluation"


Engine = Callable[[PipelineConfig], str]  # runs one stage, returns its detail line


class OrderViolation(UsageError):
    pass


class StageFailure(QAError):
    def __init__(self, stage: StageKind, cause: BaseException):
        super().__init__(f"stage {stage.value} failed: {cause}")
        self.stage = stage


def stage_files(config: PipelineConfig, stage: StageKind) -> tuple[list[str], list[str]]:
    """(inputs, outputs): the paths `stage` reads and writes. The model, the
    gazetteers, the gold and the report are listed only when they are set."""
    analyses = config.param("questions.analysis_out")
    gazetteers = [config.param("extract.persons"), config.param("extract.locations")]
    return {
        StageKind.INFO_SOURCE_PREP: ([config.corpus_path], [config.index_path]),
        StageKind.QUESTION_PROCESSING: (
            [config.questions_path, *filter(None, [config.classifier_model_path])], [analyses]
        ),
        StageKind.ANSWER_RETRIEVAL: (
            [config.index_path, *filter(None, [analyses, *gazetteers])], [config.answers_out_path]
        ),
        StageKind.EVALUATION: (
            [config.answers_out_path, *filter(None, [config.gold_path])],
            [*filter(None, [config.report_out_path])],
        ),
    }[stage]


def _producers(config: PipelineConfig) -> dict[str, StageKind]:
    """Artifact path -> the stage that produces it; the report is no stage's input."""
    return {path: s for s in list(StageKind)[:-1] for path in stage_files(config, s)[1]}


def validate_config(
    config: PipelineConfig, stages_requested: set[StageKind]
) -> list[ConfigIssue]:
    """Empty list iff every requested stage can run against this config."""
    issues = []
    producers = _producers(config)
    for stage in StageKind:
        if stage not in stages_requested:
            continue
        if stage is StageKind.QUESTION_PROCESSING and not config.classifier_model_path:
            issues.append(
                ConfigIssue("MissingModelPath", "classifier_model_path is not set")
            )
        if stage is StageKind.EVALUATION and not config.gold_path:
            issues.append(ConfigIssue("MissingGoldPath", "gold_path is not set"))
        inputs, outputs = stage_files(config, stage)
        for path in inputs:
            if producers.get(path) in stages_requested:
                continue  # will exist by the time this stage runs
            if not Path(path).is_file():
                issues.append(ConfigIssue("MissingFile", path))
        for path in outputs:
            if not Path(path).parent.is_dir():
                issues.append(ConfigIssue("MissingDir", str(Path(path).parent)))
    return issues


class StageRun(NamedTuple):
    stage: StageKind
    duration_s: float
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    detail: str = ""


class RunManifest(NamedTuple):
    """When a run started, its config's digest, and each stage it ran."""

    started_at: str
    config_digest: str
    stages_run: list[StageRun]


def run_pipeline(
    config: PipelineConfig,
    engines: Mapping[StageKind, Engine],
    stages: list[StageKind],
) -> RunManifest:
    """Run the requested stages serially with their engines; abort on first failure."""
    if not stages:
        raise OrderViolation("no stages requested")
    order = {stage: i for i, stage in enumerate(StageKind)}
    indices = [order[s] for s in stages]
    if indices != sorted(set(indices)):
        raise OrderViolation(f"stages out of pipeline order: {[s.value for s in stages]}")
    if missing := [s.value for s in stages if s not in engines]:
        raise UsageError(f"no engine for stages: {missing}")

    issues = validate_config(config, set(stages))
    producers = _producers(config)
    for issue in issues:
        if issue.code == "MissingFile" and issue.detail in producers:
            raise OrderViolation(
                f"{issue.detail} does not exist and {producers[issue.detail].value}, "
                "which makes it, is not requested"
            )
    if issues:
        raise ValidationFailed(issues)

    manifest = RunManifest(datetime.now(timezone.utc).isoformat(), config.digest(), [])
    for stage in stages:
        t0 = time.perf_counter()
        try:
            detail = engines[stage](config)
        except Exception as exc:
            raise StageFailure(stage, exc) from exc
        inputs, outputs = stage_files(config, stage)
        manifest.stages_run.append(
            StageRun(stage, time.perf_counter() - t0, tuple(inputs), tuple(outputs), detail)
        )
    anchor = config.report_out_path or config.answers_out_path
    write_manifest(manifest, Path(anchor).parent / "run_manifest.txt")
    return manifest


def write_manifest(manifest: RunManifest, path) -> None:
    """Write the manifest; stages not run this time keep their entries from the
    manifest at `path` if it has the same config digest, in pipeline order."""
    blocks: dict[str, str] = {}
    if Path(path).is_file():
        text = Path(path).read_text(encoding="utf-8", errors="replace")
        head, *earlier = text.rstrip("\n").split("\nstage = ")
        if head.endswith(f"\nconfig_digest = {manifest.config_digest}"):
            blocks = {block.partition("\n")[0]: f"stage = {block}" for block in earlier}
    for run in manifest.stages_run:
        lines = [
            f"stage = {run.stage.value}",
            f"  duration_s = {run.duration_s:.6f}",
            f"  inputs = {', '.join(run.inputs) or '-'}",
            f"  outputs = {', '.join(run.outputs) or '-'}",
        ] + ([f"  detail = {run.detail}"] if run.detail else [])
        blocks[run.stage.value] = "\n".join(lines)
    header = [f"started_at = {manifest.started_at}", f"config_digest = {manifest.config_digest}"]
    body = header + [blocks[stage.value] for stage in StageKind if stage.value in blocks]
    atomic_write_text(path, "".join(part + "\n" for part in body))
