"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (visible with `pytest -s tests/test_acceptance.py`).

Criteria and their budgets:
  1 accuracy formula exactness                      < 1 s
  2 BM25 ranking equals a brute-force oracle        < 10 s
  3 posting frequencies equal a naive recount       < 5 s
  4 classifier posterior/permutation/accuracy       < 10 s
  5 planted benchmark run-all accuracy >= 0.80      < 30 s
  6 byte-identical artifacts across reruns
  7 stage-at-a-time == single run-all
  8 index and model round-trip laws
"""

import random
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from qapipe.answers import AnswerRecord
from qapipe.classifier import (
    TrainingExample,
    classify_question,
    load_model,
    parse_training_file,
    posterior,
    train_classifier,
    write_model,
)
from qapipe.corpus import Document, parse_corpus
from qapipe.evaluation import evaluate_answers, format_report
from qapipe.index import build_index, load_index, write_index
from qapipe.retrieval import retrieve_documents

from conftest import make_record_corpus, random_docs, run_cli
from test_retrieval import brute_force_bm25

ARTIFACTS = ("index.qix", "analysis.txt", "answers.txt", "report.txt")


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    print(f"criterion {number:02d} {name}: PASS")


def test_criterion_1_accuracy_formula_exactness():
    with criterion(1, "accuracy-formula"):
        t0 = time.perf_counter()
        gold = {f"q{i}": ["hit"] for i in range(10)}
        answers = [
            AnswerRecord(f"q{i}", "hit" if i < 3 else "miss", "D1", 1.0)
            for i in range(10)
        ]
        report = evaluate_answers(answers, gold)
        assert Fraction(report.correct_count, report.total_questions) == Fraction(3, 10)
        assert format_report(report).splitlines()[0].startswith("accuracy = 0.300")

        zero = evaluate_answers(
            [AnswerRecord(f"q{i}", "miss", "D1", 1.0) for i in range(10)], gold
        )
        assert zero.correct_count == 0
        assert format_report(zero).splitlines()[0].startswith("accuracy = 0.000")
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_bm25_oracle_equivalence():
    with criterion(2, "bm25-oracle"):
        t0 = time.perf_counter()
        docs = random_docs(200, seed=101)
        idx = build_index(Document(d, t, ()) for d, t in docs.items())
        vocab = sorted({w for text in docs.values() for w in re.findall(r"[^\W_]+", text)})
        rng = random.Random(102)
        for _ in range(20):
            query = list(dict.fromkeys(rng.choice(vocab) for _ in range(rng.randint(1, 4))))
            mine = retrieve_documents(idx, query, k=10)
            oracle = brute_force_bm25(docs, query, k=10)
            assert [r.doc_id for r in mine] == [d for d, _ in oracle]
            for r, (_, score) in zip(mine, oracle):
                assert r.retrieval_score == pytest.approx(score, rel=1e-9)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_recount_oracle(tmp_path):
    with criterion(3, "recount-oracle"):
        t0 = time.perf_counter()
        docs = random_docs(50, seed=103)
        path = make_record_corpus(tmp_path / "c.tsv", docs)
        idx = build_index(parse_corpus(path, "record-lines"))
        from collections import Counter

        naive = {
            d: Counter(re.findall(r"[^\W_]+", t.lower())) for d, t in docs.items()
        }
        pairs = 0
        for term in idx.cells:
            for doc_id, tf in idx.postings(term):
                assert tf == naive[doc_id][term]
                pairs += 1
        assert pairs == sum(len(c) for c in naive.values())
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_classifier_properties(tmp_path):
    with criterion(4, "classifier-properties"):
        t0 = time.perf_counter()
        rng = random.Random(104)
        labels = ("ABBR:exp", "DESC:def", "ENTY:animal", "HUM:ind", "LOC:city", "NUM:date")
        pools = {
            label: [f"{label.split(':')[1]}{i}" for i in range(12)] for label in labels
        }

        # Posterior normalization over 1,000 random questions.
        examples = [
            TrainingExample(label, " ".join(rng.choice(pools[label]) for _ in range(6)))
            for label in labels
            for _ in range(20)
        ]
        model = train_classifier(examples)
        all_words = [w for pool in pools.values() for w in pool]
        for _ in range(1000):
            text = " ".join(rng.choice(all_words) for _ in range(rng.randint(1, 12)))
            assert sum(posterior(model, text).values()) == pytest.approx(1.0, abs=1e-6)

        # Shuffled training file -> byte-identical model file.
        lines = [f"{ex.label} {ex.text}" for ex in examples]
        shuffled = lines[:]
        rng.shuffle(shuffled)
        f1, f2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
        f1.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        f2.write_text("".join(l + "\n" for l in shuffled), encoding="utf-8")
        m1, m2 = tmp_path / "m1.nb", tmp_path / "m2.nb"
        write_model(train_classifier(parse_training_file(f1)[0]), m1)
        write_model(train_classifier(parse_training_file(f2)[0]), m2)
        assert m1.read_bytes() == m2.read_bytes()

        # 500 examples from disjoint per-class vocabularies: >= 0.95 on train.
        synth = []
        for _ in range(500):
            label = rng.choice(labels)
            synth.append(
                TrainingExample(
                    label, " ".join(rng.choice(pools[label]) for _ in range(rng.randint(4, 9)))
                )
            )
        synth_model = train_classifier(synth)
        hits = sum(
            1 for ex in synth if classify_question(synth_model, ex.text).label == ex.label
        )
        assert hits / len(synth) >= 0.95
        assert time.perf_counter() - t0 < 10.0


def read_accuracy(report_path: Path) -> float:
    first = report_path.read_text(encoding="utf-8").splitlines()[0]
    return float(first.split("=")[1].split("(")[0].strip())


def test_criterion_5_planted_benchmark(planted_dir):
    with criterion(5, "planted-benchmark"):
        t0 = time.perf_counter()
        result = run_cli("run-all", "--config", "config.qa", cwd=planted_dir)
        elapsed = time.perf_counter() - t0
        assert result.returncode == 0, result.stderr
        assert read_accuracy(planted_dir / "report.txt") >= 0.80
        assert elapsed < 30.0


def test_criterion_6_rerun_determinism(planted_dir):
    with criterion(6, "determinism"):
        result = run_cli("run-all", "--config", "config.qa", cwd=planted_dir)
        assert result.returncode == 0, result.stderr
        before = {name: (planted_dir / name).read_bytes() for name in ARTIFACTS}
        result = run_cli("run-all", "--config", "config.qa", cwd=planted_dir)
        assert result.returncode == 0, result.stderr
        for name in ARTIFACTS:
            assert (planted_dir / name).read_bytes() == before[name], name


def test_criterion_7_stage_independence(planted_dir, tmp_path):
    with criterion(7, "stage-independence"):
        from qapipe.synth import write_fixture

        write_fixture(tmp_path)  # same seed -> byte-identical inputs
        result = run_cli(
            "train-classifier", "--train-file", "train.txt", "--out", "model.nb",
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        for command in ("index", "process-questions", "answer", "evaluate"):
            result = run_cli(command, "--config", "config.qa", cwd=tmp_path)
            assert result.returncode == 0, (command, result.stderr)

        result = run_cli("run-all", "--config", "config.qa", cwd=planted_dir)
        assert result.returncode == 0, result.stderr
        for name in ARTIFACTS:
            assert (tmp_path / name).read_bytes() == (planted_dir / name).read_bytes(), name


def test_criterion_8_round_trip_laws(planted_dir, tmp_path):
    with criterion(8, "round-trip"):
        idx = build_index(
            parse_corpus(planted_dir / "corpus.tsv", "record-lines")
        )
        index_path = tmp_path / "rt.qix"
        write_index(idx, index_path)
        assert load_index(index_path) == idx

        examples, _ = parse_training_file(planted_dir / "train.txt")
        model = train_classifier(examples)
        model_path = tmp_path / "rt.nb"
        write_model(model, model_path)
        assert load_model(model_path) == model
