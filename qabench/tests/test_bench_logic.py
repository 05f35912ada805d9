"""Tests for the benchmark's own logic (run: python3 -m pytest qabench/tests)."""

import sys

import pytest

import fixtures
import layers
from procs import Repl, program_env, run_program
import speed
from stats import covered, median_each, percentile, relative_iqr, self_time


def _fixture_bytes(out_dir, seed, fmt):
    paths = fixtures.write_zipf_fixture(out_dir, seed, num_docs=400, num_questions=200,
                                        corpus_format=fmt)
    return {name: p.read_bytes() for name, p in paths.items()}


@pytest.mark.parametrize("fmt", ["record-lines", "trec-sgml"])
def test_generator_same_seed_gives_identical_bytes(tmp_path, fmt):
    assert _fixture_bytes(tmp_path / "a", 5, fmt) == _fixture_bytes(tmp_path / "b", 5, fmt)


def test_generator_different_seed_gives_different_bytes(tmp_path):
    a = _fixture_bytes(tmp_path / "a", 5, "record-lines")
    b = _fixture_bytes(tmp_path / "b", 6, "record-lines")
    assert a["corpus"] != b["corpus"]
    assert a["gold"] != b["gold"]


def test_generator_plants_every_question_in_paragraphed_documents():
    docs, questions = fixtures.generate_zipf(3, num_docs=500, num_questions=400)
    assert len(docs) == 500
    assert len(questions) == 400
    assert len({q for _, q, _ in questions}) == 400
    assert all(len(paras) >= 2 for _, paras in docs)


def test_generator_needs_a_document_and_a_pair_per_question():
    with pytest.raises(ValueError):
        fixtures.generate_zipf(3, num_docs=199, num_questions=200)
    with pytest.raises(ValueError):
        fixtures.generate_zipf(3, num_docs=500, num_questions=401)


def test_median_each_is_per_key():
    runs = [{"a": 3.0, "b": 1.0}, {"b": 4.0, "a": 2.0}, {"a": 9.0, "b": 2.0}]
    assert median_each(runs) == {"a": 3.0, "b": 2.0}
    with pytest.raises(ValueError):
        median_each([{"a": 1.0}, {"a": 1.0, "b": 2.0}])


def test_scaled_time_cancels_a_slow_host():
    # Readings at the reference speed leave a time as it is; readings
    # twice as slow halve it, whatever the wall time.
    ref = speed.REFERENCE_S
    assert speed.scaled(1.5, ref, ref) == pytest.approx(1.5)
    assert speed.scaled(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert speed.scaled(3.0, 1 * ref, 3 * ref) == pytest.approx(1.5)
    assert speed.reading() > 0


def test_self_time_subtracts_union_of_overlapping_children():
    # Children cover [1, 6] and [8, 10] inside the parent [0, 10]: 7 s.
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert covered(children, 0.0, 10.0) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_span_tree_self_time(tmp_path):
    lines = [
        "1\t0\tretrieval.retrieve\tq1\t1.0\t4.0\t-",
        "2\t0\tretrieval.score_passage\tq1\t3.0\t6.0\t-",
        "3\t2\ttext.tokenize.retrieval\tq1\t3.5\t5.0\ttokens=7",
        "0\t-1\textraction.answer_question\tq1\t0.0\t10.0\t-",
    ]
    path = tmp_path / "x.spans"
    path.write_text("".join(l + "\n" for l in lines))
    spans = {s.id: s for s in layers.read_spans(path)}
    assert spans[0].self_time == pytest.approx(5.0)
    assert spans[2].self_time == pytest.approx(1.5)
    assert spans[3].counts == {"tokens": 7}


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(200)), 95) == 189
    assert percentile(list(range(199)), 95) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None
    assert percentile(list(range(20)), 95, min_beyond=1) == 18


def test_relative_iqr():
    assert relative_iqr([10.0] * 5) == 0.0
    assert relative_iqr([9.0, 10.0, 10.0, 10.0, 11.0]) == pytest.approx(0.1)


def test_peak_rss_is_taken_per_child(tmp_path):
    env = program_env(str(tmp_path))
    big = run_program([sys.executable, "-c", "x = b'x' * (80 << 20)"], tmp_path, env)
    small = run_program([sys.executable, "-c", "pass"], tmp_path, env)
    assert big.returncode == small.returncode == 0
    assert big.maxrss_mb > 80
    # Reaped after the big child: an all-children maximum would report 80+ MB.
    assert small.maxrss_mb < 60


def test_repl_replies_and_death(tmp_path):
    echo = "import sys\nfor line in sys.stdin:\n    print(line.strip().upper(), flush=True)\n"
    env = program_env(str(tmp_path))
    repl = Repl([sys.executable, "-c", echo], tmp_path, env, reply_timeout=10)
    assert repl.ask("hello") == "HELLO"
    assert repl.ask("again") == "AGAIN"
    assert repl.close() == 0
    assert repl.maxrss_mb > 0

    dead = Repl([sys.executable, "-c", "pass"], tmp_path, env, reply_timeout=10)
    assert dead.ask("anyone?") is None
    assert dead.close() == 0
