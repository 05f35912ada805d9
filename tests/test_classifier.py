import random

import pytest

from qapipe.classifier import (
    CorruptModel,
    NoExamples,
    TrainingExample,
    classify_question,
    extract_features,
    load_model,
    parse_training_file,
    posterior,
    train_classifier,
    write_model,
)
from qapipe.errors import UsageError

from qapipe.serde import VersionMismatch

from conftest import framed, with_version


def test_feature_extraction_short_question():
    feats = extract_features("Who founded Intel?")
    assert feats == {
        "who": 1,
        "founded": 1,
        "intel": 1,
        "first2=who_founded": 1,
        "wh=who": 1,
        "len=1-3": 1,
    }


def test_feature_extraction_empty():
    assert extract_features("") == {"wh=none": 1, "len=1-3": 1}


def test_feature_extraction_wh_and_bigram():
    feats = extract_features("When did the war end")
    assert feats["wh=when"] == 1
    assert feats["first2=when_did"] == 1
    assert feats["len=4-7"] == 1


def test_feature_len_buckets():
    assert extract_features("one two three")["len=1-3"] == 1
    assert extract_features("a b c d e f g h")["len=8+"] == 1


DISJOINT = [
    TrainingExample("HUM:ind", "zoka rimba tellus"),
    TrainingExample("LOC:city", "velara monti corda"),
]


def test_separable_classes():
    model = train_classifier(DISJOINT, alpha=0.5)
    for ex in DISJOINT:
        result = classify_question(model, ex.text)
        assert result.label == ex.label
        assert result.confidence > 0.5


def test_alpha_must_be_positive():
    for alpha in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(UsageError, match="not positive and finite"):
            train_classifier(DISJOINT, alpha=alpha)


def test_no_examples():
    with pytest.raises(NoExamples):
        train_classifier([])


def test_unknown_features_fall_back_to_prior():
    # Both classes carry 12 feature tokens, so the smoothed unseen mass
    # cancels and an all-unknown input must follow the 2:1 prior.
    examples = [
        TrainingExample("HUM:ind", "zoka rimba tellus"),
        TrainingExample("HUM:ind", "bruni kelda vorn"),
        TrainingExample("LOC:city", "velara monti corda lysa petran ovale dunmar esti roal"),
    ]
    model = train_classifier(examples, alpha=1.0)
    result = classify_question(model, "who created those golden murals")
    assert result.label == "HUM:ind"


def test_posterior_normalizes():
    rng = random.Random(42)
    vocab = [f"v{i}" for i in range(40)]
    examples = [
        TrainingExample(label, " ".join(rng.choice(vocab) for _ in range(6)))
        for label in ("HUM:ind", "LOC:city", "NUM:date", "DESC:def")
        for _ in range(10)
    ]
    model = train_classifier(examples)
    for _ in range(200):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
        post = posterior(model, text)
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-6)


def test_training_is_permutation_invariant(tmp_path):
    rng = random.Random(1)
    examples = [
        TrainingExample("HUM:ind", f"who found item {i}") for i in range(20)
    ] + [TrainingExample("NUM:date", f"when did event {i} happen") for i in range(20)]
    shuffled = examples[:]
    rng.shuffle(shuffled)
    p1, p2 = tmp_path / "m1.nb", tmp_path / "m2.nb"
    write_model(train_classifier(examples), p1)
    write_model(train_classifier(shuffled), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scale_consistency_under_duplication():
    rng = random.Random(7)
    pools = {
        "HUM:ind": ["army", "borch", "carrin"],
        "LOC:city": ["delma", "erros", "fintu"],
        "NUM:count": ["gromm", "hilde", "ixara"],
    }
    examples = [
        TrainingExample(label, " ".join(rng.choice(pool) for _ in range(5)))
        for label, pool in pools.items()
        for _ in range(8)
    ]
    base = train_classifier(examples, alpha=1.0)
    tripled = train_classifier(examples * 3, alpha=1.0)
    for _ in range(100):
        pool = rng.choice(list(pools.values()))
        text = " ".join(rng.choice(pool) for _ in range(rng.randint(2, 6)))
        assert classify_question(base, text).label == classify_question(tripled, text).label


def test_model_round_trip(tmp_path):
    model = train_classifier(DISJOINT, alpha=0.25)
    path = tmp_path / "model.nb"
    write_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert loaded.class_priors == model.class_priors
    assert loaded.term_log_likelihoods == model.term_log_likelihoods


def test_model_version_mismatch_names_train_classifier(tmp_path):
    path = tmp_path / "model.nb"
    write_model(train_classifier(DISJOINT), path)
    with_version(path, 1)
    with pytest.raises(VersionMismatch) as exc:
        load_model(path)
    assert str(exc.value) == (
        f"{path}: QANUSNB1 version '1', expected 2; run 'qapipe train-classifier' to rewrite it"
    )


def test_model_bad_magic(tmp_path):
    path = tmp_path / "junk.nb"
    path.write_text("WHATEVER 1\n", encoding="utf-8")
    with pytest.raises(CorruptModel):
        load_model(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("alpha 0.0\nspace coarse\nlabel NUM 1\n", "line 2: alpha 0.0 is not positive"),
        ("alpha nan\nspace coarse\nlabel NUM 1\n", "line 2: alpha nan is not positive"),
        ("alpha 1.0\nspace coarse\nlabel NUM 0\n", "line 4: count 0 is not positive"),
        ("alpha 1.0\nspace coarse\nlabel PLANET 1\n", "line 4: unknown coarse class"),
        ("alpha 1.0\nspace coarse\nlabel NUM 1\nfeat HUM who 1\n", "line 5: feature of undeclared"),
        ("alpha 1e308\nspace coarse\nlabel NUM 1\nfeat NUM who 1\n", "out of numeric range"),
        ("alpha 1.0\nspace foo\nlabel NUM 1\n", "line 3: unknown label space 'foo'"),
        ("alpha 1.0\nspace coarse\nlabel HUM:ind 1\n", r"line 4: fine label 'HUM:ind' outside"),
    ],
)
def test_load_model_refuses_with_corrupt_model(tmp_path, body, message):
    path = tmp_path / "model.nb"
    path.write_bytes(framed("QANUSNB1 2\n" + body))
    with pytest.raises(CorruptModel, match=message):
        load_model(path)


def test_load_model_names_the_line_of_undecodable_bytes(tmp_path):
    path = tmp_path / "model.nb"
    path.write_bytes(framed(b"QANUSNB1 2\nalpha 1.0\nspace coarse\nlabel NUM 1\nfeat NUM \xff 1\n"))
    with pytest.raises(CorruptModel, match="line 5 is not valid UTF-8"):
        load_model(path)


def test_likelihoods_normalize_per_label():
    import math

    model = train_classifier(DISJOINT + [TrainingExample("NUM:date", "when era dawned")])
    for label in model.labels:
        total = sum(math.exp(v) for v in model.term_log_likelihoods[label].values())
        unseen = math.exp(model.unseen_log_likelihood[label])
        missing = len(model.vocabulary) - len(model.term_log_likelihoods[label])
        assert total + unseen * (missing + 1) == pytest.approx(1.0, abs=1e-6)


def test_coarse_only_label_space():
    model = train_classifier(DISJOINT, label_space="coarse")
    assert sorted(model.example_counts) == ["HUM", "LOC"]
    assert classify_question(model, "zoka rimba").label == "HUM"


def test_synthetic_500_training_set_accuracy():
    rng = random.Random(13)
    pools = {
        label: [f"{label.lower().replace(':', '_')}w{i}" for i in range(12)]
        for label in ("ABBR:exp", "DESC:def", "ENTY:animal", "HUM:ind", "LOC:city", "NUM:date")
    }
    examples = []
    for _ in range(500):
        label = rng.choice(list(pools))
        text = " ".join(rng.choice(pools[label]) for _ in range(rng.randint(4, 9)))
        examples.append(TrainingExample(label, text))
    model = train_classifier(examples)
    hits = sum(
        1 for ex in examples if classify_question(model, ex.text).label == ex.label
    )
    assert hits / len(examples) >= 0.95


def test_parse_training_file_rejects_bad_labels(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text(
        "HUM:ind Who did it ?\nBOGUS:xx Something else ?\nNUM:date When was it ?\n",
        encoding="utf-8",
    )
    examples, rejected = parse_training_file(path)
    assert [e.label for e in examples] == ["HUM:ind", "NUM:date"]
    assert len(rejected) == 1 and "line 2" in rejected[0]


def test_priors_normalize():
    import math

    model = train_classifier(DISJOINT + [TrainingExample("NUM:date", "when era dawned")])
    assert sum(math.exp(p) for p in model.class_priors.values()) == pytest.approx(
        1.0, abs=1e-6
    )
