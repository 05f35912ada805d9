import random

from qapipe.stopwords import STOPWORDS, STOPWORDS_ORDERED
from qapipe.text import tokenize


def surfaces(tokens):
    return [t.surface for t in tokens]


def test_tokenize_splits_on_nonalnum_runs():
    assert surfaces(tokenize("The U.S. economy grew 3.5%")) == [
        "the", "u", "s", "economy", "grew", "3", "5",
    ]


def test_tokenize_punctuation_and_dashes():
    assert surfaces(tokenize("Beijing, China—2004")) == ["beijing", "china", "2004"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_positions_and_offsets():
    text = "Alpha  beta, gamma"
    tokens = tokenize(text)
    assert [t.position for t in tokens] == [0, 1, 2]
    for t in tokens:
        assert text[t.char_offset : t.char_offset + len(t.surface)].lower() == t.surface


def test_positions_strictly_increase_on_random_text():
    rng = random.Random(0)
    chars = "ab12 .,-\t\n"
    for _ in range(50):
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 80)))
        tokens = tokenize(text)
        assert all(a.position + 1 == b.position for a, b in zip(tokens, tokens[1:]))
        assert all(t.surface and not t.surface.isspace() for t in tokens)


def test_stoplist_is_the_documented_127_words():
    assert len(STOPWORDS_ORDERED) == 127
    assert len(STOPWORDS) == 127
    for word in ("what", "is", "the", "of", "when", "was", "he", "who", "where", "how"):
        assert word in STOPWORDS
