"""Seeded benchmark inputs.

Two fixture kinds, both written into one directory with a ready-to-run
config:

planted
    `qapipe.synth.write_fixture`, used as it is: 20 planted questions
    whose query terms each occur in about one document, so retrieval has
    nothing to rank.

zipf
    The same answer shapes planted into filler drawn from a seeded Zipf
    distribution over a few thousand generated words. The fixture's
    adjectives, nouns and question verbs sit among the high-rank words,
    so query terms have document frequencies in the hundreds and BM25,
    passage scoring and ranking do real work. Each question gets its
    own adjective-noun pair, drawn from the 20 x 20 there are, and its
    own document. The documents are written
    both as record-lines and as trec-sgml with <P> paragraphs.

The same seed gives byte-identical files; the program under test sees
only the files.
"""

import random
from pathlib import Path

from qapipe import synth
from qapipe.stopwords import STOPWORDS

_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")
_ORGS = ("Company", "Guild", "Society", "League", "Trust")

# Words of the planted questions and sentences that become query terms.
_QUERY_VERBS = ("completed", "cannons", "carry", "founded", "located", "stand")
_ANCHOR_RANKS = (20, 120)  # query words are spread over these Zipf ranks
_VOCAB_SIZE = 3000
_ZIPF_EXPONENT = 1.0

SHAPES = ("date", "count", "founder", "location", "stands-for", "definition")


def _generated_words(rng: random.Random, count: int, exclude: set[str]) -> list[str]:
    words: list[str] = []
    seen = set(exclude)
    while len(words) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf_vocabulary(rng: random.Random, size: int) -> list[str]:
    """Filler words by rank; query words are placed among the high ranks."""
    anchors = list(synth._ADJECTIVES + synth._NOUNS + _QUERY_VERBS)
    rng.shuffle(anchors)
    exclude = set(STOPWORDS) | set(anchors) | {m.lower() for m in synth._MONTHS}
    vocab = _generated_words(rng, size - len(anchors), exclude)
    lo, hi = _ANCHOR_RANKS
    for i, word in enumerate(anchors):
        vocab.insert(lo + i * (hi - lo) // (len(anchors) - 1), word)
    return vocab


def _planted(shape: str, adj: str, noun: str, rng: random.Random, vocab: list[str]):
    """(question, planted sentence, gold regex) for one adjective-noun pair."""
    if shape == "date":
        day, month, year = rng.randint(1, 28), rng.choice(synth._MONTHS), rng.randint(1800, 1950)
        return (
            f"When was the {adj} {noun} completed?",
            f"The {adj} {noun} was completed on {day} {month} {year} "
            "after long seasons of labour.",
            rf"{day}\s+{month}\s+{year}",
        )
    if shape == "count":
        n = rng.randint(12, 99)
        return (
            f"How many cannons did the {adj} {noun} carry?",
            f"The {adj} {noun} was built to carry {n} cannons across the strait.",
            rf"\b{n}\b",
        )
    if shape == "founder":
        name = f"{rng.choice(synth._FIRST_NAMES)} {rng.choice(synth._LAST_NAMES)}"
        return (
            f"Who founded the {adj} {noun}?",
            f"The {adj} {noun} was founded by {name} during a harsh winter.",
            name.replace(" ", r"\s+"),
        )
    if shape == "location":
        place = rng.choice(synth._PLACES)
        return (
            f"Where is the {adj} {noun} located?",
            f"The {adj} {noun} is located near {place}, a quiet settlement by the water.",
            place.replace(" ", r"\s+"),
        )
    tail = vocab[len(vocab) // 2 :]
    if shape == "stands-for":
        org = f"{rng.choice(tail).capitalize()} {rng.choice(tail).capitalize()} {rng.choice(_ORGS)}"
        return (
            f"What does the {adj} {noun} stand for?",
            f"The {adj} {noun} is said to stand for the {org} of old.",
            org.replace(" ", r"\s+"),
        )
    x, y, z = rng.choice(tail), rng.choice(tail), rng.choice(tail)
    article = "An" if adj[0] in "aeiou" else "A"
    return (
        f"What is {article.lower()} {adj} {noun}?",
        f"{article} {adj} {noun} is a kind of {x} {y}, and every {adj} {noun} "
        f"is kept by the {z} guild.",
        rf"kind\s+of\s+{x}\s+{y}",
    )


def _filler_sentence(rng: random.Random, vocab: list[str], cum: list[float]) -> str:
    words = rng.choices(vocab, cum_weights=cum, k=rng.randint(7, 12))
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def generate_zipf(seed: int, num_docs: int, num_questions: int):
    """Documents (id, list of paragraphs of sentences) and (qid, question, gold)."""
    rng = random.Random(seed)
    vocab = zipf_vocabulary(rng, _VOCAB_SIZE)
    cum: list[float] = []
    total = 0.0
    for rank in range(1, len(vocab) + 1):
        total += rank ** -_ZIPF_EXPONENT
        cum.append(total)

    pairs = [(a, n) for a in synth._ADJECTIVES for n in synth._NOUNS]
    if num_questions > len(pairs):
        raise ValueError(f"at most {len(pairs)} questions, one per adjective-noun pair")
    if num_docs < num_questions:
        raise ValueError(f"need at least one document per question ({num_questions})")
    rng.shuffle(pairs)
    del pairs[num_questions:]
    items = [_planted(SHAPES[i % len(SHAPES)], a, n, rng, vocab) for i, (a, n) in enumerate(pairs)]
    planted_doc = dict(zip(rng.sample(range(num_docs), len(items)), range(len(items))))

    docs = []
    for d in range(num_docs):
        sentences = [_filler_sentence(rng, vocab, cum) for _ in range(rng.randint(4, 6))]
        q = planted_doc.get(d)
        if q is not None:
            sentences.insert(rng.randint(1, len(sentences) - 1), items[q][1])
        cuts = sorted(rng.sample(range(1, len(sentences)), rng.randint(1, 2)))
        paragraphs = [sentences[a:b] for a, b in zip([0] + cuts, cuts + [len(sentences)])]
        docs.append((f"D{d:05d}", paragraphs))
    questions = [(f"q{i + 1:03d}", q, g) for i, (q, _, g) in enumerate(items)]
    return docs, questions


def _config(corpus_name: str, fmt: str) -> str:
    return (
        "# generated benchmark fixture\n"
        f"corpus_path = {corpus_name}\n"
        "index_path = index.qix\n"
        "questions_path = questions.txt\n"
        "classifier_model_path = model.nb\n"
        "answers_out_path = answers.txt\n"
        "gold_path = gold.txt\n"
        "report_out_path = report.txt\n"
        f"corpus.format = {fmt}\n"
        "questions.format = qline\n"
    )


def write_zipf_fixture(out_dir, seed: int, num_docs: int, num_questions: int,
                       corpus_format: str) -> dict[str, Path]:
    """Write the zipf fixture in one corpus format; return its paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs, questions = generate_zipf(seed, num_docs, num_questions)
    if corpus_format == "record-lines":
        corpus_name = "corpus.tsv"
        corpus = "".join(
            f"{doc_id}\t\t{' '.join(s for p in paras for s in p)}\n" for doc_id, paras in docs
        )
    elif corpus_format == "trec-sgml":
        corpus_name = "corpus.sgml"
        corpus = "".join(
            f"<DOC>\n<DOCNO> {doc_id} </DOCNO>\n<TEXT>\n"
            + "".join(f"<P>\n{' '.join(p)}\n</P>\n" for p in paras)
            + "</TEXT>\n</DOC>\n"
            for doc_id, paras in docs
        )
    else:
        raise ValueError(f"unknown corpus format {corpus_format!r}")
    paths = {
        "corpus": out / corpus_name,
        "questions": out / "questions.txt",
        "gold": out / "gold.txt",
        "train": out / "train.txt",
        "config": out / "config.qa",
    }
    paths["corpus"].write_text(corpus, encoding="utf-8")
    paths["questions"].write_text("".join(f"{i}\t{q}\n" for i, q, _ in questions), encoding="utf-8")
    paths["gold"].write_text("".join(f"{i} {g}\n" for i, _, g in questions), encoding="utf-8")
    paths["train"].write_text("".join(l + "\n" for l in synth.TRAINING_LINES), encoding="utf-8")
    paths["config"].write_text(_config(corpus_name, corpus_format), encoding="utf-8")
    return paths


def read_questions(path) -> list[tuple[str, str]]:
    """(qid, question) pairs from a qline file."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        qid, _, text = line.partition("\t")
        out.append((qid, text))
    return out
