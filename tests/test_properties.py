"""Property tests for the field codec and its unescape fast path, the record writer, the index file
format, tokenization and its ASCII path, query terms, the passage-score kernel and its memo,
the passages answering keeps, BM25 retrieval, its dict-union sum and its ties, answers and
extraction on a warm index, candidate word spans and proximity, candidate ranking, the
stage-file round trips, the stage-file loaders, the parsers of the files a user writes, the
TREC SGML scan against its regex form, the tab-separated line and sentence scanners against
their earlier forms, and `ask` against the staged pipeline."""

import hashlib
import math
import re
import string
import tempfile
from collections import Counter
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qapipe.classifier import (
    COARSE_FINE, COARSE_ONLY, CorruptModel, TrainingExample, load_model, parse_training_file,
    train_classifier, write_model,
)
from qapipe.answers import AnswerRecord, load_answers, write_answers
from qapipe.config import (
    OPTIONAL_PATH_KEYS, PARAM_SPECS, REQUIRED_PATH_KEYS, AnswerSettings, PipelineConfig,
    load_config,
)
from qapipe.corpus import (
    Document, MalformedRecord, _parse_record_lines, _parse_trec_sgml, parse_corpus,
)
from qapipe import extraction
from qapipe.errors import QAError
from qapipe.evaluation import load_gold
from qapipe.extraction import (
    GAZETTEER_BONUS, CandidateAnswer, _token_span, answer_question, extract_candidates,
    rank_candidates,
)
from qapipe import serde
from qapipe.index import CorruptIndex, InvertedIndex, build_index, load_index, write_index
from qapipe.pipeline import StageKind, run_pipeline
from qapipe.questions import (
    Question, QuestionAnalysis, _parse_qline, analyze, load_analyses, parse_questions,
    write_analyses,
)
from qapipe.stopwords import STOPWORDS
from qapipe.retrieval import (
    BM25_B, BM25_K1, Passage, PassageFeatures, ScoredDocument, query_weights,
    retrieve_documents, score_passage, score_term_tuples, segment_passages,
    split_sentences,
)
from qapipe.taxonomy import FINE_CLASSES, AnswerType
from qapipe.serde import (
    VersionMismatch, escape_field, read_records, unescape_field, write_records,
)
from qapipe.stages import default_engines
from qapipe.text import ASCII_TABLE, TOKEN_RE, terms, tokenize

from conftest import framed

# Escape letters, the characters escaping rewrites, and the line breaks
# that str.splitlines() would split on but escape_field leaves alone.
TRICKY = list("\\tnrN\t\n\r ") + ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
tricky_text = st.text(st.sampled_from(TRICKY) | st.characters(codec="utf-8"), max_size=30)


def reference_unescape(s: str) -> str:
    """The character loop unescape_field replaced, kept as the oracle."""
    out: list[str] = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            nxt = s[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


@given(tricky_text)
def test_unescape_inverts_escape(s):
    assert unescape_field(escape_field(s)) == s


@given(tricky_text)
def test_unescape_matches_reference_loop(s):
    assert unescape_field(s) == reference_unescape(s)


def regex_unescape(s: str) -> str:
    """unescape_field's regex form, one callback per escape."""
    table = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
    return re.sub(r"\\(.)", lambda m: table.get(m.group(1), m.group(1)), s, flags=re.DOTALL)


# Escapes known and unknown, doubled backslashes and lone ones, run together.
escape_runs = st.lists(st.sampled_from(
    ["\\", "\\\\", "\\t", "\\n", "\\r", "\\N", "\\q", "t", "n", "r", "a", "\t", "\n"]
), max_size=12).map("".join)


@example("\\\\n")          # an escaped backslash, then "n"
@example("\\\\\\\\t")      # two escaped backslashes, then "t"
@example("a\\n\\")          # a newline escape, then a lone trailing backslash
@example("\\q\\t")          # an unknown escape before a known one
@given(escape_runs | tricky_text | tricky_text.map(escape_field))
def test_unescape_fast_path_equals_regex_form(s):
    """The str.replace path, and the regex it leaves a field to when a
    backslash survives, decode every field as the regex alone does,
    escape_field's output included."""
    assert unescape_field(s) == regex_unescape(s)


# Words drawn from a few, so that terms recur across documents.
shared_words = st.lists(st.sampled_from(["pie", "Pie", "apple", "x1", "\t", "\n"]), max_size=8)
documents = st.builds(
    Document,
    doc_id=tricky_text,
    text=tricky_text | shared_words.map(" ".join),
    paragraph_spans=st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3
    ).map(tuple),
)


def reference_write_index(docs, path):
    """build_index and write_index spelled out: a dict of (doc_id, tf) lists
    sorted by doc id, each cell encoded through an ordinals map as the gap
    from the term's previous ordinal, with `:tf` when tf is 2 or more.
    Returns those lists."""
    tf_acc: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    stored: dict[str, Document] = {}
    for doc in docs:
        words = terms(doc.text)
        doc_lengths[doc.doc_id] = len(words)
        stored[doc.doc_id] = doc
        for term, tf in Counter(words).items():
            tf_acc.setdefault(term, {})[doc.doc_id] = tf
    postings = {
        term: sorted(by_doc.items())
        for term, by_doc in tf_acc.items()
    }
    total = sum(map(len, postings.values()))
    lines = [f"stats\tdocs={len(stored)}\tterms={len(postings)}\tpostings={total}"]
    doc_ids = sorted(stored)
    ordinals = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    for doc_id in doc_ids:
        doc = stored[doc_id]
        spans = ",".join(f"{a}:{b}" for a, b in doc.paragraph_spans) or "-"
        lines.append(
            "doc\t{}\t{}\t{}\t{}".format(
                escape_field(doc.doc_id), doc_lengths[doc_id], spans, escape_field(doc.text),
            )
        )
    for term in sorted(postings):
        cells, previous = [], 0
        for doc_id, tf in postings[term]:
            cells.append(str(ordinals[doc_id] - previous) + (f":{tf}" if tf > 1 else ""))
            previous = ordinals[doc_id]
        lines.append("term\t" + term + "\t" + "\t".join(cells))
    write_records(path, "QANUSIDX", 4, lines)
    return postings


@settings(max_examples=50)
@given(st.lists(documents, max_size=5, unique_by=lambda d: d.doc_id))
def test_index_round_trip(tmp_path_factory, docs):
    idx = build_index(docs)
    out = tmp_path_factory.mktemp("prop")
    write_index(idx, out / "idx.qix")
    postings = reference_write_index(docs, out / "ref.qix")
    assert (out / "idx.qix").read_bytes() == (out / "ref.qix").read_bytes()
    loaded = load_index(out / "idx.qix")
    assert loaded == idx  # every term's cells included
    for index in (idx, loaded):
        assert {t: index.postings(t) for t in index.cells} == postings
    write_index(loaded, out / "again.qix")
    assert (out / "again.qix").read_bytes() == (out / "idx.qix").read_bytes()


# Paragraph text with the characters a doc record escapes; no "<", so
# each paragraph stays one <P> element.
PARAGRAPH_PIECES = ["\t", "\n", "\r", "\r\n", "\\", "\\t", "\\n", " ", "pie", "Mill", "é", "."]
paragraph_text = st.lists(st.sampled_from(PARAGRAPH_PIECES), max_size=8).map("".join)
sgml_docs = st.lists(
    st.tuples(st.sampled_from(["d1", "d2", "a\\b", "x\ty", "é3"]),
              st.lists(paragraph_text, max_size=4)),
    max_size=5, unique_by=lambda d: d[0],
)


@settings(max_examples=200)
@given(sgml_docs, st.lists(documents, max_size=5, unique_by=lambda d: d.doc_id))
def test_document_reads_equal_the_indexed_documents(tmp_path_factory, sgml, drawn):
    """Every document read through `document`, on a built index and on a
    written and loaded one, equals the document indexed: each document of a
    parsed trec-sgml corpus with <P> paragraphs, and each drawn one."""
    out = tmp_path_factory.mktemp("docs")
    (out / "corpus.sgml").write_text("".join(
        f"<DOC>\n<DOCNO>{doc_id}</DOCNO>\n<TEXT>\n"
        + "".join(f"<P>{p}</P>\n" for p in paragraphs) + "</TEXT>\n</DOC>\n"
        for doc_id, paragraphs in sgml
    ), encoding="utf-8", newline="")
    parsed = list(parse_corpus(out / "corpus.sgml", "trec-sgml"))
    assert [d.doc_id for d in parsed] == [doc_id for doc_id, _ in sgml]
    for docs in (parsed, drawn):
        built = build_index(docs)
        write_index(built, out / "idx.qix")
        loaded = load_index(out / "idx.qix")
        for doc in docs:
            assert built.document(doc.doc_id) == doc == loaded.document(doc.doc_id)


@given(st.text())
def test_terms_are_the_token_surfaces(text):
    assert terms(text) == [t.surface for t in tokenize(text)]


# Words with non-ASCII case mappings; "İ" lowers to two characters.
UNICODE_WORDS = ["İstanbul", "İ", "Straße", "ΣΊΣΥΦΟΣ", "ǅemal", "ﬁre", "x"]


def reference_terms(text):
    """terms() as it was before its ASCII path: each regex match, lowered."""
    return [w.lower() for w in TOKEN_RE.findall(text)]


# ASCII weighted to what the table maps to a space: punctuation, "_",
# whitespace and control characters, between letters and digits.
ascii_text = st.text(
    st.sampled_from(string.punctuation + string.whitespace + "\x00\x1c\x1f\x7f")
    | st.characters(max_codepoint=127),
    max_size=40,
)
# Non-ASCII text: case mappings that change length, final sigma, and
# letters and digits outside ASCII, mixed with any other character.
unicode_text = st.lists(
    st.sampled_from(UNICODE_WORDS + ["ΑΣ", "σ", "ς", "٣٤", "²", "Ⅻ", "_", " ", "."])
    | st.characters(),
    max_size=12,
).map("".join)


@given(ascii_text)
def test_terms_of_ascii_text_match_the_per_match_reference(text):
    assert terms(text) == reference_terms(text)


@given(unicode_text)
def test_terms_of_unicode_text_match_the_per_match_reference(text):
    assert terms(text) == reference_terms(text)


def test_ascii_table_keeps_exactly_what_the_token_regex_matches():
    for code in range(128):
        kept = chr(code) if TOKEN_RE.fullmatch(chr(code)) else " "
        assert chr(ASCII_TABLE[code]) == kept, repr(chr(code))


@given(
    st.from_regex(r"[A-Z0-9]{1,8}", fullmatch=True),
    st.integers(0, 99),
    st.lists(tricky_text.map(lambda s: s.replace("\n", "")), max_size=8),
    st.sampled_from([1, 2, 3, 7, 64, 1 << 16]),
)
def test_write_records_writes_the_framed_records(tmp_path_factory, magic, version, lines, chunk):
    """Whatever the block size, the lines are written whole, each once, in order."""
    path = tmp_path_factory.mktemp("records") / "file"
    with mock.patch.object(serde, "_CHUNK", chunk):
        write_records(path, magic, version, iter(lines))
    header = f"{magic} {version}\n"
    assert path.read_bytes() == framed(header + "".join(line + "\n" for line in lines))
    assert list(read_records(path, magic, version, QAError, "qapipe index")) == lines


def reference_read_records(path, magic, version, error, rewrite):
    """read_records as it was: the file's bytes, its text and its lines held at once."""
    raw = Path(path).read_bytes()
    header = raw.partition(b"\n")[0].split(b" ")
    if header[0] != magic.encode("ascii"):
        raise error(f"{path}: bad magic {header[0][:16]!r}, expected {magic}")
    if header[1:] != [str(version).encode("ascii")]:
        found = b" ".join(header[1:]).decode("utf-8", "replace")
        raise VersionMismatch(
            f"{path}: {magic} version {found!r}, expected {version}; "
            f"run '{rewrite}' to rewrite it"
        )
    cut = raw.rfind(b"\nsha256\t") + 1
    digest = b"sha256\t%s\n" % hashlib.sha256(raw[:cut]).hexdigest().encode("ascii")
    if not cut or raw[cut:] != digest:
        raise error(f"{path}: digest mismatch: the file is damaged or truncated")
    try:
        return raw[:cut].decode("utf-8").split("\n")[1:-1]
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line_no} is not valid UTF-8") from exc


# Pieces of stage-file lines: digest-like records, carriage returns, UTF-8
# sequences of two to four bytes and their cut halves, and any bytes.
LINE_PIECES = st.sampled_from([
    b"sha256\t", b"\nsha256\t", b"sha256\t" + b"0" * 64, b"\r", b"\r\n", b"\t", b"term\tx",
    "é".encode(), "€".encode(), "😀".encode(), b"\xc3", b"\xe2\x82", b"\xff", b"\n",
]) | st.binary(max_size=6)


@st.composite
def stage_file_bytes(draw):
    """A header (right, of another version, or foreign), lines of LINE_PIECES,
    and mostly a digest line: right, of other bytes, cut short, or none."""
    header = draw(st.sampled_from([b"QANUSIDX 3\n", b"QANUSIDX 3 3\n", b"QANUSIDX 2\n",
                                   b"QANUSIDX 3", b"QANUSIDXX 3\n", b""]))
    lines = draw(st.lists(st.lists(LINE_PIECES, max_size=4).map(b"".join), max_size=6))
    body = header + b"\n".join(lines) + draw(st.sampled_from([b"\n", b"\n", b""]))
    ending = draw(st.sampled_from(["digest", "digest", "cut", "other", "twice", "none"]))
    if ending == "digest":
        return framed(body)
    if ending == "cut":
        raw = framed(body)
        return raw[:draw(st.integers(0, len(raw)))]
    if ending == "other":
        return body + framed(b"other bytes\n")[-72:]
    if ending == "twice":
        return framed(framed(body))
    return body


# The third chunk ends two bytes into "€", which the fourth completes
# before the bad byte and the newline after it.
@example(framed(b"QANUSIDX 3\na\xe2\x82\xac\xff\nb\n"), 7)
@settings(max_examples=400)
@given(stage_file_bytes(), st.sampled_from([1, 2, 3, 7, 64, 1 << 16]))
def test_streamed_read_accepts_and_yields_as_the_bulk_read(tmp_path_factory, raw, chunk):
    """read_records refuses, when called, each file the bulk reference refuses,
    with the same error and message; of every other file it yields the same
    records. Small chunks cut lines and UTF-8 sequences between reads."""
    path = tmp_path_factory.mktemp("records") / "index.qix"
    path.write_bytes(raw)
    args = (path, "QANUSIDX", 3, CorruptIndex, "qapipe index")
    try:
        expected = reference_read_records(*args)
    except QAError as exc:
        expected = (type(exc), str(exc))
    chunk_was, serde._CHUNK = serde._CHUNK, chunk
    try:
        records = read_records(*args)
    except QAError as exc:
        got = (type(exc), str(exc))
    else:
        got = list(records)  # a checked file yields every record without raising
    finally:
        serde._CHUNK = chunk_was
    assert got == expected


@given(st.lists(st.sampled_from(UNICODE_WORDS + [" ", ".", "_"]) | st.characters()).map("".join))
def test_token_span_slices_back_to_its_surface(text):
    for t in tokenize(text):
        assert text[t.char_offset:t.char_end].lower() == t.surface


def reference_query_terms(question, stoplist):
    """analyze's query terms as they were: Token surfaces minus stopwords,
    then the target's terms minus stopwords, deduplicated in order."""
    words = [t.surface for t in tokenize(question.text) if t.surface not in stoplist]
    if question.target:
        words += [w for w in terms(question.target) if w not in stoplist]
    return list(dict.fromkeys(words))


question_text = st.lists(
    st.sampled_from(UNICODE_WORDS + ["What", "is", "the", "of", "Mill", " ", "?", "_"])
    | st.characters()
).map("".join)


@given(question_text, st.none() | question_text)
def test_query_terms_match_token_reference(text, target):
    question = Question("q1", text, target)
    analysis = analyze(question, None)
    assert analysis.query_terms == reference_query_terms(question, STOPWORDS)


def reference_score_passage(passage, query_terms, index, coverage_weight):
    """score_passage as it was before terms(), counting Token surfaces, with
    the idf computed here from the index's counts."""
    if not query_terms:
        return 0.0
    counts = Counter(t.surface for t in tokenize(passage.text))
    score = 0.0
    matched = 0
    for term in query_terms:
        n = counts.get(term, 0)
        if n > 0:
            matched += 1
            df = index.document_frequency(term)
            idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
            score += idf * (1.0 + math.log(n))
    return score + coverage_weight * (matched / len(query_terms))


VOCAB = ["amber", "mill", "Mill", "built", "the", "İstanbul", "straße", "x1"]
words_text = st.lists(st.sampled_from(VOCAB + [",", ".", " "]), max_size=12).map(" ".join)
corpora = st.dictionaries(st.from_regex(r"d[0-9]{1,2}", fullmatch=True), words_text, max_size=8)
queries = st.lists(st.sampled_from([w.lower() for w in VOCAB] + ["absent"]), max_size=4)


def reference_build_index(docs):
    """build_index spelled out: a Counter per document, each term's previous
    ordinal in a dict of its own, and a new cell string per posting, every
    term's list of cells joined into a new dict at the end."""
    stored = {doc.doc_id: doc for doc in docs}
    doc_ids = sorted(stored)
    doc_lengths: dict[str, int] = {}
    cells: dict[str, list[str]] = {}
    previous: dict[str, int] = {}
    for ordinal, doc_id in enumerate(doc_ids):
        words = terms(stored[doc_id].text)
        doc_lengths[doc_id] = len(words)
        for term, tf in Counter(words).items():
            gap = ordinal - previous.get(term, 0)
            previous[term] = ordinal
            cells.setdefault(term, []).append(f"{gap}:{tf}" if tf > 1 else str(gap))
    joined = {term: "\t".join(term_cells) for term, term_cells in cells.items()}
    records = {
        doc_id: (",".join(f"{a}:{b}" for a, b in doc.paragraph_spans) or "-")
        + "\t" + escape_field(doc.text)
        for doc_id, doc in stored.items()
    }
    return InvertedIndex(doc_ids, joined, doc_lengths, records)


@settings(max_examples=200)
@given(st.lists(documents, max_size=6, unique_by=lambda d: d.doc_id)
       | corpora.map(lambda d: [Document(i, t, ()) for i, t in d.items()]))
def test_build_index_equals_the_counter_build(tmp_path_factory, docs):
    """Cells shared across the build by gap and tf, with each term's previous
    ordinal at its list's head, and joined in place, hold the same strings,
    and write the same bytes, as a new cell string per posting."""
    built, reference = build_index(docs), reference_build_index(docs)
    assert built == reference and list(built.cells) == list(reference.cells)
    out = tmp_path_factory.mktemp("build")
    write_index(built, out / "built.qix")
    write_index(reference, out / "reference.qix")
    assert (out / "built.qix").read_bytes() == (out / "reference.qix").read_bytes()


def reference_postings(cells: str, doc_ids: list[str]):
    """A term's cells decoded strictly, one character at a time: (doc_id, tf)
    pairs, or None where the writer would not have written `cells`."""
    def number(field):
        if not field or any(c not in "0123456789" for c in field):
            return None
        return None if len(field) > 1 and field[0] == "0" else int(field)

    pairs, ordinal = [], None
    for cell in cells.split("\t"):
        gap_text, colon, tf_text = cell.partition(":")
        gap, tf = number(gap_text), number(tf_text) if colon else 1
        if gap is None or tf is None or (colon and tf < 2) or (ordinal is not None and gap == 0):
            return None
        ordinal = gap if ordinal is None else ordinal + gap
        if ordinal >= len(doc_ids):
            return None
        pairs.append((doc_ids[ordinal], tf))
    return pairs


CELL_PIECES = ["0", "1", "2", "10", ":", "-", "+", "_", " ", "\u0660", "\uff11", "x"]
mutated_cells = (
    st.from_regex(r"[0-9]{1,2}(:[0-9]{1,2})?", fullmatch=True)
    | st.lists(st.sampled_from(CELL_PIECES), max_size=4).map("".join)
    | st.text(st.characters(blacklist_characters="\t\n"), max_size=4)
)


@example([Document("a", "pie", ()), Document("b", "pie", ())], 0, 1, "-1")
@example([Document("a", "pie", ())], 0, 0, "0:1")
@example([Document("a", "pie", ())], 0, 0, "\u0660")
@example([Document("a", "pie pie", ()), Document("b", "pie", ())], 0, 0, "1:2")
@settings(max_examples=300)
@given(st.lists(documents, min_size=1, max_size=5, unique_by=lambda d: d.doc_id)
       | corpora.map(lambda d: [Document(i, t, ()) for i, t in d.items()]),
       st.integers(0, 20), st.integers(0, 5), mutated_cells)
def test_a_mutated_cell_reads_as_the_strict_reference_or_fails(
    tmp_path_factory, docs, which, at, cell
):
    """Cell `at` of term `which` of a written index replaced, and the file
    re-framed with a valid digest: the index loads, as the cell count holds,
    and that term reads as the strict reference decodes it, or raises
    CorruptIndex naming the term where the reference refuses it. Every other
    term reads as built."""
    built = build_index(docs)
    assume(built.cells)
    term = sorted(built.cells)[which % len(built.cells)]
    listed = built.cells[term].split("\t")
    listed[at % len(listed)] = cell
    cells = "\t".join(listed)
    path = tmp_path_factory.mktemp("cell") / "idx.qix"
    write_index(built, path)
    old = f"\nterm\t{term}\t{built.cells[term]}\n".encode()
    body = path.read_bytes().rsplit(b"sha256\t", 1)[0]
    path.write_bytes(framed(body.replace(old, f"\nterm\t{term}\t{cells}\n".encode())))
    loaded = load_index(path)
    expected = reference_postings(cells, loaded.doc_ids)
    if expected is None:
        with pytest.raises(CorruptIndex, match=re.escape(f"malformed postings of term {term!r}")):
            loaded.postings(term)
    else:
        assert loaded.postings(term) == expected
    for other in built.cells.keys() - {term}:
        assert loaded.postings(other) == built.postings(other)


@given(corpora, words_text | st.text(), queries, st.sampled_from([0.0, 2.0]))
def test_score_passage_matches_token_reference(docs, text, query, weight):
    index = build_index(Document(d, t, ()) for d, t in docs.items())
    passage = Passage("p", (0, len(text)), text)
    assert score_passage(passage, query, index, weight) == reference_score_passage(
        passage, query, index, weight
    )


def bits(floats):
    """Each float's exact bits, so -0.0 and 0.0 differ."""
    return [x.hex() for x in floats]


# Coverage weights: zero of both signs, the default, negative ones and any finite float.
coverage_weights = st.sampled_from([0.0, -0.0, 2.0, -1.5]) | st.floats(
    allow_nan=False, allow_infinity=False)


@given(corpora, st.lists(words_text | st.text(max_size=16) | st.just(""), max_size=5),
       st.data(), coverage_weights)
def test_kernel_scores_each_tuple_as_the_token_reference(docs, texts, data, weight):
    """One kernel call over many texts' terms gives, bit for bit, each text's
    per-Token score. The texts may be empty or not ASCII, and the query
    terms repeat, miss the index, or are the texts' own."""
    index = build_index(Document(d, t, ()) for d, t in docs.items())
    pool = [w.lower() for w in VOCAB + UNICODE_WORDS] + ["absent"] + terms(" ".join(texts))
    query = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    scores = score_term_tuples(
        [PassageFeatures(text).terms for text in texts], query_weights(query, index),
        weight,
    )
    assert bits(scores) == bits(
        reference_score_passage(Passage("p", (0, len(t)), t), query, index, weight)
        for t in texts
    )


# The second paragraph's sentence spans (0, 5) within it, as the first paragraph does.
@example(["amber", "built"], ["amber"], 0.0)
@given(st.lists(words_text | st.text(max_size=12), min_size=1, max_size=4), queries,
       st.sampled_from([0.0, 2.0]))
def test_score_passage_is_the_same_on_a_warm_memo(paragraphs, query, weight):
    """A passage scores alike on a fresh index and on one whose memo holds
    every other passage and DESC sentence of its document. A sentence's
    span is relative to its passage, so it can equal the span of another
    passage of the same document."""
    text = "\n".join(paragraphs)
    starts = [sum(len(p) + 1 for p in paragraphs[:i]) for i in range(len(paragraphs))]
    doc = Document("d", text, tuple((a, a + len(p)) for a, p in zip(starts, paragraphs)))
    passages = segment_passages(doc)
    sentences = [Passage("d", (a, b), p.text[a:b]) for p in passages
                 for a, b in split_sentences(p.text)]
    warm = build_index([doc])
    for passage in passages:  # the DESC branch scores each sentence of the passage
        extract_candidates(passage, AnswerType("DESC", None), query, index=warm)
        score_passage(passage, query, warm, weight)
    for passage in passages + sentences:
        fresh = build_index([doc])
        assert score_passage(passage, query, warm, weight) == score_passage(
            passage, query, fresh, weight
        )


@given(corpora.filter(bool).flatmap(lambda d: st.tuples(st.just(d), st.permutations(sorted(d)))),
       queries, st.integers(1, 5))
def test_bm25_top_k_ignores_corpus_order(docs_and_order, query, k):
    docs, order = docs_and_order
    as_given = build_index(Document(d, docs[d], ()) for d in sorted(docs))
    shuffled = build_index(Document(d, docs[d], ()) for d in order)
    assert retrieve_documents(shuffled, query, k) == retrieve_documents(as_given, query, k)


def reference_retrieve(index, query_terms, k):
    """retrieve_documents as it was before memoized impacts: one loop per posting."""
    if not query_terms:
        return []
    avg = sum(index.doc_lengths.values()) / len(index.doc_lengths) if index.doc_lengths else 0.0
    scores = {}
    for term in query_terms:
        plist = index.postings(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        for doc_id, tf in plist:
            dl = index.doc_lengths[doc_id]
            denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avg)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (
                BM25_K1 + 1.0
            ) / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [ScoredDocument(doc_id, score) for doc_id, score in ranked[:k]]


def analysis_of(query, answer_type=AnswerType("HUM", "ind")):
    return QuestionAnalysis("q1", " ".join(query), query, answer_type, "rule")


@settings(max_examples=50)
@given(corpora, st.lists(queries, min_size=1, max_size=3), st.integers(1, 5))
def test_loaded_index_retrieves_and_answers_as_the_built_one(tmp_path_factory, docs, asked, k):
    built = build_index(Document(d, t, ()) for d, t in docs.items())
    path = tmp_path_factory.mktemp("prop") / "idx.qix"
    write_index(built, path)
    loaded = load_index(path)
    for query in asked:  # a second query reuses the memoized impacts of the first
        assert retrieve_documents(loaded, query, k) == reference_retrieve(built, query, k)
        assert answer_question(loaded, analysis_of(query)) == answer_question(
            built, analysis_of(query)
        )


@st.composite
def tied_corpora(draw):
    """A corpus in which one text is stored under several doc ids, a query
    holding some of its words, and a k smaller than that group of equal scores."""
    docs = draw(corpora)
    text = draw(words_text.filter(lambda t: terms(t)))
    ids = draw(st.lists(st.from_regex(r"t[0-9]{1,2}", fullmatch=True), min_size=2, max_size=5,
                        unique=True))
    docs.update(dict.fromkeys(ids, text))
    query = draw(st.lists(st.sampled_from(terms(text)), min_size=1, max_size=3)) + draw(queries)
    return docs, query, draw(st.integers(1, len(ids) - 1))


# Three copies of one text; k = 2 keeps two of the three equal scores.
@example(({"t1": "amber mill", "t3": "amber mill", "t2": "amber mill"}, ["amber"], 2))
# Equal scores from different terms: "b" is scored before "a" but ranks after it.
@example(({"b": "amber", "a": "mill"}, ["amber", "mill"], 1))
@given(tied_corpora())
def test_retrieval_breaks_score_ties_by_doc_id(tied):
    docs, query, k = tied
    index = build_index(Document(d, t, ()) for d, t in docs.items())
    assert retrieve_documents(index, query, k) == reference_retrieve(index, query, k)


@example(({"t1": "amber mill", "t2": "amber mill", "a": "mill"}, ["amber"], 1), ["absent"])
@given(tied_corpora(), queries)
def test_dict_union_sum_equals_the_per_posting_reference(tied, more):
    """The dict-union sum gives the per-posting reference's top k, scores bit
    for bit, on a fresh index and again once the memo holds every term's
    impacts. The query repeats terms and holds terms absent from the
    index, and k cuts a group of equal scores."""
    docs, query, k = tied
    query = query + more + query[:2]
    index = build_index(Document(d, t, ()) for d, t in docs.items())
    expected = reference_retrieve(index, query, k)
    for _ in ("fresh", "warm"):
        got = retrieve_documents(index, query, k)
        assert [d.doc_id for d in got] == [d.doc_id for d in expected]
        assert bits(d.retrieval_score for d in got) == bits(d.retrieval_score for d in expected)


def reference_kept_passages(index, analysis, answer_settings):
    """The passages answer_question kept before the kernel: each scored by its
    own score_passage call and ordered by a stable sort on (-score, doc rank,
    start)."""
    docs = retrieve_documents(index, analysis.query_terms, answer_settings.k)
    scored = []
    for doc_rank, scored_doc in enumerate(docs):
        for passage in segment_passages(index.document(scored_doc.doc_id)):
            s = score_passage(passage, analysis.query_terms, index,
                              answer_settings.coverage_weight)
            scored.append((-s, doc_rank, passage.char_span[0], passage))
    scored.sort(key=itemgetter(0, 1, 2))
    return [Passage(p.doc_id, p.char_span, p.text, -neg)
            for neg, _, _, p in scored[:answer_settings.max_passages]]


@st.composite
def span_corpora(draw):
    """Documents that share texts, so scores tie across documents; half have
    drawn paragraph spans, which may repeat a start, overlap, be empty, or
    come out of order, so scores tie within a document too."""
    pool = draw(st.lists(words_text, min_size=1, max_size=3))
    docs = []
    for i in range(draw(st.integers(1, 5))):
        text = draw(st.sampled_from(pool))
        spans = ()
        if draw(st.booleans()):
            spans = []
            for _ in range(draw(st.integers(1, 4))):
                a = draw(st.sampled_from(sorted({0, len(text) // 2})))
                spans.append((a, draw(st.integers(a, len(text)))))
            spans = tuple(spans)
        docs.append(Document(f"d{i}", text, spans))
    return docs


# Descending spans of tied scores: kept in retrieval order only when
# segmentation hands them over in text order.
@example([Document("d0", "amber mill", ((5, 10), (0, 5)))], ["amber", "mill"],
         AnswerSettings(k=2, max_passages=3))
@example([Document("d0", "amber mill", ((0, 5), (0, 10), (0, 5))),
          Document("d1", "amber mill", ((0, 10), (0, 5)))],
         ["amber"], AnswerSettings(k=2, max_passages=3))
@settings(max_examples=200)
@given(span_corpora(), queries,
       st.builds(lambda k, max_passages, weight: AnswerSettings(
           k=k, max_passages=max_passages, coverage_weight=weight),
           st.integers(1, 5), st.integers(1, 6), st.sampled_from([0.0, 2.0, -1.5])))
def test_answering_keeps_the_passages_the_per_passage_path_keeps(docs, query, answer_settings):
    """answer_question hands ranking the passages, scores and order that
    scoring each passage alone and a stable (-score, doc rank, start) sort
    give."""
    index, reference = build_index(docs), build_index(docs)
    handed = []
    rank = extraction.rank_candidates

    def recording_rank(candidates, analysis, passages, *args):
        handed.append(passages)
        return rank(candidates, analysis, passages, *args)

    with mock.patch.object(extraction, "rank_candidates", recording_rank):
        answer_question(index, analysis_of(query), answer_settings)
    expected = reference_kept_passages(reference, analysis_of(query), answer_settings)
    kept = handed[0] if handed else []
    assert kept == expected
    assert bits(p.passage_score for p in kept) == bits(p.passage_score for p in expected)


# Words mostly of one length, so passages of different documents share char
# spans but not texts; capitalized words after a full stop start new
# sentences. The amount, the figure, the abbreviation, the sentence-initial
# "The" and the connector "of" give every extraction branch hits.
FOUR = ["Voss", "Kent", "Lund", "Hale", "Orme", "mill", "barn", "dock", "sold", "kept", "wall",
        "1921", "1887", "1066", "$900", "125%", "NATO", "The", "of"]
FOUR_TERMS = sorted(set(terms(" ".join(FOUR))))
sentence = st.lists(st.sampled_from(FOUR), min_size=1, max_size=3).map(" ".join).map(
    lambda s: s + ".")
paragraph = st.lists(sentence, min_size=1, max_size=3).map(" ".join)


@st.composite
def mixed_corpus(draw):
    """Documents with paragraph spans and documents of sentence windows."""
    docs = []
    for i in range(draw(st.integers(1, 4))):
        paragraphs = draw(st.lists(paragraph, min_size=1, max_size=2))
        text = "\n\n".join(paragraphs)
        spans = ()
        if draw(st.booleans()):
            starts = [sum(len(p) + 2 for p in paragraphs[:j]) for j in range(len(paragraphs))]
            spans = tuple((a, a + len(p)) for a, p in zip(starts, paragraphs))
        docs.append(Document(f"d{i}", text, spans))
    return docs


# Every extraction branch: each pattern group, the capitalized runs and DESC.
memo_types = st.sampled_from([
    AnswerType("DESC", None), AnswerType("HUM", "ind"), AnswerType("NUM", "date"),
    AnswerType("NUM", "count"), AnswerType("NUM", "money"), AnswerType("NUM", "perc"),
    AnswerType("ABBR", "abb"), AnswerType("ABBR", "exp"), AnswerType("LOC", "other"),
    AnswerType("ENTY", None),
])
memo_analyses = st.builds(
    analysis_of, st.lists(st.sampled_from(FOUR_TERMS), min_size=1, max_size=2), memo_types,
)


# Two documents whose passages share a span but not a text: a memo keyed by
# the span would score the second question's passage with the first's terms.
@example(
    [Document("d0", "Voss mill.", ((0, 10),)), Document("d1", "Kent barn.", ((0, 10),))],
    [analysis_of([word], AnswerType("DESC", None)) for word in ("voss", "kent")],
    AnswerSettings(),
)
# Types of one coarse class with different hits: "$900" is money and holds
# a count but no date, "125%" is a percentage, and "NATO" is an
# abbreviation and, with "Kent", a capitalized run.
@example(
    [Document("d0", "Voss sold $900 to NATO Kent. Hale kept 125%.", ())],
    [analysis_of(["sold"], answer_type) for answer_type in (
        AnswerType("NUM", "date"), AnswerType("NUM", "count"), AnswerType("NUM", "money"),
        AnswerType("NUM", "perc"), AnswerType("ABBR", "abb"), AnswerType("ABBR", "exp"),
    )],
    AnswerSettings(),
)
# The run "Voss of Kent" echoes the first query but not the second, so a
# memo of the first question's query-filtered runs loses it from the second.
@example(
    [Document("d0", "Hale sold. Voss of Kent kept NATO.", ())],
    [analysis_of(["voss", "kent"], AnswerType("HUM", "ind")),
     analysis_of(["sold"], AnswerType("HUM", "ind"))],
    AnswerSettings(),
)
@settings(max_examples=200)
@given(mixed_corpus(), st.lists(memo_analyses, min_size=1, max_size=4).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)),
       # A lambda: builds() would draw every field of a NamedTuple, defaults included.
       st.builds(lambda k, max_passages: AnswerSettings(k=k, max_passages=max_passages),
                 st.integers(1, 5), st.integers(1, 4)))
def test_answers_on_a_warm_index_equal_answers_on_a_fresh_one(docs, asked, answer_settings):
    """Each question, answered after any others on one index, gets the record
    a fresh index of the same documents gives it alone, floats included. The
    drawn questions are asked in order, then in reverse."""
    warm = build_index(docs)
    for analysis in asked + asked[::-1]:
        assert answer_question(warm, analysis, answer_settings) == answer_question(
            build_index(docs), analysis, answer_settings
        )


@st.composite
def warm_extractions(draw):
    """A passage text, the (answer type, query) pairs extracted from it first,
    and a last answer type and query. Queries draw from the text's own terms
    too, so they echo its capitalized runs."""
    text = draw(paragraph | st.lists(st.sampled_from(FOUR + [".", "\n"]), max_size=10)
                .map(" ".join) | st.text(max_size=20))
    query = st.lists(st.sampled_from(FOUR_TERMS + terms(text)), max_size=3)
    earlier = draw(st.lists(st.tuples(memo_types, query), max_size=4))
    return text, earlier, draw(memo_types), draw(query)


# The run "Voss of Kent" only echoes the first query, not the second.
@example(("Hale sold. Voss of Kent kept NATO.", [(AnswerType("HUM", "ind"), ["voss", "kent"])],
          AnswerType("HUM", "ind"), ["sold"]))
@settings(max_examples=300)
@given(warm_extractions())
def test_extraction_on_a_warm_memo_equals_extraction_afresh(inputs):
    """A passage yields the same candidates on an index that has already
    extracted it under other answer types and queries as it does on a
    freshly built index of the same document."""
    text, earlier, answer_type, query = inputs
    passage = Passage("d", (7, 7 + len(text)), text, 1.5)
    warm = build_index([Document("d", text, ())])
    for earlier_type, earlier_query in earlier:
        extract_candidates(passage, earlier_type, earlier_query, warm)
    assert extract_candidates(passage, answer_type, query, warm) == extract_candidates(
        passage, answer_type, query, build_index([Document("d", text, ())])
    )


# The run "Voss of Kent" only echoes the first query, not the second.
@example(("Hale sold. Voss of Kent kept NATO.", [(AnswerType("HUM", "ind"), ["voss", "kent"])],
          AnswerType("HUM", "ind"), ["sold"]))
@settings(max_examples=300)
@given(warm_extractions())
def test_extraction_through_warm_features_equals_extraction_through_fresh_ones(inputs):
    """A passage yields the same candidates through one features object that
    earlier extractions under other answer types and queries have read as
    through a fresh one: what the features keep does not depend on a query."""
    text, earlier, answer_type, query = inputs
    passage = Passage("d", (7, 7 + len(text)), text, 1.5)
    index = build_index([Document("d", text, ())])
    warm = PassageFeatures(text)
    for earlier_type, earlier_query in earlier:
        extract_candidates(passage, earlier_type, earlier_query, index, features=warm)
    assert extract_candidates(passage, answer_type, query, index, features=warm) == (
        extract_candidates(passage, answer_type, query, index, features=PassageFeatures(text))
    )


def reference_best_sentence(passage, query_terms, index, coverage_weight):
    """_best_sentence as it was: each sentence scored as a Passage of its own
    text."""
    best = None
    best_score = float("-inf")
    for a, b in split_sentences(passage.text):
        pseudo = Passage(passage.doc_id, (a, b), passage.text[a:b])
        s = score_passage(pseudo, query_terms, index, coverage_weight)
        if s > best_score:
            best_score = s
            best = (a, passage.text[a:b])
    return best


# Sentences of the FOUR words and of words whose lowering or letters are not
# ASCII, ended by any of ./?/!, and text of any characters.
desc_text = (
    st.lists(st.sampled_from(FOUR + UNICODE_WORDS + ["?", "!", ".", ",", "\n", "_"]), max_size=14)
    .map(" ".join)
    | paragraph
    | st.text(max_size=20)
)


@settings(max_examples=300)
@given(desc_text, st.data(), st.sampled_from([0.0, 2.0]))
def test_best_sentence_equals_the_per_sentence_passage_path(text, data, weight):
    """Each sentence scores from its slice of its passage's terms as it does as
    a Passage of its own text, DESC picks the sentence that path picks, and
    a hand-built passage leaves no memo on the index."""
    query = data.draw(st.lists(st.sampled_from(FOUR_TERMS + terms(text) + ["absent"]),
                               max_size=3))
    doc = Document("d", text, ())
    passage = Passage("d", (0, len(text)), text, 1.5)
    index, reference = build_index([doc]), build_index([doc])
    for a, b in split_sentences(text):
        assert score_term_tuples(
            [PassageFeatures(text).terms[len(terms(text[:a])):len(terms(text[:b]))]],
            query_weights(query, index), weight,
        ) == [score_passage(Passage("d", (a, b), text[a:b]), query, reference, weight)]
    best = reference_best_sentence(passage, query, reference, weight)
    expected = [] if best is None else [CandidateAnswer(best[1], "d", best[0], 0, 1.5)]
    assert extract_candidates(passage, AnswerType("DESC", None), query, index,
                              AnswerSettings(coverage_weight=weight)) == expected
    assert index.doc_passages == {}


def reference_token_span(tokens, rel_start, rel_end):
    """_token_span as it was before bisect: a scan of every Token."""
    covering = [
        t.position for t in tokens if t.char_offset < rel_end and t.char_end > rel_start
    ]
    if covering:
        return min(covering), max(covering)
    nearest = min(tokens, key=lambda t: abs(t.char_offset - rel_start), default=None)
    pos = nearest.position if nearest else 0
    return pos, pos


# Short words and runs of blanks, so that a point falls between two words
# at equal distance from their starts.
spaced_text = st.lists(st.sampled_from(["a", "bb", "Ccc", " ", "  ", ".", "_", "İ"])).map("".join)


@example("bb  a", 2, 3)  # "bb" starts at 0 and "a" at 4, each 2 from offset 2: "bb" wins
@given(spaced_text | st.text(), st.integers(-3, 30), st.integers(-3, 30))
def test_token_span_bisect_matches_token_scan(text, rel_start, rel_end):
    spans = [m.span() for m in TOKEN_RE.finditer(text)]
    starts, ends = [a for a, _ in spans], [b for _, b in spans]
    assert _token_span(starts, ends, rel_start, rel_end) == reference_token_span(
        tokenize(text), rel_start, rel_end
    )


def reference_proximity(passage, candidate, query_terms):
    """rank_candidates' proximity as it was: positions listed per candidate and term."""
    tokens = tokenize(passage.text)
    rel_start = candidate.char_offset - passage.char_span[0]
    first, last = reference_token_span(tokens, rel_start, rel_start + len(candidate.text))
    prox = 0.0
    for term in query_terms:
        occurrences = [t.position for t in tokens if t.surface == term]
        if occurrences:
            dist = min(
                0 if first <= o <= last else (first - o if o < first else o - last)
                for o in occurrences
            )
            prox += 1.0 / (1.0 + dist)
    return prox


NAMED = ["amber", "mill", "built", "the", "Maria", "Voss", "Kellan", ",", "."]
named_text = st.lists(st.sampled_from(NAMED), max_size=20).map(" ".join)


@given(st.lists(named_text, min_size=1, max_size=3),
       st.lists(st.sampled_from(NAMED[:4]), min_size=1, max_size=3))
def test_rank_proximity_matches_per_candidate_reference(texts, query):
    passages = [Passage("d", (0, len(t)), t) for t in texts]
    index = build_index(Document(f"d{i}", t, ()) for i, t in enumerate(texts))
    candidates = [
        c
        for i, p in enumerate(passages)
        for c in extract_candidates(p, AnswerType("HUM", "ind"), query, index, passage_index=i)
    ]
    for ranked in rank_candidates(candidates, analysis_of(query), passages):
        passage = passages[ranked.passage_index]
        assert ranked.proximity_score == reference_proximity(passage, ranked, query)


def reference_rank_candidates(
    candidates: list[CandidateAnswer],
    analysis: QuestionAnalysis,
    passages: list[Passage],
    settings: AnswerSettings = AnswerSettings(),
) -> list[CandidateAnswer]:
    """rank_candidates as it was: score every candidate, then keep the earliest
    source of each case-insensitive duplicate."""
    if not candidates:
        return []
    # Once per kept passage with a candidate: its words' offsets, and the
    # word positions of each query term in it.
    query = set(analysis.query_terms)
    passage_words = {}
    for i in {c.passage_index for c in candidates}:
        text = passages[i].text
        starts, ends = [], []
        for m in TOKEN_RE.finditer(text):
            a, b = m.span()
            starts.append(a)
            ends.append(b)
        positions: dict[str, list[int]] = {}
        for position, word in enumerate(terms(text)):
            if word in query:
                positions.setdefault(word, []).append(position)
        passage_words[i] = starts, ends, positions
    lowered_passages = [p.text.lower() for p in passages]

    redundancy: dict[str, int] = {}
    for cand in candidates:
        key = cand.text.lower()
        if key not in redundancy:
            redundancy[key] = sum(1 for lp in lowered_passages if key in lp)

    scored: list[CandidateAnswer] = []
    for cand in candidates:
        starts, ends, positions = passage_words[cand.passage_index]
        rel_start = cand.char_offset - passages[cand.passage_index].char_span[0]
        first, last = _token_span(starts, ends, rel_start, rel_start + len(cand.text))
        prox = 0.0
        for term in analysis.query_terms:
            occurrences = positions.get(term)
            if not occurrences:
                continue
            dist = min(
                0 if first <= o <= last else (first - o if o < first else o - last)
                for o in occurrences
            )
            prox += 1.0 / (1.0 + dist)
        red = redundancy[cand.text.lower()]
        final = (
            cand.passage_score
            + settings.proximity_weight * prox
            + settings.redundancy_weight * (red - 1)
            + (GAZETTEER_BONUS if cand.gazetteer_match else 0.0)
        )
        scored.append(
            cand._replace(proximity_score=prox, redundancy_count=red, final_score=final)
        )

    # Case-insensitive dedup keeping the earliest source.
    earliest: dict[str, CandidateAnswer] = {}
    for cand in scored:
        key = cand.text.lower()
        kept = earliest.get(key)
        if kept is None or (cand.passage_index, cand.char_offset) < (
            kept.passage_index,
            kept.char_offset,
        ):
            earliest[key] = cand
    return sorted(
        earliest.values(),
        key=lambda c: (-c.final_score, c.passage_index, c.char_offset, c.text),
    )


# Case variants of a few words, so that candidates repeat across passages.
CASED = ["Maria", "MARIA", "maria", "Voss", "voss", "mill", "the", "ß", " ", ","]
cased_text = st.lists(st.sampled_from(CASED), min_size=1, max_size=12).map("".join)


@st.composite
def ranking_inputs(draw):
    """Passages and candidates cut from them, some re-cased; scores and
    gazetteer matches drawn, so the earliest of duplicates may not score best."""
    passages = []
    for i, text in enumerate(draw(st.lists(cased_text, min_size=1, max_size=4))):
        base = draw(st.integers(0, 50))
        passages.append(Passage(f"d{i % 2}", (base, base + len(text)), text,
                                draw(st.sampled_from([0.0, 1.5, 3.0]))))
    candidates = []
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, len(passages) - 1))
        passage = passages[i]
        a = draw(st.integers(0, len(passage.text) - 1))
        b = draw(st.integers(a + 1, len(passage.text)))
        recase = draw(st.sampled_from([str, str.upper, str.lower, str.title]))
        candidates.append(CandidateAnswer(
            recase(passage.text[a:b]), passage.doc_id, passage.char_span[0] + a, i,
            passage.passage_score, gazetteer_match=draw(st.booleans()),
        ))
    return passages, candidates


@given(ranking_inputs(), st.lists(st.sampled_from(["maria", "voss", "mill", "the"]), max_size=3),
       st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, -1.0]))
def test_rank_candidates_matches_score_then_dedup_reference(inputs, query, proximity, redundancy):
    passages, candidates = inputs
    given_candidates = list(candidates)
    settings = AnswerSettings(proximity_weight=proximity, redundancy_weight=redundancy)
    analysis = analysis_of(query)
    assert rank_candidates(candidates, analysis, passages, settings=settings) == (
        reference_rank_candidates(candidates, analysis, passages, settings)
    )
    assert candidates == given_candidates


# The stage hand-off files round-trip: load(write(x)) == x.
LABELS = sorted([*FINE_CLASSES] + [f"{c}:{f}" for c, fines in FINE_CLASSES.items() for f in fines])
answer_types = st.sampled_from(sorted(FINE_CLASSES)).flatmap(lambda coarse: st.builds(
    AnswerType, st.just(coarse), st.sampled_from([None, *sorted(FINE_CLASSES[coarse])]),
    st.floats(0.0, 1.0),
))
# NIL, "-" and \N are answer texts and doc ids like any other.
field_text = st.sampled_from(["NIL", "-", "\\N", ""]) | tricky_text
scores = st.floats(allow_nan=False)  # NaN never equals itself, and no answer path makes one


@given(st.lists(st.builds(
    AnswerRecord, qid=field_text, answer=st.none() | field_text,
    supporting_doc=st.none() | field_text, final_score=scores,
), max_size=5))
def test_answers_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("prop") / "answers.txt"
    write_answers(records, path)
    assert load_answers(path) == records


@given(st.lists(st.builds(
    QuestionAnalysis, qid=field_text, text=field_text,
    query_terms=st.lists(st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True) | tricky_text,
                         max_size=4),
    answer_type=answer_types,
    classifier_source=st.sampled_from(["model", "rule", "default"]) | field_text,
), max_size=5))
def test_analyses_round_trip(tmp_path_factory, analyses):
    """The write refuses exactly the query terms that would load back split."""
    path = tmp_path_factory.mktemp("prop") / "analysis.txt"
    unsplittable = all(
        term and not any(c.isspace() for c in term) for a in analyses for term in a.query_terms
    )
    try:
        write_analyses(analyses, path)
    except QAError:
        assert not unsplittable and not path.exists()
        return
    assert load_analyses(path) == analyses


@given(
    st.lists(st.builds(TrainingExample, label=st.sampled_from(LABELS), text=st.text(max_size=30)),
             min_size=1, max_size=8),
    st.sampled_from([1.0, 0.25, 1e-9, 3.5]),
    st.sampled_from([COARSE_ONLY, COARSE_FINE]),
)
def test_models_round_trip(tmp_path_factory, examples, alpha, space):
    model = train_classifier(examples, alpha, space)
    path = tmp_path_factory.mktemp("prop") / "model.nb"
    write_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert loaded.term_log_likelihoods == model.term_log_likelihoods


def written_stage_files(tmp_path):
    """Small instances of the four stage files: (loader, its error, bytes)."""
    path = tmp_path / "stage-file"
    docs = [Document("d1", "a b a", ()), Document("d\t2", "x\ny", ((0, 1),))]
    write_index(build_index(docs), path)
    index = path.read_bytes()
    write_model(train_classifier([TrainingExample("HUM:ind", "who built it"),
                                  TrainingExample("NUM", "when")], 0.5), path)
    model = path.read_bytes()
    write_analyses([QuestionAnalysis("q1", "Who built the mill?", ["mill"],
                                     AnswerType("HUM", "ind", 0.5), "model"),
                    QuestionAnalysis("q\t2", "", [], AnswerType("DESC", None, 0.0), "default")],
                   path)
    analyses = path.read_bytes()
    write_answers([AnswerRecord("q1", "Rolf", "d1", 1.5), AnswerRecord("q2", None, None, 0.0)],
                  path)
    answers = path.read_bytes()
    return [(load_index, CorruptIndex, index), (load_model, CorruptModel, model),
            (load_analyses, QAError, analyses), (load_answers, QAError, answers)]


def test_every_truncation_and_bit_flip_of_a_stage_file_is_refused(tmp_path):
    path = tmp_path / "stage-file"
    for loader, error, good in written_stage_files(tmp_path):
        path.write_bytes(good)
        loader(path)
        damaged = [good[:cut] for cut in range(len(good))]
        damaged += [good[:i] + bytes([good[i] ^ (1 << bit)]) + good[i + 1:]
                    for i in range(len(good)) for bit in range(8)]
        for raw in damaged:
            path.write_bytes(raw)
            with pytest.raises((error, VersionMismatch)):
                loader(path)


# Near-valid stage files for each loader: real field values, values that
# must be refused, and short arbitrary text. The three framed files carry
# a valid digest, so the loaders' record checks run behind it.
ALPHA = st.sampled_from(["1.0", "0.25", "1e308"]) | st.sampled_from(["0", "-1", "nan", "inf", "x"])
COUNT = st.sampled_from(["1", "3", "9" * 400]) | st.sampled_from(["0", "-1", "2.5", "x"])
LABEL = st.sampled_from(["NUM", "NUM:date", "HUM:ind"]) | st.sampled_from(
    ["PLANET", "NUM:moon", "NUM:"])
SHORT = st.text(max_size=4)


def records(fields, sep, header=None):
    """Lines of `fields` joined by `sep`: framed under `header`, or plain text."""
    lines = st.lists(fields.map(sep.join), max_size=6)
    if header is None:
        return lines.map(lambda ls: "\n".join(ls).encode("utf-8"))
    return lines.map(lambda ls: framed("".join(line + "\n" for line in [header, *ls])))


@st.composite
def model_files(draw):
    """Records in the order write_model uses, so that most drawn models are complete."""
    lines = ["QANUSNB1 2", f"alpha {draw(ALPHA)}",
             f"space {draw(st.sampled_from(['coarse', 'coarse+fine']) | SHORT)}"]
    lines += [f"label {draw(LABEL)} {draw(COUNT)}" for _ in range(draw(st.integers(1, 2)))]
    feature = st.sampled_from(["wh=who", "mill"]) | SHORT
    lines += [f"feat {draw(LABEL)} {draw(feature)} {draw(COUNT)}"
              for _ in range(draw(st.integers(0, 3)))]
    return framed("".join(line + "\n" for line in lines + draw(st.lists(SHORT, max_size=1))))


STAGE_FILES = {
    load_answers: records(st.lists(
        st.sampled_from(["q1", "q\\t1", "\\N", "NIL", "-", "D1", "1.5", "nan", "high"]) | SHORT,
        min_size=3, max_size=5,
    ), "\t", "QANUSANS 2"),
    load_analyses: records(st.lists(
        st.sampled_from(["q1", "mill built", "NUM", "HUM", "date", "-", "0.5", "2", "x",
                         "model", "Who?"]) | SHORT,
        min_size=6, max_size=8,
    ), "\t", "QANUSQAN 2"),
    load_model: model_files(),
    load_gold: records(st.tuples(
        st.sampled_from(["q1", "#", ""]) | SHORT,
        st.sampled_from(["rome", "(", "a{1,99999999999}", "\\", "NIL"]) | SHORT,
    ), " "),
}


def load_or_refuse(loader, path):
    """The loaded object, or None when the loader raised a QAError."""
    try:
        return loader(path)
    except QAError:
        return None


@pytest.mark.parametrize("loader", STAGE_FILES, ids=lambda f: f.__name__)
@given(data=st.data())
def test_stage_file_loaders_take_arbitrary_bytes(tmp_path_factory, loader, data):
    near_valid = data.draw(STAGE_FILES[loader])
    raw = data.draw(st.binary() | st.binary(min_size=1, max_size=4).map(near_valid.__add__))
    path = tmp_path_factory.mktemp("loader") / "stage-file"
    path.write_bytes(raw)
    load_or_refuse(loader, path)


@pytest.mark.parametrize("loader", STAGE_FILES, ids=lambda f: f.__name__)
@settings(max_examples=200)
@given(data=st.data())
def test_stage_file_loaders_load_or_refuse_near_valid_files(tmp_path_factory, loader, data):
    path = tmp_path_factory.mktemp("loader") / "stage-file"
    path.write_bytes(data.draw(STAGE_FILES[loader]))
    loaded = load_or_refuse(loader, path)
    if loader is load_model and loaded is not None:  # its log-probabilities are finite
        tables = [loaded.class_priors, loaded.unseen_log_likelihood,
                  *loaded.term_log_likelihoods.values()]
        assert all(math.isfinite(v) for table in tables for v in table.values())


def lines_of(*pieces):
    """Up to eight lines, each one of `pieces` or short arbitrary text."""
    return st.lists(st.sampled_from(pieces) | SHORT, max_size=8).map("\n".join)


def parse_trec_sgml(path):
    return list(parse_corpus(path, "trec-sgml"))


def reference_parse_trec_sgml(raw: str, rejects: list) -> list[Document]:
    """The regex TREC SGML parser that the str.find scan replaced, kept as the oracle."""
    docs = []
    for block_no, m in enumerate(re.finditer(r"<DOC>(.*?)</DOC>", raw, re.DOTALL), start=1):
        block = m.group(1)
        where = f"doc block {block_no}"
        docno = re.search(r"<DOCNO>(.*?)</DOCNO>", block, re.DOTALL)
        doc_id = docno.group(1).strip() if docno else ""
        if not doc_id:
            rejects.append(MalformedRecord(where, "missing or empty DOCNO"))
            continue
        text_m = re.search(r"<TEXT>(.*?)</TEXT>", block, re.DOTALL)
        if text_m is None:
            rejects.append(MalformedRecord(where, "missing TEXT"))
            continue
        body = text_m.group(1)
        paras = [p.group(1).strip() for p in re.finditer(r"<P>(.*?)</P>", body, re.DOTALL)]
        if paras:
            spans, pos = [], 0
            for p in paras:
                spans.append((pos, pos + len(p)))
                pos += len(p) + 2
            docs.append(Document(doc_id, "\n\n".join(paras), tuple(spans)))
        else:
            docs.append(Document(doc_id, body.strip(), ()))
    return docs


@st.composite
def sgml_corpora(draw):
    """TREC SGML, mostly well formed: DOCNOs missing, empty or holding "<DOC";
    TEXT missing; a <DOC> or an unclosed <P> inside a block; a block left
    unclosed; LF or CRLF line ends."""
    nl = draw(st.sampled_from(["\n", "\r\n"]))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        parts = []
        if draw(st.booleans()):
            docno = draw(st.sampled_from(["d1", " d2 ", "", "  ", "x<DOC", "<DOC>y", "d<DOCNO>3"]))
            parts.append(f"<DOCNO>{docno}</DOCNO>")
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(["<HEADLINE>h</HEADLINE>", "<DOC>", "<P>p</P>"])))
        if draw(st.booleans()):
            paras = draw(st.lists(st.sampled_from(["One.", " Two  words ", "", "<DOC>", nl]),
                                  max_size=3))
            body = nl.join(f"<P>{p}</P>" for p in paras) or draw(st.sampled_from(["plain", " "]))
            if draw(st.booleans()):
                body += nl + "<P>unclosed"
            parts.append(f"<TEXT>{nl}{body}{nl}</TEXT>")
        blocks.append("<DOC>" + nl.join(parts) + draw(st.sampled_from(["</DOC>", "</DOC>", ""])))
    return nl.join(blocks) + nl


SGML_PIECES = ["<DOC>", "</DOC>", "<DOCNO>", "</DOCNO>", "<TEXT>", "</TEXT>", "<P>", "</P>",
               "<DOC", "</", "C>", "NO>", " d1 ", "x", "\n", "\r\n"]


@given(sgml_corpora() | st.lists(st.sampled_from(SGML_PIECES), max_size=30).map("".join))
def test_trec_sgml_scan_equals_regex_form(raw):
    """The str.find scan yields the documents and the rejects the regex
    parser does, in the same order."""
    rejects, expected_rejects = [], []
    assert list(_parse_trec_sgml(raw, rejects)) == reference_parse_trec_sgml(raw, expected_rejects)
    assert rejects == expected_rejects


def reference_parse_record_lines(raw: str, rejects: list) -> list[Document]:
    """The record-lines parser before corpus.tab_separated, kept as the oracle."""
    docs = []
    for line_no, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        where = f"line {line_no}"
        if len(fields) != 3:
            rejects.append(
                MalformedRecord(where, f"expected 3 tab-separated fields, got {len(fields)}")
            )
            continue
        doc_id, _, text = fields
        if not doc_id.strip():
            rejects.append(MalformedRecord(where, "empty doc_id"))
            continue
        docs.append(Document(doc_id.strip(), text, ()))
    return docs


def reference_parse_qline(raw: str, rejects: list) -> list[Question]:
    """The qline parser before corpus.tab_separated, kept as the oracle."""
    out = []
    for line_no, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"line {line_no}"
        fields = line.split("\t")
        if len(fields) != 2:
            rejects.append(
                MalformedRecord(where, f"expected 2 tab-separated fields, got {len(fields)}")
            )
            continue
        qid, text = fields[0].strip(), fields[1].strip()
        if not qid or not text:
            rejects.append(MalformedRecord(where, "empty qid or question"))
            continue
        out.append(Question(qid, text))
    return out


# Tabs, line breaks that str.split("\n") keeps inside a line, and blank or
# whitespace-only fields.
TAB_PIECES = ["\t", "\n", "\r", " ", "\x0c", "\u2028", "\x85", "d1", " q2 ", "Who?", "x"]
tab_text = st.lists(st.sampled_from(TAB_PIECES) | st.text(max_size=3), max_size=24).map("".join)


@settings(max_examples=500)
@given(tab_text | st.text())
def test_record_lines_scan_equals_the_line_loop(raw):
    rejects, expected_rejects = [], []
    assert list(_parse_record_lines(raw, rejects)) == (
        reference_parse_record_lines(raw, expected_rejects)
    )
    assert rejects == expected_rejects


@settings(max_examples=500)
@given(tab_text | st.text())
def test_qline_scan_equals_the_line_loop(raw):
    rejects, expected_rejects = [], []
    assert _parse_qline(raw, rejects) == reference_parse_qline(raw, expected_rejects)
    assert rejects == expected_rejects


def reference_split_sentences(text: str) -> list[tuple[int, int]]:
    """The two-pass sentence splitter (cut, then trim), kept as the oracle."""
    spans = []
    start = 0
    for m in re.finditer(r"[.?!](?=\s+[A-Z])", text):
        spans.append((start, m.end()))
        start = m.end()
    if start < len(text):
        spans.append((start, len(text)))
    trimmed = []
    for a, b in spans:
        while a < b and text[a].isspace():
            a += 1
        while b > a and text[b - 1].isspace():
            b -= 1
        if a < b:
            trimmed.append((a, b))
    return trimmed


SENTENCE_PIECES = [". A", "! B", "? C", ". d", ".", " ", "\n", "\t", "\u2028", "\x1c", "x",
                   "Ünd", "É"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(SENTENCE_PIECES) | st.text(max_size=3), max_size=24).map(
    "".join) | st.text())
def test_split_sentences_equals_the_cut_then_trim_form(text):
    assert split_sentences(text) == reference_split_sentences(text)


def parse_record_lines(path):
    return list(parse_corpus(path, "record-lines"))


def parse_trec_xml(path):
    return parse_questions(path, "trec-xml")


def parse_qline(path):
    return parse_questions(path, "qline")


CONFIG_LINE = st.tuples(
    st.sampled_from([*REQUIRED_PATH_KEYS, *OPTIONAL_PATH_KEYS, *PARAM_SPECS]) | SHORT,
    st.sampled_from(["", "a.txt", "a\x00b", "0", "3", "-1", "2.5", "1e400", "nan", "qline",
                     "trec-xml", "record-lines"]) | SHORT,
).map(" = ".join)
REQUIRED_LINES = [f"{key} = {key}.txt" for key in REQUIRED_PATH_KEYS]

# Near-valid input for each parser of a file a user writes.
USER_FILES = {
    parse_trec_sgml: lines_of("<DOC>", "</DOC>", "<DOCNO> d1 </DOCNO>", "<DOCNO></DOCNO>",
                              "<HEADLINE>h</HEADLINE>", "<TEXT>", "</TEXT>", "<P>", "</P>"),
    parse_record_lines: lines_of("d1\t\tmill", "d1\th\tx", "\t\t", "d1\tx"),
    parse_trec_xml: lines_of('<target text="mill">', "</target>", '<q id="1">Who built it?</q>',
                             '<q id="">x</q>', '<q id="2"></q>'),
    parse_qline: lines_of("q1\tWho built it?", "q1\t", "\tWho?", "q2\tWhen?\tx"),
    load_gold: lines_of("q1 rome", "q1 (", "q2 a{1,99999999999}", "q1", " NIL", "# q3 x",
                        "q1 \\", "q4 [z-a]"),
    parse_training_file: lines_of("HUM:ind who built it", "NUM when", "PLANET what", "HUM",
                                  "NUM: x"),
    load_config: st.lists(CONFIG_LINE | SHORT, max_size=6).map(
        lambda lines: "\n".join(REQUIRED_LINES + lines)),
}


@pytest.mark.parametrize("parser", USER_FILES, ids=lambda f: f.__name__)
@given(data=st.data())
def test_user_file_parsers_take_arbitrary_text(tmp_path_factory, parser, data):
    text = data.draw(USER_FILES[parser] | st.text())
    raw = data.draw(st.just(text.encode("utf-8")) | st.binary())
    path = tmp_path_factory.mktemp("parser") / "input"
    path.write_bytes(raw)
    load_or_refuse(parser, path)


# `ask` answers as the staged pipeline does. Documents hold names, years,
# amounts, an abbreviation, a dotted and a non-ASCII word and a backslash,
# apart by spaces, full stops, tabs, form feeds and line breaks; questions
# may be all stopwords. `ask` reads only questions, one per line, so the
# staged side reads a qline file.
ASK_WORDS = [*FOUR, "İstanbul", "Dr.", "\\", "12", "x1"]
ASK_GAPS = [".", "\t", "\x0c", "\r\n", "\n"]
ask_text = st.lists(st.sampled_from(ASK_WORDS + ASK_GAPS), min_size=1, max_size=14).map(" ".join)
ASK_TRAINING = [
    TrainingExample("HUM:ind", "who built the mill"), TrainingExample("HUM:ind", "who sold it"),
    TrainingExample("NUM:date", "when was the wall built"),
    TrainingExample("NUM:money", "how much was the barn sold for"),
    TrainingExample("LOC:other", "where is the dock"),
    TrainingExample("ABBR:exp", "what does nato stand for"),
    TrainingExample("DESC:def", "what is a mill"),
]
QUESTION_WORDS = ["Who", "When", "Where", "What", "How much", "built", "sold", "the", "of",
                  "mill", "Voss", "1921", "NATO", "İstanbul", "\\"]
GAZETTEER_NAMES = ["voss", "Voss Kent", "hale", "İstanbul", "nato"]


@st.composite
def staged_inputs(draw):
    """A corpus (trec-sgml or record-lines), a qline question file, the
    stage-3 parameters and the gazetteers (None: the key is unset)."""
    texts = draw(st.lists(st.lists(ask_text, min_size=1, max_size=3), min_size=1, max_size=5))
    if draw(st.booleans()):
        fmt = "trec-sgml"
        bodies = [
            "\n".join(f"<P>{p}</P>" for p in paras) if draw(st.booleans()) else " ".join(paras)
            for paras in texts
        ]
        corpus = "".join(f"<DOC>\n<DOCNO> D{i} </DOCNO>\n<TEXT>\n{body}\n</TEXT>\n</DOC>\n"
                         for i, body in enumerate(bodies))
    else:
        fmt = "record-lines"
        corpus = "".join(f"D{i}\t\t{' '.join(paras)}\n" for i, paras in enumerate(texts))
        # A line break in a text starts a record of its own; two such
        # records may share a doc id, which indexing rightly refuses.
        doc_ids = [doc.doc_id for doc in _parse_record_lines(corpus, [])]
        assume(len(set(doc_ids)) == len(doc_ids))
    asked = draw(st.lists(st.lists(st.sampled_from(QUESTION_WORDS), min_size=1, max_size=5),
                          min_size=1, max_size=4))
    questions = "".join(f"q{i}\t{' '.join(words)}?\n" for i, words in enumerate(asked))
    params = {
        "corpus.format": fmt, "questions.format": "qline",
        "retrieval.k": draw(st.integers(1, 5)), "retrieval.max_passages": draw(st.integers(1, 4)),
        **{f"weights.{w}": draw(st.floats(-2.0, 4.0))
           for w in ("coverage", "proximity", "redundancy")},
    }
    gazetteers = {key: draw(st.none() | st.lists(st.sampled_from(GAZETTEER_NAMES), max_size=3))
                  for key in ("extract.persons", "extract.locations")}
    return corpus, questions, params, gazetteers


@settings(max_examples=200, deadline=None)
@given(staged_inputs())
def test_ask_answers_as_the_staged_pipeline(inputs):
    """Per question, `ask`'s path (analyze, then answer_question on the
    loaded index) gives the staged answer record, score included, and the
    staged analyses file loads back as exactly `ask`'s analyses."""
    corpus, questions, params, gazetteers = inputs
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "corpus").write_bytes(corpus.encode("utf-8"))
        (out / "questions.txt").write_bytes(questions.encode("utf-8"))
        write_model(train_classifier(ASK_TRAINING), out / "model.nb")
        for key, names in gazetteers.items():
            if names is not None:
                params[key] = out / key
                params[key].write_text("".join(name + "\n" for name in names), encoding="utf-8")
        config = PipelineConfig(
            str(out / "corpus"), str(out / "index.qix"), str(out / "questions.txt"),
            str(out / "answers.txt"), str(out / "model.nb"), stage_params=params,
        )
        run_pipeline(config, default_engines(), [StageKind.INFO_SOURCE_PREP,
                                                 StageKind.QUESTION_PROCESSING,
                                                 StageKind.ANSWER_RETRIEVAL])

        model = load_model(config.classifier_model_path)
        index = load_index(config.index_path)
        answer_settings = AnswerSettings.from_config(config)
        analyses = [analyze(Question(q.qid, q.text), model)
                    for q in parse_questions(config.questions_path, "qline")]
        replies = [answer_question(index, a, answer_settings) for a in analyses]
        assert load_analyses(config.param("questions.analysis_out")) == analyses
        assert load_answers(config.answers_out_path) == replies
