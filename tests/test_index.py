import gc
import re
import tracemalloc
from collections import Counter

import pytest

from qapipe.corpus import Document, parse_corpus
from qapipe.index import (
    CorruptIndex,
    DuplicateDocId,
    InvertedIndex,
    build_index,
    load_index,
    write_index,
)
from qapipe.retrieval import retrieve_documents
from qapipe.serde import VersionMismatch

from conftest import (
    framed, make_record_corpus, random_docs, rewrite_as_index_version_2,
    rewrite_as_index_version_3, with_version,
)


LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def doc(doc_id, text, spans=()):
    return Document(doc_id, text, tuple(spans))


def test_hand_checked_postings():
    idx = build_index([doc("d1", "a b a")])
    assert idx.postings("a") == [("d1", 2)]
    assert idx.postings("b") == [("d1", 1)]
    assert idx.doc_lengths["d1"] == 3
    assert idx.avg_doc_length == 3.0


def test_empty_index():
    idx = build_index([])
    assert idx.doc_count == 0
    assert idx.avg_doc_length == 0.0
    assert idx.stats().total_postings == 0


def test_duplicate_doc_id_fatal():
    with pytest.raises(DuplicateDocId):
        build_index([doc("d1", "a"), doc("d1", "b")])


def test_stopwords_are_indexed():
    idx = build_index([doc("d1", "the cat sat on the mat")])
    assert idx.postings("the") == [("d1", 2)]
    assert idx.doc_lengths["d1"] == 6


def test_cells_hold_gaps_and_a_tf_of_2_or_more():
    idx = build_index([doc("a", "x y x"), doc("b", "y"), doc("c", "x z x x"), doc("d", "y")])
    assert idx.cells == {"x": "0:2\t2:3", "y": "0\t1\t2", "z": "2"}
    assert idx.postings("x") == [("a", 2), ("c", 3)]
    assert idx.postings("y") == [("a", 1), ("b", 1), ("d", 1)]
    assert idx.postings("z") == [("c", 1)]


def test_postings_sorted_by_doc_id():
    idx = build_index([doc("z9", "apple"), doc("a1", "apple"), doc("m5", "apple")])
    assert [doc_id for doc_id, _ in idx.postings("apple")] == ["a1", "m5", "z9"]


def test_recount_oracle_50_docs(tmp_path):
    """Every posting's tf equals a naive recount from the raw text."""
    docs = random_docs(50, seed=11)
    path = make_record_corpus(tmp_path / "c.tsv", docs)
    idx = build_index(parse_corpus(path, "record-lines"))

    naive = {
        doc_id: Counter(re.findall(r"[^\W_]+", text.lower()))
        for doc_id, text in docs.items()
    }
    seen_pairs = 0
    for term in idx.cells:
        for doc_id, tf in idx.postings(term):
            assert tf == naive[doc_id][term]
            seen_pairs += 1
    assert seen_pairs == sum(len(c) for c in naive.values())
    for doc_id, counts in naive.items():
        assert idx.doc_lengths[doc_id] == sum(counts.values())


def test_round_trip_identity(tmp_path):
    idx = build_index(
        [
            doc("d1", "a b a"),
            doc("d2", "tabs\tand\nnewlines here"),
            doc("d3", "para one\n\npara two", spans=((0, 8), (10, 18))),
            # Line breaks for str.splitlines() that escape_field leaves alone.
            doc("d4", f"one{LINE_BREAKS}two"),
        ]
    )
    path = tmp_path / "idx.qix"
    write_index(idx, path)
    assert load_index(path) == idx


def test_write_is_byte_deterministic(tmp_path):
    docs = random_docs(20, seed=5)
    idx = build_index(Document(d, t, ()) for d, t in docs.items())
    p1, p2 = tmp_path / "a.qix", tmp_path / "b.qix"
    write_index(idx, p1)
    write_index(idx, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.qix"
    path.write_text("NOTANIDX 1\n", encoding="utf-8")
    with pytest.raises(CorruptIndex):
        load_index(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "other.qix"
    for version in ("1", "9"):
        path.write_text(f"QANUSIDX {version}\n", encoding="utf-8")
        with pytest.raises(VersionMismatch):
            load_index(path)


def test_version_2_index_is_refused(tmp_path):
    path = tmp_path / "idx.qix"
    write_index(build_index([doc("a", "apple pie"), doc("b", "cherry pie")]), path)
    rewrite_as_index_version_2(path)
    assert b"doc\ta\t2\t\\N\t-\tapple pie\n" in path.read_bytes()
    with pytest.raises(VersionMismatch, match="QANUSIDX version '2', expected 4"):
        load_index(path)


def test_version_3_index_is_refused(tmp_path):
    """Version 3 wrote each cell as the absolute ordinal and the tf, 1 included."""
    path = tmp_path / "idx.qix"
    write_index(build_index([doc("a", "apple pie pie"), doc("b", "cherry pie")]), path)
    assert b"\nterm\tpie\t0:2\t1\n" in path.read_bytes()
    rewrite_as_index_version_3(path)
    assert b"\nterm\tpie\t0:2\t1:1\n" in path.read_bytes()
    with pytest.raises(VersionMismatch) as exc:
        load_index(path)
    assert str(exc.value) == (
        f"{path}: QANUSIDX version '3', expected 4; run 'qapipe index' to rewrite it"
    )


def test_version_mismatch_names_qapipe_index(tmp_path):
    path = tmp_path / "idx.qix"
    write_index(build_index([doc("a", "apple pie")]), path)
    with_version(path, 5)
    with pytest.raises(VersionMismatch) as exc:
        load_index(path)
    assert str(exc.value) == (
        f"{path}: QANUSIDX version '5', expected 4; run 'qapipe index' to rewrite it"
    )


def test_truncated_file_rejected(tmp_path):
    idx = build_index([doc("d1", "a b a")])
    path = tmp_path / "t.qix"
    write_index(idx, path)
    garbled = path.read_text(encoding="utf-8").replace("docs=1", "docs=7")
    path.write_text(garbled, encoding="utf-8")
    with pytest.raises(CorruptIndex):
        load_index(path)


def test_stats_consistency():
    docs = random_docs(30, seed=9)
    idx = build_index(Document(d, t, ()) for d, t in docs.items())
    st = idx.stats()
    assert st.doc_count == 30
    assert st.distinct_terms == len(idx.cells)
    assert st.total_postings == sum(len(idx.postings(t)) for t in idx.cells)
    assert st.avg_doc_length == pytest.approx(
        sum(idx.doc_lengths.values()) / 30, rel=1e-9
    )


def small_index():
    return build_index(
        [
            doc("d1", "a b a"),
            doc("d\\2", "tab\there, new\nline, back\\slash"),
            doc("d3", "para one\n\npara two", spans=((0, 8), (10, 18))),
        ]
    )


def test_stats_line_must_match_the_records(tmp_path):
    path = tmp_path / "idx.qix"
    write_index(small_index(), path)
    body = path.read_bytes().rsplit(b"sha256\t", 1)[0].replace(b"postings=", b"postings=1")
    path.write_bytes(framed(body))
    with pytest.raises(CorruptIndex, match="stats line"):
        load_index(path)


def test_postings_are_decoded_on_read(tmp_path):
    path = tmp_path / "idx.qix"
    write_index(small_index(), path)
    idx = load_index(path)
    assert idx.stats() == small_index().stats()
    assert "para" in idx.cells and "absent" not in idx.cells
    assert idx.postings("absent") == []
    assert idx.postings("para") == [("d3", 2)]
    assert idx.document_frequency("para") == 1


def test_malformed_cell_fails_when_its_term_is_read(tmp_path):
    """A digest-valid file whose cell count matches loads; the bad term raises on read."""
    path = tmp_path / "idx.qix"
    write_index(small_index(), path)
    body = path.read_bytes().rsplit(b"sha256\t", 1)[0]
    assert b"\nterm\tb\t0\n" in body
    body = body.replace(b"\nterm\tb\t0\n", b"\nterm\tb\t0:x\n")
    path.write_bytes(framed(body))
    idx = load_index(path)
    with pytest.raises(CorruptIndex, match="term 'b'"):
        idx.postings("b")
    with pytest.raises(CorruptIndex, match="term 'b'"):
        retrieve_documents(idx, ["a", "b"], 5)
    assert idx.postings("a") == [("d1", 2)]
    assert [d.doc_id for d in retrieve_documents(idx, ["para"], 5)] == ["d3"]


def test_built_and_loaded_index_share_one_form(tmp_path, monkeypatch):
    """A built index holds its cells as the file stores them: counting and
    writing it decode no term."""
    path = tmp_path / "idx.qix"
    write_index(small_index(), path)
    loaded = load_index(path)
    built = small_index()
    assert built.cells == loaded.cells and built.doc_ids == loaded.doc_ids

    def no_decode(self, term):
        raise AssertionError(f"term {term!r} decoded")

    monkeypatch.setattr(InvertedIndex, "postings", no_decode)
    assert built.stats() == loaded.stats()
    assert built.document_frequency("para") == loaded.document_frequency("para") == 1
    assert built.document_frequency("absent") == 0
    write_index(built, tmp_path / "again.qix")
    assert (tmp_path / "again.qix").read_bytes() == path.read_bytes()


A_LINE = b"doc\ta\t2\t-\tapple pie\n"
B_LINE = b"doc\tb\t2\t-\tcherry pie\n"


def load_altered_two_doc_index(tmp_path, *replacements: tuple[bytes, bytes]):
    """Load the index of docs a and b with each (old, new) replaced, re-digested."""
    path = tmp_path / "idx.qix"
    write_index(build_index([doc("a", "apple pie"), doc("b", "cherry pie")]), path)
    body = path.read_bytes().rsplit(b"sha256\t", 1)[0]
    assert A_LINE + B_LINE in body
    for old, new in replacements:
        assert old in body
        body = body.replace(old, new)
    path.write_bytes(framed(body))
    return load_index(path)


def test_repeated_doc_id_rejected(tmp_path):
    """Doc b renamed to a would load as one document that pie's two postings
    both point at: df 2 > N 1, and a negative idf."""
    with pytest.raises(CorruptIndex, match="doc id 'a' does not follow 'a'"):
        load_altered_two_doc_index(
            tmp_path, (B_LINE, B_LINE.replace(b"doc\tb", b"doc\ta")), (b"docs=2", b"docs=1"))


def test_descending_doc_ids_rejected(tmp_path):
    """Swapped doc lines would load, and write back as different bytes."""
    with pytest.raises(CorruptIndex, match="doc id 'a' does not follow 'b'"):
        load_altered_two_doc_index(tmp_path, (A_LINE + B_LINE, B_LINE + A_LINE))


def test_unknown_record_kind_rejected(tmp_path):
    with pytest.raises(CorruptIndex, match="unknown record kind 'bogus'"):
        load_altered_two_doc_index(tmp_path, (B_LINE, B_LINE + b"bogus\tb\t2\n"))


def test_doc_line_with_too_few_fields_rejected(tmp_path):
    with pytest.raises(CorruptIndex, match="malformed index record"):
        load_altered_two_doc_index(tmp_path, (B_LINE, b"doc\tb\t2\n"))


def test_doc_line_without_its_text_field_rejected(tmp_path):
    """A doc record is kept unread, so the loader checks that it holds both
    of its fields: spans, then text."""
    with pytest.raises(CorruptIndex, match="malformed index record"):
        load_altered_two_doc_index(tmp_path, (B_LINE, b"doc\tb\t2\t-\n"))


APPLE_LINE = b"term\tapple\t0\n"
CHERRY_LINE = b"term\tcherry\t1\n"
PIE_LINE = b"term\tpie\t0\t1\n"
NOT_GAP_TF = "not ascending GAP[:TF] cells"
PAST_LAST = "an ordinal is not below the doc count 2"


def test_descending_terms_rejected(tmp_path):
    """Swapped term lines would load, and write back as different bytes."""
    with pytest.raises(CorruptIndex, match="term 'apple' does not follow 'cherry'"):
        load_altered_two_doc_index(tmp_path, (APPLE_LINE + CHERRY_LINE, CHERRY_LINE + APPLE_LINE))


def test_repeated_term_rejected(tmp_path):
    """A second pie line would silently replace the first, and the stats
    line, counted from the loaded cells, would still match."""
    with pytest.raises(CorruptIndex, match="term 'pie' does not follow 'pie'"):
        load_altered_two_doc_index(tmp_path, (PIE_LINE, b"term\tpie\t0\n" + PIE_LINE))


@pytest.mark.parametrize("cells, reason", [
    ("-1\t1", NOT_GAP_TF),  # a sign
    ("+0\t1", NOT_GAP_TF),
    ("0:0\t1", NOT_GAP_TF),  # tf 0
    ("0:1\t1", NOT_GAP_TF),  # tf 1 is implicit
    ("0\t1:1", NOT_GAP_TF),
    ("0_0\t1", NOT_GAP_TF),  # int() reads "0_0" as 0
    ("\u0660\t1", NOT_GAP_TF),  # int() reads ARABIC-INDIC DIGIT ZERO as 0
    (" 0\t1", NOT_GAP_TF),
    ("00\t1", NOT_GAP_TF),  # a leading zero
    ("0:\t1", NOT_GAP_TF),
    ("1\t-1", NOT_GAP_TF),  # a descending pair: ordinals 1, then 0
    ("0\t0", NOT_GAP_TF),  # a repeated ordinal
    ("0\t2", PAST_LAST),  # ordinal 2 of 2 docs
    ("2\t1", PAST_LAST),
])
def test_malformed_cells_fail_when_their_term_is_read(tmp_path, cells, reason):
    """A digest-valid file whose cells the writer would not write loads, as its
    cell count matches; reading that term raises naming it, and the other
    terms still read."""
    line = b"term\tpie\t%s\n" % cells.encode("utf-8")
    idx = load_altered_two_doc_index(tmp_path, (PIE_LINE, line))
    with pytest.raises(CorruptIndex, match=re.escape(f"postings of term 'pie': {reason}")):
        idx.postings("pie")
    with pytest.raises(CorruptIndex, match="term 'pie'"):
        retrieve_documents(idx, ["cherry", "pie"], 5)
    assert idx.postings("cherry") == [("b", 1)]
    assert [d.doc_id for d in retrieve_documents(idx, ["apple"], 5)] == ["a"]


@pytest.mark.parametrize("spans", [b"", b"x", b"1-2", b"0:1:2", b"0:1,", b"0:1,,2:3", b"x:y"])
def test_malformed_spans_fail_when_their_document_is_read(tmp_path, spans):
    """A digest-valid file whose spans field is malformed loads; reading that
    document raises naming its doc id, and the other documents still read."""
    bad_line = B_LINE.replace(b"\t-\t", b"\t%s\t" % spans)
    idx = load_altered_two_doc_index(tmp_path, (B_LINE, bad_line))
    with pytest.raises(CorruptIndex, match="doc id 'b'"):
        idx.document("b")
    assert idx.document("a") == doc("a", "apple pie")
    assert [d.doc_id for d in retrieve_documents(idx, ["cherry"], 5)] == ["b"]


def test_load_index_peaks_near_what_it_keeps(tmp_path):
    """The file is read as a stream, so loading holds little beyond the index
    it returns: reading the whole file at once would hold its bytes, its
    text and its lines besides, about twice what the index keeps."""
    docs = [doc(doc_id, text * 4) for doc_id, text in random_docs(3000, seed=5).items()]
    path = tmp_path / "idx.qix"
    write_index(build_index(docs), path)
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_index(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.doc_count == 3000
    assert peak <= 1.25 * kept
