import pytest

from qapipe.corpus import Document, MalformedRecord, parse_corpus, write_rejects

from conftest import make_record_corpus


def test_trec_sgml_two_docs_in_order(sgml_corpus):
    docs = list(parse_corpus(sgml_corpus, "trec-sgml"))
    assert [d.doc_id for d in docs] == ["DOC-A", "DOC-B"]


def test_trec_sgml_headline_is_read_past(tmp_path):
    path = tmp_path / "corpus.sgml"
    body = "<DOCNO>H-1</DOCNO>\n{}<TEXT><P>First.</P>\n<P>Second.</P></TEXT>"
    path.write_text(
        "".join(f"<DOC>{body.format(h)}</DOC>\n" for h in ("<HEADLINE>Big news</HEADLINE>\n", "")),
        encoding="utf-8",
    )
    with_headline, without = parse_corpus(path, "trec-sgml")
    assert with_headline == without == Document("H-1", "First.\n\nSecond.", ((0, 6), (8, 15)))


def test_record_lines_middle_field_is_read_past(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\tBig news\tfirst text\nd1\t\tfirst text\n", encoding="utf-8")
    with_headline, without = parse_corpus(path, "record-lines")
    assert with_headline == without == Document("d1", "first text", ())


def test_trec_sgml_paragraph_spans_slice_back(sgml_corpus):
    doc = next(parse_corpus(sgml_corpus, "trec-sgml"))
    assert len(doc.paragraph_spans) == 2
    a, b = doc.paragraph_spans[0]
    assert doc.text[a:b] == "The treaty was signed on 12 January 2004 in Rome."
    a, b = doc.paragraph_spans[1]
    assert doc.text[a:b] == "Delegates praised the accord as historic."
    spans = doc.paragraph_spans
    assert all(s1[1] <= s2[0] for s1, s2 in zip(spans, spans[1:]))


def test_trec_sgml_missing_docno_is_rejected(tmp_path):
    path = tmp_path / "bad.sgml"
    path.write_text(
        "<DOC>\n<TEXT>orphan text</TEXT>\n</DOC>\n"
        "<DOC>\n<DOCNO>OK-1</DOCNO>\n<TEXT>fine</TEXT>\n</DOC>\n",
        encoding="utf-8",
    )
    rejects: list[MalformedRecord] = []
    docs = list(parse_corpus(path, "trec-sgml", rejects))
    assert [d.doc_id for d in docs] == ["OK-1"]
    assert len(rejects) == 1
    assert "DOCNO" in rejects[0].reason


def test_trec_sgml_without_paragraph_markup(tmp_path):
    path = tmp_path / "plain.sgml"
    path.write_text(
        "<DOC>\n<DOCNO>P-1</DOCNO>\n<TEXT>\nJust body text here.\n</TEXT>\n</DOC>\n",
        encoding="utf-8",
    )
    (doc,) = parse_corpus(path, "trec-sgml")
    assert doc.text == "Just body text here."
    assert doc.paragraph_spans == ()


def test_record_lines_skip_and_report(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "d1\thead\tfirst text\nbroken line without tabs\nd2\t\tsecond text\n",
        encoding="utf-8",
    )
    rejects: list[MalformedRecord] = []
    docs = list(parse_corpus(path, "record-lines", rejects))
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert len(rejects) == 1
    assert rejects[0].location == "line 2"


def test_record_lines_split_on_newline_only(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("d1\t\tpage one\fpage two\u2028end\nd2\t\tnext\n", encoding="utf-8")
    rejects: list[MalformedRecord] = []
    docs = list(parse_corpus(path, "record-lines", rejects))
    assert [d.text for d in docs] == ["page one\fpage two\u2028end", "next"]
    assert rejects == []


def test_record_lines_drop_one_leading_byte_order_mark(tmp_path):
    """The file's leading BOM is not part of the first doc id; any other
    U+FEFF is text."""
    path = tmp_path / "corpus.tsv"
    path.write_text("\ufeffd1\t\tfirst\nd2\t\t\ufeffsecond\n", encoding="utf-8")
    docs = list(parse_corpus(path, "record-lines"))
    assert docs == [Document("d1", "first", ()), Document("d2", "\ufeffsecond", ())]
    path.write_text("\ufeff\ufeffd1\t\tfirst\n", encoding="utf-8")
    assert [d.doc_id for d in parse_corpus(path, "record-lines")] == ["\ufeffd1"]


def test_record_lines_empty_doc_id_rejected(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("\thead\ttext\n", encoding="utf-8")
    rejects: list[MalformedRecord] = []
    assert list(parse_corpus(path, "record-lines", rejects)) == []
    assert len(rejects) == 1


def test_unknown_format_rejected(tmp_path):
    path = make_record_corpus(tmp_path / "c.tsv", {"d1": "text"})
    with pytest.raises(Exception):
        list(parse_corpus(path, "json"))


def test_write_rejects_sidecar(tmp_path):
    out = tmp_path / "x.rejects"
    write_rejects([MalformedRecord("line 3", "bad")], out)
    assert out.read_text(encoding="utf-8") == "line 3\tbad\n"
