"""Property tests for the field codec and the index file format."""

from hypothesis import given, settings, strategies as st

from qapipe.corpus import Document
from qapipe.index import build_index, load_index, write_index
from qapipe.serde import escape_field, unescape_field

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


documents = st.builds(
    Document,
    doc_id=tricky_text,
    headline=st.none() | tricky_text,
    text=tricky_text,
    paragraph_spans=st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3
    ).map(tuple),
)


@settings(max_examples=50)
@given(st.lists(documents, max_size=5, unique_by=lambda d: d.doc_id))
def test_index_round_trip(tmp_path_factory, docs):
    idx = build_index(docs)
    path = tmp_path_factory.mktemp("prop") / "idx.qix"
    write_index(idx, path)
    assert load_index(path) == idx
