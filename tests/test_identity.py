"""The identity contract: every seed-1 stage artifact, `ask` reply and
retrieval (each question's top documents with `repr` of their BM25 scores)
of the benchmark's fixtures is byte-identical to the digests in
identity.sha256.

A change to that file is a change to this check; `tools/identity.py
--record` writes it, and a format changed on purpose says so beside it.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_seed_1_artifact_and_ask_reply_matches_its_recorded_digest(tmp_path):
    identity = load_tool()
    assert identity.build_digests(tmp_path) == identity.read_digests()


def test_first_difference_names_the_first_line_that_differs(tmp_path):
    identity = load_tool()
    a, b, c, d = (tmp_path / name for name in "abcd")
    a.write_bytes(b"QANUSANS 2\nq1\tx\n")
    b.write_bytes(b"QANUSANS 2\nq1\ty\n")
    c.write_bytes(b"QANUSANS 2\n")
    d.write_bytes(b"QANUSANS 2\nq1\tx")
    assert identity.first_difference(a, a) is None
    assert identity.first_difference(a, b) == (2, "q1\tx\n", "q1\ty\n")
    assert identity.first_difference(a, c) == (2, "q1\tx\n", "")
    assert identity.first_difference(c, a) == (2, "", "q1\tx\n")
    assert identity.first_difference(a, d) == (2, "q1\tx\n", "q1\tx")
