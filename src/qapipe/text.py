"""Tokenization shared by indexing, question analysis, and passage scoring.

The rule is deliberately simple: a token is a maximal run of alphanumeric
characters, lowercased. Punctuation produces no tokens and there is no
stemming, so query terms match document terms exactly.

`terms` takes ASCII text (all of a typical corpus) in one C-level pass:
lower the text, map every byte that is not an ASCII letter or digit to a
space, and split. Other text keeps the per-match regex, and each word is
lowered on its own, not the text as a whole: "İ".lower() is "i" and a
combining dot, which is not alphanumeric, so lowering first would split
the word.
"""

import re
from typing import NamedTuple

# Alphanumeric runs, unicode-aware; underscore counts as a separator.
TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Keeps the ASCII letters and digits, the ASCII characters TOKEN_RE matches,
# and maps every other byte to a space.
ASCII_TABLE = bytes(c if chr(c).isascii() and chr(c).isalnum() else ord(" ") for c in range(256))


class Token(NamedTuple):
    surface: str      # lowercased term
    position: int     # 0-based token index within the text
    char_offset: int  # start offset in the original string
    char_end: int     # end offset in the original string; lowering can change the length


def tokenize(text: str) -> list[Token]:
    """Split text into lowercased alphanumeric tokens with positions."""
    return [
        Token(m.group(0).lower(), i, m.start(), m.end())
        for i, m in enumerate(TOKEN_RE.finditer(text))
    ]


def terms(text: str) -> list[str]:
    """The surfaces of tokenize(text), without building a Token per word."""
    if text.isascii():
        return text.lower().encode("ascii").translate(ASCII_TABLE).decode("ascii").split()
    return [w.lower() for w in TOKEN_RE.findall(text)]
