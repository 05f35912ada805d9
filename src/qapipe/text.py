"""Tokenization shared by indexing, question analysis, and passage scoring.

The rule is deliberately simple: a token is a maximal run of alphanumeric
characters, lowercased. Punctuation produces no tokens and there is no
stemming, so query terms match document terms exactly.
"""

import re
from dataclasses import dataclass

# Alphanumeric runs, unicode-aware; underscore counts as a separator.
TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Token:
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
    # Lower each match, not the text: "İ".lower() ends in a non-alphanumeric mark.
    return [w.lower() for w in TOKEN_RE.findall(text)]

