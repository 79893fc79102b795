"""Shared token normalization.

One rule everywhere: lowercase, split on whitespace and on the characters
``. _ / ^ -``, drop empty pieces. Every Jaccard and count-vector feature in
the package goes through this tokenizer so that fields never mismatch on
normalization details.
"""

from __future__ import annotations

import re
from typing import Iterable

_TOKEN = re.compile(r"[^\s._/^\-]+")

NUM_TOKEN = "numtkn"
EMPTY_TOKEN = "emptstr"


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase ``text`` and split it into normalized tokens."""
    return tuple(_TOKEN.findall(text.lower()))


def is_numeric(token: str) -> bool:
    """True for tokens made of digits only (mapped to ``numtkn`` in text fields)."""
    return token.isdigit()


def jaccard(a: Iterable, b: Iterable) -> float:
    """Set overlap |a & b| / |a | b|; 0.0 when both sides are empty."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)
