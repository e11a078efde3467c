"""Text normalization and extractive span alignment.

The same normalization is used by the extraction pipeline and by the
scorer so that span matching behaves identically on both sides:
Unicode NFC, casefold, strip leading/trailing punctuation, collapse
internal whitespace.
"""
from __future__ import annotations

import functools
import re
import unicodedata

from .errors import NoAlignment

_WORD = re.compile(r"\S+")


@functools.lru_cache(maxsize=None)  # called at both ends of every token normalized
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def normalize(s: str) -> str:
    s = unicodedata.normalize("NFC", s).casefold()
    return " ".join(s[a:b] for a, b in token_spans(s))


def norm_tokens(s: str) -> list[str]:
    return normalize(s).split()


def token_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of whitespace tokens, trimmed of edge punctuation."""
    spans = []
    for m in _WORD.finditer(text):
        start, end = m.start(), m.end()
        while start < end and _is_punct(text[start]):
            start += 1
        while end > start and _is_punct(text[end - 1]):
            end -= 1
        if end > start:
            spans.append((start, end))
    return spans


def _window_matches(spans: list[tuple[int, int]], toks: list[str],
                    want: list[str]) -> list[tuple[int, int]]:
    """All (start, end) windows of consecutive tokens, `toks` being the
    tokens of `spans` normalized, whose tokens equal `want`."""
    n = len(want)
    if n == 0:
        return []
    out = []
    for i in range(len(spans) - n + 1):
        if toks[i:i + n] == want:
            out.append((spans[i][0], spans[i + n - 1][1]))
    return out


def align_span(mention: str, text: str) -> tuple[int, int]:
    """Locate the minimal surface span of `mention` in `text`.

    Tries an exact (post-normalization) occurrence first; failing that,
    falls back to the longest prefix or suffix word sequence of the
    mention that occurs verbatim in the text. Ties are broken by
    earliest occurrence. Raises NoAlignment when no word of the mention
    occurs in the text.
    """
    m_toks = norm_tokens(mention)
    if not m_toks:
        raise NoAlignment(f"empty mention {mention!r}")
    spans = token_spans(text)
    toks = [normalize(text[a:b]) for a, b in spans]

    exact = _window_matches(spans, toks, m_toks)
    if exact:
        return min(exact, key=lambda se: (se[1] - se[0], se[0]))

    for k in range(len(m_toks) - 1, 0, -1):
        candidates = _window_matches(spans, toks, m_toks[:k])
        candidates += _window_matches(spans, toks, m_toks[-k:])
        if candidates:
            return min(candidates, key=lambda se: se[0])
    raise NoAlignment(f"mention {mention!r} not locatable in text")


def head_token_span(start: int, end: int, text: str) -> tuple[int, int]:
    """Reduce a span to its first token (used to force single-token triggers)."""
    inner = token_spans(text[start:end])
    if not inner:
        return start, end
    a, b = inner[0]
    return start + a, start + b
