"""Token counts and distribution divergence for sliced pages.

The tokenizer is deliberately small and deterministic: decode, drop
script/style blocks, turn the remaining tags into spaces, lowercase,
keep runs of letters of length two or more, drop stopwords. It feeds the
before/after comparisons, so it must behave identically on raw pages,
stripped pages and bare comment sections.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .slicer import SlicedPage

_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*>.*?(?:</\1[^>]*>|\Z)",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"<[^>]*>")
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

_DEFAULT_STOPWORDS: frozenset[str] | None = None


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, one word per line, ``#`` starting a comment.

    Without a path the bundled French list is used; words are lowercased
    to match the tokenizer's output.
    """
    if path is None:
        text = resources.files("comslice").joinpath("data/stopwords_fr.txt").read_text(
            encoding="utf-8"
        )
    else:
        text = Path(path).read_text(encoding="utf-8")
    words = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    global _DEFAULT_STOPWORDS
    if _DEFAULT_STOPWORDS is None:
        _DEFAULT_STOPWORDS = load_stopwords()
    return _DEFAULT_STOPWORDS


def tokenize(data: bytes, stopwords: frozenset[str] | None = None) -> list[str]:
    """Turn raw HTML bytes into a list of lowercase word tokens.

    Tokens are maximal runs of Unicode letters (no digits, no underscore)
    at least two characters long, minus stopwords. HTML entities are left
    as-is; ``&eacute;`` simply tokenizes as ``eacute``.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    text = data.decode("utf-8", errors="replace")
    text = _SCRIPT_STYLE_RE.sub(" ", text)
    text = _TAG_RE.sub(" ", text)
    text = text.lower()
    return [t for t in _WORD_RE.findall(text) if len(t) >= 2 and t not in stopwords]


def corpus_token_counts(
    pages: Iterable[SlicedPage],
    *,
    include_comments: bool,
    stopwords: frozenset[str] | None = None,
) -> Counter[str]:
    """Aggregate token counts over many pages, with or without comment sections."""
    counts: Counter[str] = Counter()
    for page in pages:
        data = page.raw_bytes if include_comments else page.stripped_bytes
        counts.update(tokenize(data, stopwords))
    return counts


def top_k(counts: Mapping[str, int], k: int) -> list[tuple[str, int]]:
    """The k most frequent tokens; ties resolve alphabetically."""
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def jsd(p: Mapping[str, int], q: Mapping[str, int]) -> float:
    """Jensen-Shannon divergence between two token count tables, in bits.

    Bounded by [0, 1]: identical distributions give exactly 0, disjoint
    ones exactly 1. When exactly one side is empty the distance is taken
    as maximal (1.0); two empty sides have no defined divergence and
    raise ValueError.
    """
    p_total = sum(p.values())
    q_total = sum(q.values())
    if p_total == 0 and q_total == 0:
        raise ValueError("cannot compare two empty distributions")
    if p_total == 0 or q_total == 0:
        return 1.0

    tokens = sorted(set(p) | set(q))
    p_probs = {t: p.get(t, 0) / p_total for t in tokens}
    q_probs = {t: q.get(t, 0) / q_total for t in tokens}
    if p_probs == q_probs:
        return 0.0
    if all(p_probs[t] == 0.0 or q_probs[t] == 0.0 for t in tokens):
        return 1.0

    def half_kl(probs: dict[str, float]) -> float:
        terms = []
        for t in tokens:
            pt = probs[t]
            if pt > 0.0:
                mt = (p_probs[t] + q_probs[t]) / 2.0
                terms.append(pt * math.log2(pt / mt))
        return math.fsum(terms)

    value = 0.5 * half_kl(p_probs) + 0.5 * half_kl(q_probs)
    return min(1.0, max(0.0, value))
