"""Token counts and distribution divergence for sliced pages.

The tokenizer is deliberately small and deterministic: decode, drop
script/style blocks, turn the remaining tags into spaces, lowercase,
keep runs of letters of length two or more, drop stopwords. A page is
tokenized once, whole; each token goes to main content or to the comments
by the byte where it starts, so the two parts add up to the whole page.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ComsliceError, read_text
from .slicer import SlicedPage, Span

# Each markup pattern also matches what is left when the end of the text cuts
# it off (a tag with no '>', a script start tag with no '>'). _blank leaves
# such an incomplete match as it is; matching it only skips start positions
# that could not match either, so no scan re-reads the rest of the text.
_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*(>.*?(?:</\1[^>]*>?|\Z))?",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"<[^>]*>?")
_WORD_RE = re.compile(r"[^\W\d_]{2,}")


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, one word per line, ``#`` starting a comment.

    Without a path the bundled French list is used; words are lowercased
    to match the tokenizer's output. A missing file or one that is not
    UTF-8 raises ComsliceError.
    """
    if path is None:
        text = resources.files("comslice").joinpath("data/stopwords_fr.txt").read_text(
            encoding="utf-8"
        )
    else:
        text = read_text(path, ComsliceError, "stopword list")
    words = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


@functools.cache
def default_stopwords() -> frozenset[str]:
    return load_stopwords()


def _blank(match: re.Match[str]) -> str:
    """Spaces as long as a complete match, so character offsets survive the removal.

    A match is complete when it ends in '>' or its body (the script or
    style pattern's group 2) took part.
    """
    text = match[0]
    if text[-1] == ">" or match.lastindex == 2:
        return " " * len(text)
    return text


def tokenize(
    data: bytes, stopwords: frozenset[str] | None = None, sections: Sequence[Span] = ()
) -> tuple[list[str], list[str]]:
    """Turn raw HTML bytes into lowercase word tokens, split as (main, comment).

    Tokens are maximal runs of Unicode letters (no digits, no underscore)
    at least two characters long, minus stopwords. HTML entities are left
    as-is; ``&eacute;`` simply tokenizes as ``eacute``. A token whose first
    byte lies in one of the sorted ``sections`` spans is a comment token
    (``SlicedPage.in_comment_section``); a span boundary never splits a word.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    text = data.decode("utf-8", errors="replace")
    text = _SCRIPT_STYLE_RE.sub(_blank, text)
    text = _TAG_RE.sub(_blank, text)
    lowered = text.lower()
    cuts = [0]
    for offset in (bound for span in sections for bound in span):
        # byte offset -> character of text -> position in lowered (İ lowercases to
        # two characters); a cut inside a word moves to the word's end
        chars = len(data[:offset].decode("utf-8", errors="replace"))
        cut = len(text[:chars].lower())
        word = _WORD_RE.match(lowered, cut - 1) if cut else None
        cuts.append(word.end() if word else cut)
    cuts.append(len(lowered))
    parts: tuple[list[str], list[str]] = ([], [])
    for i, (start, end) in enumerate(zip(cuts, cuts[1:])):
        words = _WORD_RE.findall(lowered, start, end)
        parts[i % 2].extend(t for t in words if t not in stopwords)
    return parts


def corpus_token_counts(
    pages: Iterable[SlicedPage], stopwords: frozenset[str] | None = None
) -> tuple[Counter[str], Counter[str]]:
    """Token counts over many pages, as (main, comment); their sum counts whole pages."""
    main: Counter[str] = Counter()
    comment: Counter[str] = Counter()
    for page in pages:
        page_main, page_comment = tokenize(page.raw_bytes, stopwords, page.section_spans)
        main.update(page_main)
        comment.update(page_comment)
    return main, comment


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
