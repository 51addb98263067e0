"""Token counts and distribution divergence for sliced pages.

The tokenizer is deliberately small and deterministic: decode, drop
script/style blocks, turn the remaining tags into spaces, lowercase,
keep runs of letters of length two or more. A page is tokenized once,
whole; each token goes to main content or to the comments by the byte
where it starts, so the two parts add up to the whole page. Stopwords
are dropped from the token tables, not by the tokenizer.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ComsliceError, read_text
from .slicer import SlicedPage, Span

# _SCRIPT_STYLE_RE also matches a script or style start tag that the end of the
# text cuts off (no '>'), and _blank leaves that as it is; matching it only skips
# start positions that could not match either, so no scan re-reads the rest of
# the text. _TAG_RE runs only on text that ends in '>', where every '<' has a
# '>' after it, so no match fails.
_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*(>.*?(?:</\1[^>]*>?|\Z))?",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"<[^>]*>")
# [^\W\d_]{2,}, spelled so that a scan over non-letters is cheaper
_WORD_RE = re.compile(r"[^\W\d_][^\W\d_]+")


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
    """Spaces as long as a complete script or style block, so character offsets survive.

    A match is complete when it ends in '>' or its body (group 2) took part.
    """
    text = match[0]
    if text[-1] == ">" or match.lastindex == 2:
        return " " * len(text)
    return text


def _strip_tags(text: str) -> str:
    """text with each complete tag replaced by one space.

    A tag that the end of text cuts off (a '<' with no '>' after it) stays
    as text, like everything after the last '>'.
    """
    close = text.rfind(">") + 1
    return _TAG_RE.sub(" ", text[:close]) + text[close:] if close else text


def _char_offsets(data: bytes, offsets: Iterable[int]) -> Iterator[int]:
    """``len(data[:offset].decode("utf-8", "replace"))`` for each of the sorted offsets.

    The decoder starts afresh at every byte outside 0x80-0xBF, and at a byte
    that follows three continuation bytes (0x80-0xBF), since no sequence is
    longer than four bytes. A prefix's decoded length is therefore the sum
    of the decoded lengths of its pieces between such split points, and each
    byte is decoded once, plus at most three per offset.
    """
    end = len(data)
    split = chars = 0  # a split point and the decoded length of data[:split]
    for offset in offsets:
        start = offset
        while start > split and start < end and data[start] & 0xC0 == 0x80:
            if start == offset - 3:  # data[offset - 3:offset + 1] all continue a sequence
                start = offset
                break
            start -= 1
        chars += len(data[split:start].decode("utf-8", errors="replace"))
        split = start
        yield chars + len(data[start:offset].decode("utf-8", errors="replace"))


def _cuts(data: bytes, text: str, lowered: str, bounds: Iterable[int]) -> list[int]:
    """0, each sorted byte bound as a position in lowered, and len(lowered).

    A bound inside a complete tag moves past its '>', and one inside a word
    to the word's end, so no cut splits a tag or a word. Each step scans
    only the text between its cut and the one before.
    """
    same = len(lowered) == len(text)  # no character changed length when lowercased
    last_close = lowered.rfind(">")
    cuts = [0]
    chars = at = 0  # a character of text and its position in lowered
    for char in _char_offsets(data, bounds):
        # len(s.lower()) does not depend on what surrounds s (İ lowercases to two)
        at = char if same else at + len(text[chars:char].lower())
        chars = char
        cut = at
        if cut <= cuts[-1]:  # at the previous cut, or in the tag or word it moved past
            cut = cuts[-1]
        elif cut <= last_close and (
            lowered.rfind("<", cuts[-1], cut) > lowered.rfind(">", cuts[-1], cut)
        ):  # inside a tag, and a '>' follows: the tag is complete
            cut = lowered.index(">", cut) + 1
        else:
            word = _WORD_RE.match(lowered, cut - 1)
            if word:
                cut = word.end()
        cuts.append(cut)
    cuts.append(len(lowered))
    return cuts


def tokenize(data: bytes, sections: Sequence[Span] = ()) -> tuple[list[str], list[str]]:
    """Turn raw HTML bytes into lowercase word tokens, split as (main, comment).

    Tokens are maximal runs of Unicode letters (no digits, no underscore)
    at least two characters long, stopwords included: corpus_token_counts
    drops those from its tables. HTML entities are left as-is;
    ``&eacute;`` simply tokenizes as ``eacute``. A token whose first byte
    lies in one of the sorted ``sections`` spans is a comment token
    (``SlicedPage.in_comment_section``); a span boundary never splits a word.
    The work is linear in the page size and in the number of sections.
    """
    text = _SCRIPT_STYLE_RE.sub(_blank, data.decode("utf-8", errors="replace"))
    lowered = text.lower()
    cuts = _cuts(data, text, lowered, (bound for span in sections for bound in span))
    parts: tuple[list[str], list[str]] = ([], [])
    for i, (start, end) in enumerate(zip(cuts, cuts[1:])):
        parts[i % 2].extend(_WORD_RE.findall(_strip_tags(lowered[start:end])))
    return parts


def corpus_token_counts(
    pages: Iterable[SlicedPage], stopwords: frozenset[str] | None = None
) -> tuple[Counter[str], Counter[str]]:
    """Token counts over many pages, as (main, comment); their sum counts whole pages.

    The stopwords (by default the bundled French list) are dropped from the
    two tables once, at the end.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    main: Counter[str] = Counter()
    comment: Counter[str] = Counter()
    for page in pages:
        page_main, page_comment = tokenize(page.raw_bytes, page.section_spans)
        main.update(page_main)
        comment.update(page_comment)
    for counts in (main, comment):
        for word in stopwords.intersection(counts):
            del counts[word]
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
