"""Token counts and distribution divergence for sliced pages.

The tokenizer is deliberately small and deterministic: decode, drop
script/style blocks, turn the remaining tags into spaces, lowercase,
keep runs of letters of length two or more. A page is tokenized once,
whole; each token goes to main content or to the comments by the byte
where it starts, so the two parts add up to the whole page. Stopwords
are dropped from the token tables, not by the tokenizer.
"""

from __future__ import annotations

import codecs
import math
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ComsliceError, read_text
from .slicer import SlicedPage, Span

# Every '<' starts a tag that runs to the next '>' or, when none follows, to the end
# of the text, as a browser drops a tag that the end of the file cuts off (WHATWG
# eof-in-tag). Every match ends there too, so no scan re-reads the rest of the text.
_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*(?:>.*?(?:</\1[^>]*>?|\Z))?",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"<[^>]*>?")
# [^\W\d_]{2,}, spelled so that a scan over non-letters is cheaper
_WORD_RE = re.compile(r"[^\W\d_][^\W\d_]+")


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, one word per line, ``#`` starting a comment.

    Without a path the bundled French list is used; words are lowercased
    to match the tokenizer's output. A missing file or one that is not
    UTF-8 raises ComsliceError.
    """
    if path is None:
        path = Path(__file__).with_name("data") / "stopwords_fr.txt"
    text = read_text(path, ComsliceError, "stopword list")
    words = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def _blank(match: re.Match[str]) -> str:
    """Spaces as long as a script or style block, so character offsets survive."""
    return " " * len(match[0])


def _char_offsets(data: bytes, offsets: Iterable[int]) -> Iterator[int]:
    """``len(data[:offset].decode("utf-8", "replace"))`` for each of the sorted offsets.

    One incremental decoder reads each byte once. The bytes it holds back at
    an offset are decoded on their own, as the end of the prefix would be:
    they can give two characters (it holds back 0xED 0xA9, checking the
    surrogate range later, and those decode as two U+FFFD).
    """
    decoder = codecs.getincrementaldecoder("utf-8")("replace")
    done = chars = 0  # bytes fed to the decoder and the characters it gave for them
    for offset in offsets:
        chars += len(decoder.decode(data[done:offset]))
        done = offset
        held = decoder.getstate()[0]
        yield chars + len(held.decode("utf-8", "replace"))


def _cuts(data: bytes, text: str, lowered: str, bounds: Iterable[int]) -> list[int]:
    """0, each sorted byte bound as a position in lowered, and len(lowered).

    A bound inside a tag moves past its '>', or to the end of the text, and
    one inside a word to the word's end, so no cut splits a tag or a word.
    Each step scans only the text between its cut and the one before.
    """
    same = len(lowered) == len(text)  # no character changed length when lowercased
    cuts = [0]
    chars = at = 0  # a character of text and its position in lowered
    for char in _char_offsets(data, bounds):
        # len(s.lower()) does not depend on what surrounds s (İ lowercases to two)
        at = char if same else at + len(text[chars:char].lower())
        chars = char
        cut = at
        if cut <= cuts[-1]:  # at the previous cut, or in the tag or word it moved past
            cut = cuts[-1]
        elif lowered.rfind("<", cuts[-1], cut) > lowered.rfind(">", cuts[-1], cut):  # in a tag
            cut = lowered.find(">", cut) + 1 or len(lowered)
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
    A tag runs to its '>' or to the end of the text; a bound inside one moves there.
    The work is linear in the page size and in the number of sections.
    """
    text = _SCRIPT_STYLE_RE.sub(_blank, data.decode("utf-8", errors="replace"))
    lowered = text.lower()
    cuts = _cuts(data, text, lowered, (bound for span in sections for bound in span))
    parts: tuple[list[str], list[str]] = ([], [])
    for i, (start, end) in enumerate(zip(cuts, cuts[1:])):
        parts[i % 2].extend(_WORD_RE.findall(_TAG_RE.sub(" ", lowered[start:end])))
    return parts


def corpus_token_counts(
    pages: Iterable[SlicedPage], stopwords: frozenset[str] | None = None
) -> tuple[Counter[str], Counter[str]]:
    """Token counts over many pages, as (main, comment); their sum counts whole pages.

    The stopwords (by default the bundled French list) are dropped from the
    two tables once, at the end.
    """
    if stopwords is None:
        stopwords = load_stopwords()
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

    if not any(p[t] and q[t] for t in p.keys() & q.keys()):
        return 1.0
    p_terms: list[float] = []
    q_terms: list[float] = []
    for t in p.keys() | q.keys():
        pt = p.get(t, 0) / p_total
        qt = q.get(t, 0) / q_total
        mt = (pt + qt) / 2.0
        if pt > 0.0:
            p_terms.append(pt * math.log2(pt / mt))
        if qt > 0.0:
            q_terms.append(qt * math.log2(qt / mt))
    # fsum is correctly rounded, so the set's order (the hash seed) cannot change a bit
    value = 0.5 * math.fsum(p_terms) + 0.5 * math.fsum(q_terms)
    return min(1.0, max(0.0, value))
