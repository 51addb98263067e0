"""Token counts and distribution divergence for sliced pages.

The tokenizer is deliberately small and deterministic: drop script/style
blocks, turn the remaining tags into spaces, decode, lowercase, keep runs
of letters of length two or more. A page is tokenized once, whole, in
bytes; each token goes to main content or to the comments by the byte
where it starts, so the two parts add up to the whole page. The tables
count the raw whitespace pieces first and decode, lowercase and split each
distinct piece once. Stopwords are dropped from the token tables, not by
the tokenizer.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ComsliceError, read_text
from .slicer import SlicedPage, Span

# Every '<' starts a tag that runs to the next '>' or, when none follows, to the end
# of the page, as a browser drops a tag that the end of the file cuts off (WHATWG
# eof-in-tag). Every match ends there too, so no scan re-reads the rest of the page.
# Bytes patterns match the names ASCII case-insensitively, as the HTML standard does,
# and a name ends where its tag-name state ends it: at whitespace, '/' or '>'.
_SCRIPT_STYLE_RE = re.compile(
    rb"<(script|style)(?=[\t\n\f\r />]|\Z)[^>]*(?:>.*?(?:</\1(?=[\t\n\f\r />]|\Z)[^>]*>?|\Z))?",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(rb"<[^>]*>?")
# [^\W\d_]{2,}, spelled so that a scan over non-letters is cheaper
_WORD_RE = re.compile(r"[^\W\d_][^\W\d_]+")
# A valid multi-byte UTF-8 character (Unicode Table 3-7); none of its bytes is ASCII.
# Compiled on first use, through re's cache, so only a run that tokenizes pays for it.
_MULTIBYTE = (
    rb"[\xc2-\xdf][\x80-\xbf]|\xe0[\xa0-\xbf][\x80-\xbf]|[\xe1-\xec\xee\xef][\x80-\xbf]{2}"
    rb"|\xed[\x80-\x9f][\x80-\xbf]|\xf0[\x90-\xbf][\x80-\xbf]{2}|[\xf1-\xf3][\x80-\xbf]{3}"
    rb"|\xf4[\x80-\x8f][\x80-\xbf]{2}"
)


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


def _blank(match: re.Match[bytes]) -> bytes:
    """Spaces as long as a script or style block, so byte offsets survive."""
    return b" " * len(match[0])


def _char_end(data: bytes, bound: int) -> int:
    """bound, or the end of the valid UTF-8 character that it falls strictly inside."""
    chars = re.compile(_MULTIBYTE).finditer(data, max(bound - 3, 0), bound + 3)
    return next((char.end() for char in chars if char.start() < bound < char.end()), bound)


def _cuts(data: bytes, bounds: Iterable[int]) -> list[int]:
    """0, each sorted byte bound as a cut, and len(data).

    A bound inside a character moves to its end, and one inside a tag past
    its '>', or to the end of the data, so no cut splits a character or a
    tag. Each step scans only the bytes between its cut and the one before.
    """
    cuts = [0]
    for bound in bounds:
        cut = _char_end(data, bound)
        if cut <= cuts[-1]:  # at the previous cut, or in the tag it moved past
            cut = cuts[-1]
        elif data.rfind(b"<", cuts[-1], cut) > data.rfind(b">", cuts[-1], cut):  # in a tag
            cut = data.find(b">", cut) + 1 or len(data)
        cuts.append(cut)
    cuts.append(len(data))
    return cuts


def _add_piece(parts: tuple[list[bytes], list[bytes]], fragments: list[tuple[int, bytes]]) -> None:
    """Add a piece, given as the (side, bytes) fragments that the cuts split it into, if any.

    The piece is lowercased whole, since Σ lowercases by its neighbours, and
    a cut inside a word moves to the word's end, so the word stays on the
    side where it starts. Each part goes to its side lowercased, in UTF-8.
    """
    texts = [fragment.decode("utf-8", "replace") for _, fragment in fragments]
    lowered = "".join(texts).lower()
    cuts, at = [0], 0
    for text in texts[:-1]:
        at += len(text.lower())  # len(s.lower()) does not depend on what surrounds s
        word = _WORD_RE.match(lowered, at - 1) if at > cuts[-1] else None
        cuts.append(word.end() if word else max(at, cuts[-1]))
    cuts.append(len(lowered))
    for (side, _), start, end in zip(fragments, cuts, cuts[1:]):
        if start < end:
            parts[side].append(lowered[start:end].encode())


def tokenize(data: bytes, sections: Sequence[Span] = ()) -> tuple[list[bytes], list[bytes]]:
    """Whitespace pieces of raw HTML, (main, comment): named for perfbench's patch point.

    ``_WORD_RE.findall`` over each piece, decoded and lowercased, in order,
    gives the part's tokens: maximal runs of Unicode letters (no digits, no
    underscore) at least two characters long, stopwords included
    (corpus_token_counts drops those from its tables). Pieces are
    ``bytes.split()`` pieces; no whitespace character is a letter, and no
    ASCII byte occurs inside a multi-byte UTF-8 character, so no token
    crosses a piece boundary. HTML entities are left as-is; ``&eacute;``
    simply tokenizes as ``eacute``. A token whose first byte lies in one of
    the sorted ``sections`` spans is a comment token
    (``SlicedPage.in_comment_section``); a span boundary never splits a word.
    A tag runs to its '>' or to the end of the page; a bound inside one moves there.
    The work is linear in the page size and in the number of sections.
    """
    blanked = _SCRIPT_STYLE_RE.sub(_blank, data)
    cuts = _cuts(blanked, (bound for span in sections for bound in span))
    parts: tuple[list[bytes], list[bytes]] = ([], [])
    held: list[tuple[int, bytes]] = []  # the fragments of a piece that runs on past the last cut
    for i, (start, end) in enumerate(zip(cuts, cuts[1:])):
        text = _TAG_RE.sub(b" ", blanked[start:end])
        if not text:
            continue
        pieces = text.split()
        if held and not text[:1].isspace():  # the held piece runs on into this part
            held.append((i % 2, pieces.pop(0)))
            if not pieces and not text[-1:].isspace():  # and past it
                continue
        _add_piece(parts, held)
        held = [(i % 2, pieces.pop())] if not text[-1:].isspace() else []
        parts[i % 2].extend(pieces)
    _add_piece(parts, held)
    return parts


# A distinct piece costs about 80 bytes in a table besides its own bytes, and
# text whose pieces never repeat (numbers, dates, ids) would otherwise hold every
# one of them; past this many the piece tables are folded into the token tables.
_MAX_PIECES = 1 << 16


def _add_tokens(tokens: Counter[str], pieces: Counter[bytes]) -> None:
    """Move counted whitespace pieces into a token table, each distinct piece read once.

    The pieces of one count are read a batch at a time: joined by spaces, they
    decode, lowercase and split into the words they give alone.
    """
    by_count: dict[int, list[bytes]] = {}
    for piece, count in pieces.items():
        by_count.setdefault(count, []).append(piece)
    for count, same in by_count.items():
        for start in range(0, len(same), 1024):  # a batch bounds the words held at once
            text = b" ".join(same[start : start + 1024]).decode("utf-8", "replace").lower()
            for word, n in Counter(_WORD_RE.findall(text)).items():
                tokens[word] += n * count
    pieces.clear()


def corpus_token_counts(
    pages: Iterable[SlicedPage], stopwords: frozenset[str] | None = None
) -> tuple[Counter[str], Counter[str]]:
    """Token counts over many pages, as (main, comment); their sum counts whole pages.

    Each side counts its raw whitespace pieces over the pages, then decodes,
    lowercases and splits each distinct piece into tokens once, adding the
    piece's count to each. The piece tables are folded into the token tables
    after any page that leaves them holding more than ``_MAX_PIECES``
    distinct pieces, so besides the token tables they hold at most that many
    plus one page's. The stopwords (by default the bundled French list) are
    dropped from the two tables once, at the end.
    """
    if stopwords is None:
        stopwords = load_stopwords()
    tables: tuple[Counter[str], Counter[str]] = (Counter(), Counter())
    pieces: tuple[Counter[bytes], Counter[bytes]] = (Counter(), Counter())
    for page in pages:
        for side, part in zip(pieces, tokenize(page.raw_bytes, page.section_spans)):
            side.update(part)
        if len(pieces[0]) + len(pieces[1]) > _MAX_PIECES:
            for counts, side in zip(tables, pieces):
                _add_tokens(counts, side)
    for counts, side in zip(tables, pieces):
        _add_tokens(counts, side)
        for word in stopwords.intersection(counts):
            del counts[word]
    return tables


def top_k(counts: Mapping[str, int], k: int) -> list[tuple[str, int]]:
    """The k most frequent tokens; ties resolve alphabetically."""
    import heapq  # here: only tokens ranks a table

    # sorted(...)[:k], selecting the k rows instead of sorting the whole table
    return heapq.nsmallest(k, counts.items(), key=lambda item: (-item[1], item[0]))


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
