"""Tokenizer behaviour, top-k tables, and distribution divergence."""

from __future__ import annotations

import math
import re
import sys
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

from comslice import textstats
from comslice.slicer import SlicedPage
from comslice.textstats import (
    corpus_token_counts,
    jsd,
    load_stopwords,
    tokenize,
    top_k,
)

NO_STOPWORDS: frozenset[str] = frozenset()


def words(pieces: list[bytes]) -> list[str]:
    """The tokens of tokenize's whitespace pieces, in order."""
    return [w for p in pieces for w in textstats._WORD_RE.findall(p.decode("utf-8", "replace").lower())]


def token_parts(data: bytes, sections=()) -> tuple[list[str], list[str]]:
    """The tokens of tokenize's (main, comment) pieces, in order."""
    main, comment = tokenize(data, sections)
    return words(main), words(comment)


def test_tags_become_separators():
    assert words(tokenize(b"ab<br>cd")[0]) == ["ab", "cd"]


def test_script_and_style_blocks_vanish():
    raw = (
        b"<p>garde</p><script type='x'>var secret = 1;</script>"
        b"<STYLE>body { color: red }</STYLE><p>aussi</p>"
    )
    assert words(tokenize(raw)[0]) == ["garde", "aussi"]


def test_unterminated_script_swallows_the_tail():
    assert words(tokenize(b"<p>avant</p><script>var x = 'oops';")[0]) == ["avant"]


def test_lowercase_and_short_tokens_dropped():
    assert words(tokenize(b"Grand A et Petit")[0]) == ["grand", "et", "petit"]


def test_digits_and_underscores_break_tokens():
    assert words(tokenize(b"abc123def mot_cle v2")[0]) == ["abc", "def", "mot", "cle"]


def test_accented_letters_are_kept():
    assert words(tokenize("Santé publique à Genève".encode())[0]) == [
        "santé",
        "publique",
        "genève",
    ]


def test_entities_are_not_decoded():
    assert words(tokenize(b"caf&eacute; &amp; th&eacute;")[0]) == ["caf", "eacute", "amp", "th", "eacute"]


def _page(raw: bytes, sections=()) -> SlicedPage:
    return SlicedPage(site_id="s", page_path="p", raw_bytes=raw, section_spans=sections)


def test_default_french_stopwords_apply():
    raw = b"le vaccin et la peur sont dans les esprits"
    assert words(tokenize(raw)[0]) == ["le", "vaccin", "et", "la", "peur", "sont", "dans", "les", "esprits"]
    main, comment = corpus_token_counts([_page(raw)])
    assert (main, comment) == (Counter({"vaccin": 1, "peur": 1, "esprits": 1}), Counter())


def test_bad_utf8_is_replaced_not_fatal():
    assert words(tokenize(b"caf\xe9 noir")[0]) == ["caf", "noir"]


def test_repeated_word_survives_case_and_stopwords():
    raw = b"<p>Le vaccin, le VACCIN!</p>"
    assert words(tokenize(raw)[0]) == ["le", "vaccin", "le", "vaccin"]
    assert corpus_token_counts([_page(raw)])[0] == Counter({"vaccin": 2})


def test_empty_input_tokenizes_to_nothing():
    assert words(tokenize(b"")[0]) == []


def test_pure_numbers_tokenize_to_nothing():
    assert words(tokenize(b"<b>2017 2018</b>")[0]) == []


# the tokenizer's regexes before they were made linear: the references for its output
_REF_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)(?=[\t\n\f\r />]|\Z)[^>]*(?:>.*?(?:</\1(?=[\t\n\f\r />]|\Z)[^>]*>|\Z)|\Z)",
    re.IGNORECASE | re.DOTALL | re.ASCII,
)
_REF_TAG_RE = re.compile(r"<[^>]*>?")
_REF_WORD_RE = re.compile(r"[^\W\d_]+")


def reference_tokenize(data: bytes, stopwords: frozenset[str]) -> list[str]:
    """Whole-page tokens, without offsets: each block or tag becomes one space."""
    text = data.decode("utf-8", errors="replace")
    text = _REF_SCRIPT_STYLE_RE.sub(" ", text)
    text = _REF_TAG_RE.sub(" ", text)
    return [
        t for t in _REF_WORD_RE.findall(text.lower()) if len(t) >= 2 and t not in stopwords
    ]


# pieces that stress the tokenizer: tags, blocks (closed or not), letters that
# change length or form when lowercased, invalid and cut UTF-8
html_bytes = st.lists(
    st.sampled_from(
        [
            b"<p>", b"</p>", b"<script>", b"</script>", b"<STYLE a>", b"</style>",
            b"<", b">", b" ", b"ab", b"Mot", b"le", b"x1_", "é".encode(),
            "İ".encode(), "Σ".encode(), "ΑΣ".encode(), b"\xe2\x82", b"\xff",
            "€".encode(),
            # whitespace that str.split() cuts on beyond the ASCII space
            b"\t", b"\x0b", b"\x1c", b"\x1f", "\x85".encode(), "\xa0".encode(),
            "\u1680".encode(), "\u2028".encode(), "\u3000".encode(),
        ]
    )
    | st.binary(max_size=6),
    max_size=30,
).map(b"".join)


@st.composite
def page_with_sections(draw):
    data = draw(html_bytes)
    bounds = sorted(draw(st.lists(st.integers(0, len(data)), max_size=6)))
    sections = tuple((s, e) for s, e in zip(bounds[::2], bounds[1::2]) if s < e)
    return data, sections


@settings(max_examples=2000)
@given(page_with_sections())
def test_split_tokens_add_up_to_whole_page_tokens(page):
    data, sections = page
    main, comment = token_parts(data, sections)
    assert Counter(main) + Counter(comment) == Counter(reference_tokenize(data, NO_STOPWORDS))
    assert token_parts(data) == (reference_tokenize(data, NO_STOPWORDS), [])
    # the token tables drop the stopwords
    stopwords = frozenset({"le"})
    main_counts, comment_counts = corpus_token_counts([_page(data, sections)], stopwords)
    assert main_counts + comment_counts == Counter(reference_tokenize(data, stopwords))


def test_no_whitespace_is_a_letter():
    # tokenize cuts on whitespace, and a piece may hold more of it than the ASCII
    # bytes it cuts on; a token never crosses any of it only because no such
    # character is in the token class (the Unicode data varies with the interpreter)
    spaces = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
    assert {"\t", "\x1c", "\x85", "\xa0", "\u1680", "\u2028", "\u3000"} <= set(spaces)
    assert spaces.split() == []
    assert re.findall(r"[^\W\d_]", spaces) == []


def test_lowercasing_is_idempotent():
    # a part of a piece that _add_piece lowercased is lowercased again, as a piece
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    lowered = "".join(map(str.lower, chars))
    assert lowered.lower() == lowered


def test_only_sigma_lowercases_by_its_neighbours():
    # tokenize lowercases each whitespace piece alone; that equals lowercasing the
    # page only because no other code point's lowercase depends on what surrounds it
    others = "".join(map(chr, range(sys.maxunicode + 1))).replace("\u03a3", "")
    alone = list(map(str.lower, others))
    assert "A".join(others).lower() == "a".join(alone)  # a cased letter on each side
    assert ("A" + " A".join(others)).lower() == "a" + " a".join(alone)  # before it only
    assert ("A ".join(others) + " A").lower() == "a ".join(alone) + " a"  # after it only
    # Σ is final after a cased letter unless one follows; its context stops at
    # whitespace, '<' and '>', which end a piece
    assert ("ΑΣ".lower(), "ΑΣ.α".lower(), "ΑΣ α".lower(), "ΑΣ<α".lower()) == ("ας", "ασ.α", "ας α", "ας<α")


def test_bytes_split_cuts_on_ascii_whitespace_only():
    # tokenize splits bytes on these; each is whitespace to str.split() too, and no
    # byte of a multi-byte UTF-8 character is ASCII, so a cut never splits one
    spaces = {b for b in range(256) if bytes([b]).split() == []}
    assert spaces == set(b" \t\n\r\x0b\x0c")
    assert all(chr(b).isspace() for b in spaces)
    non_ascii = "".join(chr(c) for c in range(0x80, sys.maxunicode + 1) if not 0xD800 <= c < 0xE000)
    encoded = non_ascii.encode()
    assert re.search(rb"[\x00-\x7f]", encoded) is None
    # _MULTIBYTE matches every one of those characters, one match each
    assert re.subn(textstats._MULTIBYTE, b"", encoded) == (b"", len(non_ascii))


@pytest.mark.parametrize("name", ["scrıpt", "ſtyle", "scrİpt"])
def test_a_misspelled_script_or_style_name_is_an_ordinary_tag(name):
    # names match ASCII case-insensitively, as in the HTML standard: ı, ſ and İ
    # are not i or s, so no block opens to run to the end of the page
    assert token_parts(f"<{name}>x</SCRIPT><p>mot juste</p>".encode()) == (["mot", "juste"], [])


@pytest.mark.parametrize(
    ("page", "shown"),
    [
        # a name runs on to whitespace, '/' or '>', so these are ordinary tags, not blocks
        ("<scriptĀ>var secret</script><p>mot juste</p>", ["var", "secret", "mot", "juste"]),
        ("<p>avant</p><script-x>mot juste</p><p>fin</p>", ["avant", "mot", "juste", "fin"]),
        # </scripts> does not end a script block; the </script> after it does
        ("<script>x</scripts><p>mot juste</p></script><p>fin</p>", ["fin"]),
        ("<script\tsrc=a>var</script\n><style/>b{}</STYLE/><p>fin</p>", ["fin"]),
        ("<p>fin</p><script", ["fin"]),
    ],
    ids=["non_ascii_letter", "hyphen", "longer_end_tag", "whitespace_and_slash", "end_of_page"],
)
def test_a_script_name_ends_where_the_tag_name_ends(page, shown):
    assert token_parts(page.encode()) == (shown, [])


def _spaces(match: re.Match[str]) -> str:
    return " " * len(match.group())


markup_soup = st.lists(
    st.sampled_from(
        ["<", ">", "/", " ", "\n", "x", "<x", "<script", "<script>", "</script", "</script>",
         "<STYLE a", "</style", "scripts", "<p>"]
    ),
    max_size=30,
).map("".join)


@settings(max_examples=300)
@given(markup_soup)
def test_markup_blanking_matches_the_reference_regexes(text):
    # script and style blocks turn into spaces of their length, every tag into one space
    expected = _REF_TAG_RE.sub(" ", _REF_SCRIPT_STYLE_RE.sub(_spaces, text))
    blanked = textstats._SCRIPT_STYLE_RE.sub(textstats._blank, text.encode())
    assert textstats._TAG_RE.sub(b" ", blanked) == expected.encode()


@pytest.mark.parametrize(
    "raw, tokens",
    [
        (b"<x" * 500_000, []),  # tags that never close
        (b"<script" * 142_858, []),  # a start tag that never closes
        (b"<script>" + b"</script" * 125_000, []),  # end tags that never close
    ],
    ids=["tag", "script-start", "script-end"],
)
def test_tokenize_is_linear_on_markup_that_never_closes(raw, tokens):
    started = time.perf_counter()
    assert token_parts(raw) == (tokens, [])
    assert time.perf_counter() - started < 1.0


# the tokenizer before each page took linear time: it blanked every tag through a
# callback and decoded data[:offset] once per section bound. The reference for
# tokenize's (main, comment) lists.
_OLD_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)(?=[\t\n\f\r />]|\Z)[^>]*(>.*?(?:</\1(?=[\t\n\f\r />]|\Z)[^>]*>?|\Z))?",
    re.IGNORECASE | re.DOTALL | re.ASCII,
)
_OLD_TAG_RE = re.compile(r"<[^>]*>?")
_OLD_WORD_RE = re.compile(r"[^\W\d_]{2,}")


def _old_blank(match: re.Match[str]) -> str:
    return " " * len(match[0])


def old_tokenize(
    data: bytes, stopwords: frozenset[str] | None = None, sections=()
) -> tuple[list[str], list[str]]:
    if stopwords is None:
        stopwords = load_stopwords()
    text = data.decode("utf-8", errors="replace")
    text = _OLD_SCRIPT_STYLE_RE.sub(_old_blank, text)
    text = _OLD_TAG_RE.sub(_old_blank, text)
    lowered = text.lower()
    cuts = [0]
    for offset in (bound for span in sections for bound in span):
        chars = len(data[:offset].decode("utf-8", errors="replace"))
        cut = len(text[:chars].lower())
        word = _OLD_WORD_RE.match(lowered, cut - 1) if cut else None
        cuts.append(word.end() if word else cut)
    cuts.append(len(lowered))
    parts: tuple[list[str], list[str]] = ([], [])
    for i, (start, end) in enumerate(zip(cuts, cuts[1:])):
        words = _OLD_WORD_RE.findall(lowered, start, end)
        parts[i % 2].extend(t for t in words if t not in stopwords)
    return parts


# pieces that put section bounds inside tags, words and characters: İ lowercases
# to two characters, Σ before '.' to a final ς, and an attribute can hold
# '<script>' or lose its '>'
tricky_html = st.lists(
    st.sampled_from(
        [
            b"<p>", b"</p>", b"<b title='", b"'>", b'<a title="<script>x">', b"<script>",
            b"</script>", b"<script", b"</script", b"<style>", b"</STYLE>", b"<", b">",
            b" ", b".", b"'", b"ab", b"Mot", b"le", b"x1_", "é".encode(), "İ".encode(),
            "İİ".encode(), "Σ".encode(), "ΑΣ.".encode(), "ΑΣ".encode(), "€".encode(),
            b"\xe2\x82", b"\xff", b"\x80", b"\xc3", b"\xa9", b"\xed\xa0", b"\xe0\x80",
            b"\xf0\x90", b"\xf4\x8f\xbf", b"\x80\x80\x80\x80\x80",
        ]
    )
    | st.binary(max_size=4),
    max_size=25,
).map(b"".join)


@st.composite
def tricky_page(draw):
    data = draw(tricky_html)
    bounds = sorted(draw(st.lists(st.integers(0, len(data)), max_size=8)))
    return data, tuple(zip(bounds[::2], bounds[1::2]))


@settings(max_examples=1000)
@given(tricky_page(), st.sampled_from([frozenset(), frozenset({"le", "ab", "mot"}), None]))
def test_tokenize_matches_the_tokenizer_it_replaced(page, stopwords):
    data, sections = page
    # the old tokenizer dropped the stopwords itself, the default list for None
    dropped = load_stopwords() if stopwords is None else stopwords
    main, comment = token_parts(data, sections)
    assert ([t for t in main if t not in dropped], [t for t in comment if t not in dropped]) == (
        old_tokenize(data, stopwords, sections)
    )


@settings(max_examples=300)
@given(
    st.lists(page_with_sections(), max_size=5),
    st.sampled_from([frozenset(), frozenset({"le", "ab", "mot"}), None]),
    st.sampled_from([0, 3, textstats._MAX_PIECES]),
)
def test_corpus_counts_sum_each_pages_tokens(pages, stopwords, max_pieces):
    expected: tuple[Counter[str], Counter[str]] = (Counter(), Counter())
    for data, sections in pages:
        for counts, tokens in zip(expected, old_tokenize(data, stopwords, sections)):
            counts.update(tokens)
    # a small limit folds the piece tables into the token tables between pages
    with mock.patch.object(textstats, "_MAX_PIECES", max_pieces):
        assert corpus_token_counts([_page(*page) for page in pages], stopwords) == expected


def test_corpus_counts_read_more_pieces_of_one_count_than_a_batch():
    # _add_tokens reads the pieces of one count 1,024 at a time
    words = ["".join(chr(0x61 + n // 26**k % 26) for k in range(3)) for n in range(3000)]
    raw = " ".join(words + words[:1500]).encode()
    expected = Counter(words) + Counter(words[:1500])
    assert corpus_token_counts([_page(raw)], NO_STOPWORDS) == (expected, Counter())


@settings(max_examples=500)
@given(tricky_html, st.lists(st.integers(0, 200), max_size=8))
@example(b"\x80\xed\xa9\x9f\xc0\xed", [3])  # the held-back pair decodes as two characters
@example(b"caf\xc3", [4])  # a held-back valid lead byte decodes as one
def test_char_end_cuts_where_the_prefix_decode_ends(data, offsets):
    # a cut at _char_end(bound) ends the text where decoding data[:bound] does, and
    # changes no character after it but to add U+FFFDs for a cut invalid sequence
    text = data.decode("utf-8", errors="replace")
    for bound in (o % (len(data) + 1) for o in offsets):
        cut = textstats._char_end(data, bound)
        chars = len(data[:bound].decode("utf-8", errors="replace"))
        assert data[:cut].decode("utf-8", errors="replace") == text[:chars]
        rest = data[cut:].decode("utf-8", errors="replace")
        assert rest.endswith(text[chars:])
        assert set(rest[: len(rest) - len(text) + chars]) <= {"\ufffd"}


def test_tokenize_is_linear_in_the_number_of_sections():
    # about 1 MB, not ASCII, İ changes the length when lowercased; bounds fall
    # inside tags, words and characters
    unit = "<p class='x'>Le café İci est prêt déjà</p>\n".encode()
    data = unit * (1_000_000 // len(unit))
    bounds = range(7, len(data), len(data) // 8000)
    sections = tuple(zip(bounds[::2], bounds[1::2]))[:4000]
    started = time.perf_counter()
    main, comment = tokenize(data, sections)
    assert time.perf_counter() - started < 1.0
    main, comment = words(main), words(comment)
    assert len(sections) == 4000
    assert Counter(main) + Counter(comment) == Counter(reference_tokenize(data, NO_STOPWORDS))


# valid UTF-8 whose letters keep their length when lowercased, so a token's
# start byte can be read off the decoded text
utf8_html = st.lists(
    st.sampled_from(["ab", " ", "é", "€", "Z", "<", ">", "/", "p", "1", "_", "<script>", "</script>"]),
    max_size=30,
).map(lambda parts: "".join(parts).encode())


@given(utf8_html, st.lists(st.integers(0, 200), max_size=6))
def test_token_goes_where_its_first_byte_lies(data, bounds):
    bounds = sorted(b % (len(data) + 1) for b in bounds)
    sections = tuple((s, e) for s, e in zip(bounds[::2], bounds[1::2]) if s < e)
    page = SlicedPage(site_id="s", page_path="p", raw_bytes=data, section_spans=sections)
    original = data.decode()
    text = _REF_SCRIPT_STYLE_RE.sub(lambda m: " " * len(m.group()), original)
    text = _REF_TAG_RE.sub(lambda m: " " * len(m.group()), text)
    expected: tuple[list[str], list[str]] = ([], [])
    for m in _REF_WORD_RE.finditer(text.lower()):
        if len(m.group()) >= 2:
            start = len(original[: m.start()].encode())
            expected[page.in_comment_section(start)].append(m.group())
    assert token_parts(data, sections) == expected


def test_removed_section_never_joins_words():
    raw = b'<p>bonjour<div id="comments">salut<!-- END -->monde</p>'
    section = (raw.index(b"<div"), raw.index(b"monde"))
    assert token_parts(raw, (section,)) == (["bonjour", "monde"], ["salut"])


def test_section_inside_script_adds_no_tokens():
    raw = b'<p>texte</p><script><div id="comments">cache<!-- END --></script><p>fin</p>'
    section = (raw.index(b"<div"), raw.index(b"</script>"))
    assert token_parts(raw, (section,)) == (["texte", "fin"], [])


def test_word_cut_by_a_section_boundary_stays_where_it_starts():
    raw = b"avant parole suite"
    assert token_parts(raw, ((9, 15),)) == (["avant", "parole"], ["suite"])
    assert token_parts(raw, ((6, 9),)) == (["avant", "suite"], ["parole"])
    # a cut inside a multi-byte character puts that character before the cut
    raw = "été là".encode()
    assert token_parts(raw, ((1, len(raw)),)) == (["été"], ["là"])


@pytest.mark.parametrize(
    "tail", [b'<a href="http://x.org/cut', b'<style media="screen', b'<script src="http://x.org/cut']
)
def test_tag_cut_off_by_the_end_of_the_page_is_markup(tail):
    assert token_parts(b"<p>mot</p>" + tail) == (["mot"], [])


CUT_OFF_PAGE = b'<p>mot</p>salut<a href="http://x.org/cut'


@pytest.mark.parametrize(
    "start, end, expected",
    [
        (b"salut", None, (["mot"], ["salut"])),
        (b"http", None, (["mot", "salut"], [])),  # a bound inside the tag moves to the end
        (b"href", b"cut", (["mot", "salut"], [])),
        (b"salut", b"org", (["mot"], ["salut"])),
    ],
)
def test_bound_inside_a_cut_off_tag_adds_no_token(start, end, expected):
    raw = CUT_OFF_PAGE
    section = (raw.index(start), raw.index(end) if end else len(raw))
    assert token_parts(raw, (section,)) == expected


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# liste\nAlpha\n\nbeta # fin de ligne\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"alpha", "beta"})


def test_default_stopwords_bundled():
    words = load_stopwords()
    assert {"le", "la", "les", "et", "dans"} <= words
    assert all(word == word.lower() for word in words)


def test_corpus_token_counts_with_and_without_comments():
    raw = b"<p>article un</p><sec>virus parole virus</sec>"
    page = SlicedPage(
        site_id="s1",
        page_path="p.html",
        raw_bytes=raw,
        section_spans=((19, len(raw)),),
    )
    main, comment = corpus_token_counts([page], NO_STOPWORDS)
    assert main + comment == Counter({"virus": 2, "article": 1, "un": 1, "parole": 1})
    assert main == Counter({"article": 1, "un": 1})


def test_top_k_breaks_ties_alphabetically():
    counts = {"zèbre": 2, "abeille": 2, "loup": 5, "unique": 1}
    assert top_k(counts, 3) == [("loup", 5), ("abeille", 2), ("zèbre", 2)]
    assert top_k(counts, 10)[-1] == ("unique", 1)


def test_top_k_tied_pair_keeps_alphabetical_winner():
    assert top_k({"b": 1, "a": 1}, 1) == [("a", 1)]


@given(st.dictionaries(st.text(max_size=3), st.integers(0, 5)), st.integers(0, 30))
def test_top_k_is_the_head_of_the_sorted_table(counts, k):
    assert top_k(Counter(counts), k) == sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def test_jsd_identical_is_exactly_zero():
    assert jsd({"a": 3, "b": 1}, {"a": 3, "b": 1}) == 0.0
    assert jsd({"a": 3, "b": 1}, {"a": 6, "b": 2}) == 0.0  # same distribution, scaled


def test_jsd_disjoint_is_exactly_one():
    assert jsd({"a": 2, "b": 1}, {"c": 5}) == 1.0


def test_jsd_both_empty_raises():
    with pytest.raises(ValueError):
        jsd({}, {})


def test_jsd_one_empty_is_maximal():
    assert jsd({"a": 1}, {}) == 1.0
    assert jsd({}, {"a": 1}) == 1.0


def test_jsd_partial_overlap_matches_direct_formula():
    # p = {a: 1}, q = {a: 1/2, b: 1/2}, m = (p + q) / 2
    expected = (
        0.5 * math.log2(1.0 / 0.75)
        + 0.5 * (0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25))
    )
    assert jsd({"a": 1}, {"a": 1, "b": 1}) == pytest.approx(expected, abs=1e-12)


counters = st.dictionaries(
    st.sampled_from(["un", "deux", "trois", "quatre", "cinq"]),
    st.integers(min_value=1, max_value=30),
    max_size=5,
)


def reference_jsd(p, q):
    """jsd as written with a sorted token list, two probability tables and half_kl."""
    p_total = sum(p.values())
    q_total = sum(q.values())
    if p_total == 0 and q_total == 0:
        raise ValueError("cannot compare two empty distributions")
    if p_total == 0 or q_total == 0:
        return 1.0

    tokens = sorted(set(p) | set(q))
    p_probs = {t: p.get(t, 0) / p_total for t in tokens}
    q_probs = {t: q.get(t, 0) / q_total for t in tokens}
    if all(p_probs[t] == 0.0 or q_probs[t] == 0.0 for t in tokens):
        return 1.0

    def half_kl(probs):
        terms = []
        for t in tokens:
            pt = probs[t]
            if pt > 0.0:
                mt = (p_probs[t] + q_probs[t]) / 2.0
                terms.append(pt * math.log2(pt / mt))
        return math.fsum(terms)

    value = 0.5 * half_kl(p_probs) + 0.5 * half_kl(q_probs)
    return min(1.0, max(0.0, value))


count_tables = st.dictionaries(
    st.sampled_from(["un", "deux", "trois", "quatre", "cinq", "six", "sept", "huit"]),
    st.integers(min_value=0, max_value=10**9),
    max_size=8,
).map(Counter)


@given(count_tables, count_tables)
@example(Counter({"un": 0, "deux": 3}), Counter({"un": 5}))  # a shared token with a zero count
@example(Counter({"un": 2, "deux": 1}), Counter({"trois": 7}))  # disjoint
@example(  # disjoint but for a zero count; each side's probabilities sum below 1 in floats
    Counter({"un": 0, "deux": 2, "trois": 5, "quatre": 623, "cinq": 239}),
    Counter({"un": 2, "six": 5, "sept": 623, "huit": 239}),
)
@example(Counter({"un": 3, "deux": 1}), Counter({"un": 3, "deux": 1}))  # identical
@example(Counter({"un": 1, "deux": 4}), Counter({"un": 2, "trois": 9}))  # one shared token
@example(Counter({"un": 2, "deux": 1}), Counter({"un": 1}))  # a side that totals 1
@example(Counter({"un": 10**9, "deux": 1}), Counter({"un": 1, "deux": 10**9, "trois": 10**9}))
@example(Counter({"un": 0}), Counter())  # two empty sides
def test_jsd_is_bit_exact_with_the_reference(p, q):
    # audit.csv prints repr(text_divergence), so a last-bit change would show there
    try:
        expected = reference_jsd(p, q)
    except ValueError:
        with pytest.raises(ValueError):
            jsd(p, q)
    else:
        assert repr(jsd(p, q)) == repr(expected)


@given(counters, counters)
def test_jsd_bounds_and_symmetry(p, q):
    if not p and not q:
        return
    value = jsd(p, q)
    assert 0.0 <= value <= 1.0
    assert jsd(q, p) == value


@given(
    counters.filter(lambda c: sum(c.values()) > 0),
    counters.filter(lambda c: sum(c.values()) > 0),
)
def test_jsd_matches_scipy(p, q):
    vocab = sorted(set(p) | set(q))
    p_vec = [p.get(t, 0) for t in vocab]
    q_vec = [q.get(t, 0) for t in vocab]
    expected = jensenshannon(p_vec, q_vec, base=2) ** 2
    assert jsd(p, q) == pytest.approx(expected, abs=1e-9)
