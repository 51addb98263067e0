"""Tokenizer behaviour, top-k tables, and distribution divergence."""

from __future__ import annotations

import math
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

from comslice import textstats
from comslice.slicer import SlicedPage
from comslice.textstats import (
    corpus_token_counts,
    default_stopwords,
    jsd,
    load_stopwords,
    tokenize,
    top_k,
)

NO_STOPWORDS: frozenset[str] = frozenset()


def test_tags_become_separators():
    assert tokenize(b"ab<br>cd")[0] == ["ab", "cd"]


def test_script_and_style_blocks_vanish():
    raw = (
        b"<p>garde</p><script type='x'>var secret = 1;</script>"
        b"<STYLE>body { color: red }</STYLE><p>aussi</p>"
    )
    assert tokenize(raw)[0] == ["garde", "aussi"]


def test_unterminated_script_swallows_the_tail():
    assert tokenize(b"<p>avant</p><script>var x = 'oops';")[0] == ["avant"]


def test_lowercase_and_short_tokens_dropped():
    assert tokenize(b"Grand A et Petit")[0] == ["grand", "et", "petit"]


def test_digits_and_underscores_break_tokens():
    assert tokenize(b"abc123def mot_cle v2")[0] == ["abc", "def", "mot", "cle"]


def test_accented_letters_are_kept():
    assert tokenize("Santé publique à Genève".encode())[0] == [
        "santé",
        "publique",
        "genève",
    ]


def test_entities_are_not_decoded():
    assert tokenize(b"caf&eacute; &amp; th&eacute;")[0] == ["caf", "eacute", "amp", "th", "eacute"]


def _page(raw: bytes, sections=()) -> SlicedPage:
    return SlicedPage(site_id="s", page_path="p", raw_bytes=raw, section_spans=sections)


def test_default_french_stopwords_apply():
    raw = b"le vaccin et la peur sont dans les esprits"
    assert tokenize(raw)[0] == ["le", "vaccin", "et", "la", "peur", "sont", "dans", "les", "esprits"]
    main, comment = corpus_token_counts([_page(raw)])
    assert (main, comment) == (Counter({"vaccin": 1, "peur": 1, "esprits": 1}), Counter())


def test_bad_utf8_is_replaced_not_fatal():
    assert tokenize(b"caf\xe9 noir")[0] == ["caf", "noir"]


def test_repeated_word_survives_case_and_stopwords():
    raw = b"<p>Le vaccin, le VACCIN!</p>"
    assert tokenize(raw)[0] == ["le", "vaccin", "le", "vaccin"]
    assert corpus_token_counts([_page(raw)])[0] == Counter({"vaccin": 2})


def test_empty_input_tokenizes_to_nothing():
    assert tokenize(b"")[0] == []


def test_pure_numbers_tokenize_to_nothing():
    assert tokenize(b"<b>2017 2018</b>")[0] == []


# the tokenizer's regexes before they were made linear: the references for its output
_REF_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*>.*?(?:</\1[^>]*>|\Z)", re.IGNORECASE | re.DOTALL
)
_REF_TAG_RE = re.compile(r"<[^>]*>")
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
    main, comment = tokenize(data, sections)
    assert Counter(main) + Counter(comment) == Counter(reference_tokenize(data, NO_STOPWORDS))
    assert tokenize(data) == (reference_tokenize(data, NO_STOPWORDS), [])
    # the token tables drop the stopwords
    stopwords = frozenset({"le"})
    main_counts, comment_counts = corpus_token_counts([_page(data, sections)], stopwords)
    assert main_counts + comment_counts == Counter(reference_tokenize(data, stopwords))


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
    # script and style blocks turn into spaces of their length, every complete tag into one space
    expected = _REF_TAG_RE.sub(" ", _REF_SCRIPT_STYLE_RE.sub(_spaces, text))
    blanked = textstats._SCRIPT_STYLE_RE.sub(textstats._blank, text)
    assert textstats._strip_tags(blanked) == expected


@pytest.mark.parametrize(
    "raw, tokens",
    [
        (b"<x" * 500_000, []),  # tags that never close
        (b"<script" * 142_858, ["script"] * 142_858),  # an unclosed tag is text
        (b"<script>" + b"</script" * 125_000, []),  # end tags that never close
    ],
    ids=["tag", "script-start", "script-end"],
)
def test_tokenize_is_linear_on_markup_that_never_closes(raw, tokens):
    started = time.perf_counter()
    assert tokenize(raw) == (tokens, [])
    assert time.perf_counter() - started < 1.0


# the tokenizer before each page took linear time: it blanked every tag through a
# callback and decoded data[:offset] once per section bound. The reference for
# tokenize's (main, comment) lists.
_OLD_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*(>.*?(?:</\1[^>]*>?|\Z))?",
    re.IGNORECASE | re.DOTALL,
)
_OLD_TAG_RE = re.compile(r"<[^>]*>?")
_OLD_WORD_RE = re.compile(r"[^\W\d_]{2,}")


def _old_blank(match: re.Match[str]) -> str:
    text = match[0]
    if text[-1] == ">" or match.lastindex == 2:
        return " " * len(text)
    return text


def old_tokenize(
    data: bytes, stopwords: frozenset[str] | None = None, sections=()
) -> tuple[list[str], list[str]]:
    if stopwords is None:
        stopwords = default_stopwords()
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
    dropped = default_stopwords() if stopwords is None else stopwords
    main, comment = tokenize(data, sections)
    assert ([t for t in main if t not in dropped], [t for t in comment if t not in dropped]) == (
        old_tokenize(data, stopwords, sections)
    )


@settings(max_examples=500)
@given(tricky_html, st.lists(st.integers(0, 200), max_size=8))
def test_char_offsets_match_the_prefix_decode(data, offsets):
    offsets = sorted(o % (len(data) + 1) for o in offsets)
    expected = [len(data[:o].decode("utf-8", errors="replace")) for o in offsets]
    assert list(textstats._char_offsets(data, offsets)) == expected


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
    assert tokenize(data, sections) == expected


def test_removed_section_never_joins_words():
    raw = b'<p>bonjour<div id="comments">salut<!-- END -->monde</p>'
    section = (raw.index(b"<div"), raw.index(b"monde"))
    assert tokenize(raw, (section,)) == (["bonjour", "monde"], ["salut"])


def test_section_inside_script_adds_no_tokens():
    raw = b'<p>texte</p><script><div id="comments">cache<!-- END --></script><p>fin</p>'
    section = (raw.index(b"<div"), raw.index(b"</script>"))
    assert tokenize(raw, (section,)) == (["texte", "fin"], [])


def test_word_cut_by_a_section_boundary_stays_where_it_starts():
    raw = b"avant parole suite"
    assert tokenize(raw, ((9, 15),)) == (["avant", "parole"], ["suite"])
    assert tokenize(raw, ((6, 9),)) == (["avant", "suite"], ["parole"])
    # a cut inside a multi-byte character puts that character before the cut
    raw = "été là".encode()
    assert tokenize(raw, ((1, len(raw)),)) == (["été"], ["là"])


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# liste\nAlpha\n\nbeta # fin de ligne\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"alpha", "beta"})


def test_default_stopwords_bundled():
    words = default_stopwords()
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
