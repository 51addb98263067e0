"""Tokenizer behaviour, top-k tables, and distribution divergence."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

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
    assert tokenize(b"ab<br>cd", NO_STOPWORDS) == ["ab", "cd"]


def test_script_and_style_blocks_vanish():
    raw = (
        b"<p>garde</p><script type='x'>var secret = 1;</script>"
        b"<STYLE>body { color: red }</STYLE><p>aussi</p>"
    )
    assert tokenize(raw, NO_STOPWORDS) == ["garde", "aussi"]


def test_unterminated_script_swallows_the_tail():
    assert tokenize(b"<p>avant</p><script>var x = 'oops';", NO_STOPWORDS) == ["avant"]


def test_lowercase_and_short_tokens_dropped():
    assert tokenize(b"Grand A et Petit", NO_STOPWORDS) == ["grand", "et", "petit"]


def test_digits_and_underscores_break_tokens():
    assert tokenize(b"abc123def mot_cle v2", NO_STOPWORDS) == ["abc", "def", "mot", "cle"]


def test_accented_letters_are_kept():
    assert tokenize("Santé publique à Genève".encode(), NO_STOPWORDS) == [
        "santé",
        "publique",
        "genève",
    ]


def test_entities_are_not_decoded():
    assert tokenize(b"caf&eacute; &amp; th&eacute;", NO_STOPWORDS) == ["caf", "eacute", "amp", "th", "eacute"]


def test_default_french_stopwords_apply():
    assert tokenize(b"le vaccin et la peur sont dans les esprits") == [
        "vaccin",
        "peur",
        "esprits",
    ]


def test_bad_utf8_is_replaced_not_fatal():
    assert tokenize(b"caf\xe9 noir", NO_STOPWORDS) == ["caf", "noir"]


def test_repeated_word_survives_case_and_stopwords():
    assert tokenize(b"<p>Le vaccin, le VACCIN!</p>") == ["vaccin", "vaccin"]


def test_empty_input_tokenizes_to_nothing():
    assert tokenize(b"") == []


def test_pure_numbers_tokenize_to_nothing():
    assert tokenize(b"<b>2017 2018</b>") == []


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
    with_comments = corpus_token_counts([page], include_comments=True, stopwords=NO_STOPWORDS)
    without = corpus_token_counts([page], include_comments=False, stopwords=NO_STOPWORDS)
    assert with_comments == Counter({"virus": 2, "article": 1, "un": 1, "parole": 1})
    assert without == Counter({"article": 1, "un": 1})


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
