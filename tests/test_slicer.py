"""Rough and precise slicing: partitions, error classes, field extraction."""

from __future__ import annotations

import concurrent.futures
import os
from itertools import pairwise

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comslice.encoding import Pattern
from comslice.errors import EncodingFileError
from comslice.slicer import (
    EXTRACTION_FAILURE,
    MISSING_CLOSURE,
    MISSING_OPENING,
    MULTIPLE_OPENINGS,
    UniformSizeWarning,
    build_error_report,
    extract_comment,
    precise_slice,
    rough_slice,
    slice_corpus,
    split_section,
)

from conftest import (
    CLOSE,
    COMMENT_SEP,
    EMPTY_SIZE,
    OPEN,
    RecordingPool,
    assert_partition,
    corpus_in_memory,
    fragment,
    make_precise_rule,
    make_rule,
    page_bytes,
    slice_page,
)


def test_single_section_includes_delimiters():
    raw = page_bytes(fragments=[fragment(author="zoe", text="oui")])
    sliced, errors = slice_page(raw)
    assert errors == []
    assert len(sliced.section_spans) == 1
    section = sliced.sections_bytes[0]
    assert section.startswith(OPEN) and section.endswith(CLOSE)
    assert sliced.stripped_bytes == raw.replace(section, b"")
    assert_partition(sliced)


def test_site_without_comments_never_scans():
    raw = page_bytes(fragments=[fragment(text="piege")])  # delimiters present
    rule = make_rule(has_comments=False, open_pattern=None, close_pattern=None)
    assert rough_slice(raw, rule) == ((), None)
    sliced, errors = slice_page(raw, rule)
    assert errors == []
    assert sliced.section_spans == ()
    assert sliced.stripped_bytes == raw
    assert_partition(sliced)


def test_missing_opening_keeps_page_whole():
    raw = page_bytes(fragments=None)
    assert rough_slice(raw, make_rule()) == ((), MISSING_OPENING)
    sliced, errors = slice_page(raw)
    assert [e.kind for e in errors] == [MISSING_OPENING]
    assert sliced.section_spans == ()
    assert sliced.stripped_bytes == raw
    assert_partition(sliced)


def test_empty_page_reports_missing_opening():
    assert rough_slice(b"", make_rule()) == ((), MISSING_OPENING)
    sliced, errors = slice_page(b"")
    assert [e.kind for e in errors] == [MISSING_OPENING]
    assert sliced.main_spans == ()
    assert_partition(sliced)


def test_missing_closure_discards_earlier_sections():
    raw = page_bytes(fragments=[fragment(text="ok")]) + OPEN + b"never closed"
    assert rough_slice(raw, make_rule()) == ((), MISSING_CLOSURE)
    sliced, errors = slice_page(raw)
    assert [e.kind for e in errors] == [MISSING_CLOSURE]
    assert sliced.section_spans == ()  # the complete first section is discarded too
    assert sliced.stripped_bytes == raw
    assert_partition(sliced)


def test_multiple_sections_kept_and_flagged_once():
    raw = (
        b"<body>intro"
        + OPEN + fragment(text="un") + CLOSE
        + b"middle"
        + OPEN + fragment(text="deux") + CLOSE
        + b"outro</body>"
    )
    spans, kind = rough_slice(raw, make_rule())
    assert kind == MULTIPLE_OPENINGS and len(spans) == 2
    sliced, errors = slice_page(raw)
    assert [e.kind for e in errors] == [MULTIPLE_OPENINGS]
    assert len(sliced.section_spans) == 2
    assert sliced.stripped_bytes == b"<body>intromiddleoutro</body>"
    assert_partition(sliced)


def test_absent_close_pattern_runs_section_to_end_of_file():
    raw = b"<body>main" + OPEN + fragment(text="fin") + b"<footer>"
    rule = make_rule(close_pattern=None)
    assert rough_slice(raw, rule) == (((10, len(raw)),), None)
    sliced, errors = slice_page(raw, rule)
    assert errors == []
    assert sliced.section_spans == ((10, len(raw)),)
    assert sliced.stripped_bytes == b"<body>main"
    assert_partition(sliced)


def test_regex_delimiters():
    rule = make_rule(
        open_pattern=Pattern("regex", r'<div id="comments-\d+">'),
        close_pattern=Pattern("regex", r"<!-- END \d+ -->"),
    )
    raw = b'a<div id="comments-42">body<!-- END 42 -->z'
    sliced, errors = slice_page(raw, rule)
    assert errors == []
    assert sliced.sections_bytes[0] == b'<div id="comments-42">body<!-- END 42 -->'
    assert_partition(sliced)


def test_zero_width_regex_cannot_loop_forever():
    rule = make_rule(open_pattern=Pattern("regex", r"x*"), close_pattern=Pattern("regex", r"y*"))
    sliced, _ = slice_page(b"abc", rule)
    assert_partition(sliced)


def test_identical_zero_width_delimiters_delimit_nothing():
    lookahead = Pattern("regex", r"(?=<x)")
    rule = make_rule(open_pattern=lookahead, close_pattern=lookahead)
    assert rough_slice(b"ab<x>cd<x>ef", rule) == ((), MISSING_OPENING)


def test_zero_width_delimiters_leave_the_page_whole():
    rule = make_rule(open_pattern=Pattern("regex", r"x*"), close_pattern=Pattern("regex", r"y*"))
    assert rough_slice(b"abc", rule) == ((), MISSING_OPENING)
    sliced, errors = slice_page(b"abc", rule)
    assert [e.kind for e in errors] == [MISSING_OPENING]
    assert sliced.stripped_bytes == b"abc"


def test_zero_width_opening_with_a_real_closing_still_slices():
    rule = make_rule(open_pattern=Pattern("regex", r"(?=<x)"), close_pattern=Pattern("literal", "</x>"))
    assert rough_slice(b"ab<x>cd</x>ef", rule) == (((2, 11),), None)


delimiters = st.one_of(
    st.builds(Pattern, st.just("literal"), st.sampled_from(["<", "x", "ab", "<x>", "</x>"])),
    st.builds(Pattern, st.just("regex"), st.sampled_from(["x+", "<[a-z]>", "c.", "a|</x>"])),
    st.builds(Pattern, st.just("regex"), st.sampled_from(["x*", "(?=<)", "$", "(?<=c)"])),
)


@given(
    st.text(alphabet="abcxy</>", max_size=24).map(str.encode),
    delimiters,
    st.none() | delimiters,
)
def test_sections_are_what_the_rule_delimits(data, open_pattern, close_pattern):
    spans, kind = rough_slice(data, make_rule(open_pattern=open_pattern, close_pattern=close_pattern))
    for start, end in spans:
        assert start < end
        opening = open_pattern.regex.match(data, start)
        assert opening is not None
        if close_pattern is None:
            assert end == len(data)
        else:
            assert end == close_pattern.regex.search(data, opening.end()).end()
    assert all(end <= start for (_, end), (start, _) in pairwise(spans))
    if spans:
        assert kind == (MULTIPLE_OPENINGS if len(spans) > 1 else None)
    else:
        assert kind in (MISSING_OPENING, MISSING_CLOSURE)


def test_tiny_page_splits_around_markers():
    rule = make_rule(
        open_pattern=Pattern("literal", "<c>"),
        close_pattern=Pattern("literal", "</c>"),
    )
    assert rough_slice(b"AAA<c>hello</c>BBB", rule) == (((3, 15),), None)
    sliced, errors = slice_page(b"AAA<c>hello</c>BBB", rule)
    assert errors == []
    assert sliced.main_spans == ((0, 3), (15, 18))
    assert sliced.section_spans == ((3, 15),)
    assert sliced.sections_bytes == [b"<c>hello</c>"]
    assert sliced.stripped_bytes == b"AAABBB"


def test_page_that_is_all_section_strips_to_nothing():
    raw = page_bytes(main_before=b"", fragments=[fragment(text="rien autour")], main_after=b"")
    sliced, errors = slice_page(raw)
    assert errors == []
    assert sliced.main_spans == ()
    assert sliced.stripped_bytes == b""


def test_stripping_is_idempotent():
    raw = page_bytes(main_before=b"<p>texte</p>", fragments=[fragment(text="bruit")])
    first, errors = slice_page(raw)
    assert errors == []
    second, second_errors = slice_page(first.stripped_bytes)
    assert [e.kind for e in second_errors] == [MISSING_OPENING]
    assert second.stripped_bytes == first.stripped_bytes


def test_rough_slice_is_deterministic():
    raw = page_bytes(fragments=[fragment(text="pareil"), fragment(text="encore")])
    assert rough_slice(raw, make_rule()) == rough_slice(raw, make_rule())
    once, _ = slice_page(raw)
    again, _ = slice_page(raw)
    assert once == again


page_parts = st.lists(
    st.one_of(
        st.binary(max_size=40).filter(lambda b: OPEN not in b and CLOSE not in b),
        st.tuples(st.binary(max_size=30).filter(lambda b: OPEN not in b and CLOSE not in b)),
    ),
    max_size=6,
)


@given(page_parts)
def test_partition_property(parts):
    raw = b"".join(
        part if isinstance(part, bytes) else OPEN + part[0] + CLOSE for part in parts
    )
    sliced, _ = slice_page(raw)
    assert_partition(sliced)
    n_sections = sum(1 for part in parts if isinstance(part, tuple))
    if n_sections:
        assert len(sliced.section_spans) == n_sections


def test_split_section_empty_by_size():
    assert split_section(OPEN + CLOSE, make_precise_rule()) == ([], None)


def test_split_section_shorter_than_empty_size_is_anomalous():
    spans, anomaly = split_section(OPEN, make_precise_rule())
    assert spans == [] and "shorter" in anomaly


def test_split_section_no_matches_beyond_empty_size_is_anomalous():
    section = OPEN + b"x" * 30 + CLOSE
    spans, anomaly = split_section(section, make_precise_rule())
    assert spans == [] and "no comment matches" in anomaly


def test_split_section_without_empty_size_tolerates_no_matches():
    rule = make_precise_rule(empty_size=None)
    assert split_section(OPEN + b"filler" + CLOSE, rule) == ([], None)


def test_split_section_fragments_cover_tail():
    first, second = fragment(text="un"), fragment(text="deux")
    section = OPEN + first + second + CLOSE
    spans, anomaly = split_section(section, make_precise_rule())
    assert anomaly is None
    assert len(spans) == 2
    assert section[spans[0][0]:spans[0][1]] == first
    assert section[spans[1][0]:spans[1][1]] == second + CLOSE  # last runs to section end


def test_a_match_at_the_end_of_a_section_starts_no_comment():
    rule = make_precise_rule(empty_size=None, comment_pattern=Pattern("regex", r"(?=<li)|\Z"))
    assert split_section(b"<ul><li>a<li>b</ul>", rule) == ([(4, 9), (9, 19)], None)


def test_a_section_whose_only_match_is_at_its_end_holds_no_comments():
    rule = make_precise_rule(comment_pattern=Pattern("regex", r"\Z"))
    raw = OPEN + b"x" * 30 + CLOSE
    comments, errors = precise_slice(slice_page(raw, rule)[0], rule)
    assert comments == []
    assert [(e.kind, e.detail) for e in errors] == [
        (EXTRACTION_FAILURE, "section exceeds empty_size but no comment matches")
    ]


def test_split_section_requires_comment_pattern():
    with pytest.raises(ValueError, match="comment_pattern"):
        split_section(OPEN + CLOSE, make_rule())


def test_extract_comment_all_fields():
    frag = fragment(author="Marie", date="2021-03-04", depth=2, url="http://m.example/u", text="bonjour")
    comment = extract_comment(
        frag, make_precise_rule(), site_id="s1", page_path="p.html", index=3, offset=100
    )
    assert comment.author == "Marie"
    assert comment.date == "2021-03-04"
    assert comment.depth == 2
    assert comment.author_url == "http://m.example/u"
    assert comment.text == "bonjour"
    assert (comment.span_start, comment.span_end) == (100, 100 + len(frag))
    assert comment.index == 3


def test_extract_comment_absent_fields_are_none():
    comment = extract_comment(
        fragment(text="seul"), make_precise_rule(), site_id="s1", page_path="p", index=0, offset=0
    )
    assert comment.author is None
    assert comment.date is None
    assert comment.depth is None
    assert comment.author_url is None
    assert comment.text == "seul"


def test_extract_comment_without_patterns_yields_all_none():
    rule = make_precise_rule(
        author_pattern=None,
        date_pattern=None,
        depth_pattern=None,
        author_url_pattern=None,
        text_pattern=None,
    )
    comment = extract_comment(fragment(author="x"), rule, site_id="s", page_path="p", index=0, offset=0)
    assert (comment.author, comment.date, comment.depth, comment.author_url, comment.text) == (
        None,
        None,
        None,
        None,
        None,
    )


def test_depth_parses_first_digit_run():
    rule = make_precise_rule(depth_pattern=Pattern("regex", r'class="(depth-\d+ level)"'))
    frag = COMMENT_SEP + b'<i class="depth-12 level"></i>'
    comment = extract_comment(frag, rule, site_id="s", page_path="p", index=0, offset=0)
    assert comment.depth == 12


@pytest.mark.parametrize(
    "raw, depth",
    [
        ("٣".encode(), None),  # U+0663: a decimal digit, but not an ASCII one
        ("３".encode(), None),  # U+FF13, fullwidth three
        ("٣4".encode(), 4),  # int("٣4") would be 34
        (b"\xe2" + b"7", 7),  # an invalid byte decodes to U+FFFD, the digit stays
    ],
)
def test_depth_takes_ascii_digits_only(raw, depth):
    rule = make_precise_rule(depth_pattern=Pattern("regex", r'data-depth="([^"]*)"'))
    frag = COMMENT_SEP + b'<i data-depth="' + raw + b'"></i>'
    assert extract_comment(frag, rule, site_id="s", page_path="p", index=0, offset=0).depth == depth


@pytest.mark.parametrize(
    "raw, author",
    [
        (b"Jo\xffe", "Jo\ufffde"),  # an invalid byte is replaced, not dropped
        (b" \xc2\xa0Marie\xc2\xa0\n", "\xa0Marie\xa0"),  # only ASCII whitespace is stripped
    ],
)
def test_field_values_are_stripped_bytes_decoded(raw, author):
    frag = COMMENT_SEP + b'<span class="author">' + raw + b"</span>"
    comment = extract_comment(frag, make_precise_rule(), site_id="s", page_path="p", index=0, offset=0)
    assert comment.author == author


def test_depth_too_long_for_int_is_none_and_the_comment_stays():
    deep = COMMENT_SEP + b'<i class="depth-' + b"9" * 5000 + b'"></i><p>profond</p>'  # int() takes 4,300
    raw = page_bytes(fragments=[deep, fragment(depth=3, text="court")])
    comments, errors = precise_slice(slice_page(raw)[0], make_precise_rule())
    assert errors == []
    assert [(c.depth, c.text) for c in comments] == [(None, "profond"), (3, "court")]


def test_precise_slice_numbers_comments_across_sections():
    raw = (
        OPEN + fragment(text="un") + fragment(text="deux") + CLOSE
        + b"mid"
        + OPEN + fragment(text="trois") + CLOSE
    )
    sliced, _ = slice_page(raw)
    comments, errors = precise_slice(sliced, make_precise_rule())
    assert errors == []
    assert [c.index for c in comments] == [0, 1, 2]
    assert [c.text for c in comments] == ["un", "deux", "trois"]
    # spans are absolute page offsets
    for comment in comments:
        assert raw[comment.span_start:comment.span_end].startswith(COMMENT_SEP)


def test_precise_slice_reports_anomalies_and_keeps_going():
    raw = OPEN + b"x" * 40 + CLOSE + b"mid" + OPEN + fragment(text="ok") + CLOSE
    sliced, _ = slice_page(raw)
    comments, errors = precise_slice(sliced, make_precise_rule())
    assert [e.kind for e in errors] == [EXTRACTION_FAILURE]
    assert [c.text for c in comments] == ["ok"]


@given(st.lists(st.sampled_from(["oui", "non", "sans doute"]), min_size=1, max_size=8))
def test_comment_count_matches_separator_count(texts):
    raw = page_bytes(fragments=[fragment(text=t) for t in texts])
    rule = make_precise_rule()
    sliced, errors = slice_page(raw, rule)
    assert errors == []
    comments, comment_errors = precise_slice(sliced, rule)
    assert comment_errors == []
    assert len(comments) == sliced.sections_bytes[0].count(COMMENT_SEP) == len(texts)


def _corpus_with_pages(pages: dict[str, bytes]):
    return corpus_in_memory(
        sites={"s1": ("blog", ["s1.example.org"])},
        pages={("s1", path): raw for path, raw in pages.items()},
    )


def test_slice_corpus_requires_a_rule_per_site():
    corpus = _corpus_with_pages({"p.html": b"x"})
    with pytest.raises(EncodingFileError, match="no slicing rule"):
        slice_corpus(corpus.pages, {})


def test_parallel_slicing_matches_serial():
    pages = {
        f"p{i}.html": page_bytes(fragments=[fragment(text=f"c{i}")] * (i % 3))
        if i % 4
        else page_bytes(fragments=None)
        for i in range(40)
    }
    corpus = _corpus_with_pages(pages)
    rules = {"s1": make_rule()}
    serial = slice_corpus(corpus.pages, rules)
    parallel = slice_corpus(corpus.pages, rules, workers=3)
    assert parallel == serial


def test_pool_sends_back_spans_not_bytes(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    corpus = _corpus_with_pages(
        {f"p{i}.html": page_bytes(fragments=[fragment(text=f"c{i}")] * (i % 3)) for i in range(8)}
    )
    sliced, _ = slice_corpus(corpus.pages, {"s1": make_rule()}, workers=2)
    assert len(sliced) == len(corpus.pages)
    for one, page in zip(sliced, corpus.pages):
        assert one.raw_bytes is page.raw_bytes


def test_in_comment_section_offsets():
    raw = b"ab" + OPEN + b"inner" + CLOSE + b"yz"
    sliced, _ = slice_page(raw)
    start, end = sliced.section_spans[0]
    assert not sliced.in_comment_section(0)
    assert sliced.in_comment_section(start)
    assert sliced.in_comment_section(end - 1)
    assert not sliced.in_comment_section(end)
    assert not sliced.in_comment_section(len(raw) - 1)


def _report_for(pages: dict[str, bytes], rule=None):
    rule = rule or make_rule()
    corpus = _corpus_with_pages(pages)
    sliced, errors = slice_corpus(corpus.pages, {"s1": rule})
    return build_error_report(sliced, errors, {"s1": rule})


def test_error_report_counts_and_pages():
    summary, details, _ = _report_for(
        {
            "good.html": page_bytes(fragments=[fragment(text="ok ok")]),
            "noopen.html": page_bytes(fragments=None),
            "noclose.html": b"x" + OPEN + b"dangling",
            "multi.html": OPEN + b"a" + CLOSE + OPEN + b"bc" + CLOSE,
        }
    )
    assert summary == [
        ("s1", MISSING_CLOSURE, 1),
        ("s1", MISSING_OPENING, 1),
        ("s1", MULTIPLE_OPENINGS, 1),
    ]
    assert ("s1", "noopen.html", MISSING_OPENING, "") in details


def test_uniform_size_warning_fires_on_equal_sections():
    same = [fragment(text="abc")]
    _, _, warnings = _report_for(
        {f"p{i}.html": page_bytes(main_before=b"%d intro" % i, fragments=same) for i in range(5)}
    )
    assert len(warnings) == 1
    warning = warnings[0]
    assert warning.site_id == "s1" and warning.sections == 5


def test_uniform_size_warning_silent_on_varied_sections():
    _, _, warnings = _report_for(
        {f"p{i}.html": page_bytes(fragments=[fragment(text="x" * (i + 1))]) for i in range(5)}
    )
    assert warnings == []


def test_uniform_size_warning_silent_on_single_section():
    _, _, warnings = _report_for({"p.html": page_bytes(fragments=[fragment(text="x")])})
    assert warnings == []


def test_uniform_size_warning_silent_when_sections_are_legitimately_empty():
    pages = {f"p{i}.html": page_bytes(fragments=[]) for i in range(4)}
    _, _, warnings = _report_for(pages, rule=make_rule(empty_size=EMPTY_SIZE))
    assert warnings == []


def test_error_report_whole_value_over_five_sites():
    uniform = page_bytes(fragments=[fragment(text="abc")])  # one 71-byte section
    empty = page_bytes(fragments=[])  # one section of EMPTY_SIZE, 40 bytes
    pages = {
        ("uniform", "uniform/y.html"): page_bytes(fragments=None),
        ("uniform", "uniform/a.html"): uniform,
        ("uniform", "uniform/x.html"): page_bytes(fragments=None),
        ("uniform", "uniform/b.html"): uniform,
        ("uniform", "uniform/c.html"): uniform,
        ("empty", "empty/a.html"): empty,
        ("empty", "empty/b.html"): empty,
        ("single", "single/open.html"): b"x" + OPEN + b"dangling",
        ("single", "single/a.html"): uniform,
        ("varied", "varied/two.html"): OPEN + b"a" + CLOSE + OPEN + b"bc" + CLOSE,
        ("varied", "varied/a.html"): uniform,
        ("norule", "norule/a.html"): empty,
        ("norule", "norule/b.html"): empty,
    }
    sites = {site_id: ("blog", [f"{site_id}.example.org"]) for site_id, _ in pages}
    corpus = corpus_in_memory(sites=sites, pages=pages)
    rules = {site_id: make_rule(site_id=site_id) for site_id in sites}
    rules["empty"] = make_rule(site_id="empty", empty_size=EMPTY_SIZE)
    sliced, errors = slice_corpus(corpus.pages, rules)
    del rules["norule"]  # sliced with a rule, reported without one: no empty_size to excuse it

    assert build_error_report(sliced, errors, rules) == (
        [
            ("single", MISSING_CLOSURE, 1),
            ("uniform", MISSING_OPENING, 2),
            ("varied", MULTIPLE_OPENINGS, 1),
        ],
        [
            ("single", "single/open.html", MISSING_CLOSURE, ""),
            ("uniform", "uniform/x.html", MISSING_OPENING, ""),
            ("uniform", "uniform/y.html", MISSING_OPENING, ""),
            ("varied", "varied/two.html", MULTIPLE_OPENINGS, ""),
        ],
        [
            UniformSizeWarning(site_id="norule", size=40, sections=2),
            UniformSizeWarning(site_id="uniform", size=71, sections=3),
        ],
    )


@pytest.mark.parametrize(
    "workers, cpus, pages, pool_size",
    [
        (100_000, 4, 3, 3),  # capped by pages
        (100_000, 2, 40, 2),  # capped by CPUs
        (3, 8, 40, 3),  # asked-for count fits
        (8, None, 40, None),  # unknown CPU count: serial, no pool
        (8, 4, 1, None),  # one page: serial, no pool
    ],
)
def test_parallel_pool_is_capped(monkeypatch, workers, cpus, pages, pool_size):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    corpus = _corpus_with_pages(
        {f"p{i}.html": page_bytes(fragments=[fragment(text=f"c{i}")]) for i in range(pages)}
    )
    rules = {"s1": make_rule()}
    assert slice_corpus(corpus.pages, rules, workers=workers) == slice_corpus(corpus.pages, rules)
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])
