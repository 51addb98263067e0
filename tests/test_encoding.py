"""Encoding file parsing, validation, and pattern matching."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comslice.encoding import (
    ENCODING_COLUMNS,
    Pattern,
    Rule,
    parse_encoding_file,
)
from comslice.errors import EncodingFileError

from conftest import make_precise_rule, make_rule, write_encoding_file

HEADER = ",".join(ENCODING_COLUMNS)


def write_lines(tmp_path, *rows: str):
    path = tmp_path / "encoding.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def test_bundled_example_rules_stay_parseable():
    docs = Path(__file__).resolve().parent.parent / "docs" / "encoding_examples.csv"
    rules = parse_encoding_file(docs)
    assert set(rules) == {
        "blogspot-example",
        "overblog-example",
        "canalblog-example",
        "press-example",
    }
    assert rules["blogspot-example"].is_precise
    assert rules["canalblog-example"].close_pattern is None
    assert rules["press-example"].has_comments is False


def test_parse_minimal_rough_rule(tmp_path):
    path = write_lines(
        tmp_path,
        's1,blog,True,"<div id=""c"">",</div>,False,False,False,False,False,False,False',
        "s2,press,False,False,False,False,False,False,False,False,False,False",
    )
    rules = parse_encoding_file(path)
    assert set(rules) == {"s1", "s2"}
    assert rules["s1"].open_pattern == Pattern("literal", '<div id="c">')
    assert rules["s1"].close_pattern == Pattern("literal", "</div>")
    assert rules["s1"].empty_size is None
    assert not rules["s1"].is_precise
    assert rules["s2"].has_comments is False
    assert rules["s2"].open_pattern is None


def test_parse_regex_and_empty_size(tmp_path):
    path = write_lines(
        tmp_path,
        r"s1,blog,True,re:<div id=.comments.>,</div>,48,re:<li class=.comment.>,False,False,False,False,False",
    )
    rule = parse_encoding_file(path)["s1"]
    assert rule.open_pattern.kind == "regex"
    assert rule.empty_size == 48
    assert rule.is_precise


def test_missing_file_is_fatal(tmp_path):
    with pytest.raises(EncodingFileError, match="enc.csv"):
        parse_encoding_file(tmp_path / "enc.csv")


def test_bad_header_is_fatal(tmp_path):
    path = tmp_path / "encoding.csv"
    path.write_text("site_id,oops\n", encoding="utf-8")
    with pytest.raises(EncodingFileError, match="header"):
        parse_encoding_file(path)


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ("s1,blog,maybe,x,y,False,False,False,False,False,False,False", "has_comments"),
        ("s1,blog,True,x,y,ten,False,False,False,False,False,False", "empty_size"),
        ("s1,blog,True,x,y,-3,False,False,False,False,False,False", ">= 0"),
        ("s1,blog,True,re:([a,y,False,False,False,False,False,False,False", "bad regex"),
        pytest.param(  # OverflowError from re, not re.error
            "s1,blog,True,re:x{4294967296},y,False,False,False,False,False,False,False",
            "bad regex 'x{4294967296}': ",
            id="repeat-count-overflows",
        ),
        pytest.param(  # RecursionError from re, not re.error
            f"s1,blog,True,re:{'(' * 2000}{')' * 2000},y,False,False,False,False,False,False,False",
            "column open_pattern: bad regex '((((",
            id="groups-nest-2000-deep",
        ),
        ("s1,blog,True,False,y,False,False,False,False,False,False,False", "open_pattern is absent"),
        ("s1,blog,True,x,y,False,False,dd,False,False,False,False", "comment_pattern is absent"),
        ("s1,blog,False,x,False,False,False,False,False,False,False,False", "must be False"),
        (",blog,True,x,y,False,False,False,False,False,False,False", "empty site_id"),
        ("s1,blog,True,x,y,False,False,False,False,False,False", "12 cells"),
    ],
)
def test_row_validation_names_row(tmp_path, row, message):
    path = write_lines(tmp_path, row)
    with pytest.raises(EncodingFileError, match="row 2") as err:
        parse_encoding_file(path)
    assert message in str(err.value)


def test_duplicate_site_id_is_fatal(tmp_path):
    row = "s1,blog,False,False,False,False,False,False,False,False,False,False"
    path = write_lines(tmp_path, row, row)
    with pytest.raises(EncodingFileError, match="duplicate site_id"):
        parse_encoding_file(path)


def test_literal_matching_is_case_sensitive_and_exact():
    pattern = Pattern("literal", "<Div>")
    assert pattern.regex.search(b"..<div>..<Div>..").span() == (9, 14)
    assert pattern.regex.search(b"<div>") is None
    assert _spans(Pattern("literal", "aa"), b"aaaa") == [(0, 2), (2, 4)]


def _spans(pattern: Pattern, data: bytes) -> list[tuple[int, int]]:
    return [m.span() for m in pattern.regex.finditer(data)]


def _find_all(needle: bytes, data: bytes) -> list[tuple[int, int]]:
    """Non-overlapping occurrences of needle by bytes.find, stepping past empty ones."""
    hits, pos = [], 0
    while (start := data.find(needle, pos)) != -1:
        hits.append((start, start + len(needle)))
        pos = start + max(len(needle), 1)
    return hits


REGEX_SYNTAX = st.sampled_from("ab.*+?()[]{}|^$\\é")


@given(
    needle=st.text(REGEX_SYNTAX, max_size=4),
    data=st.binary(max_size=40) | st.text(REGEX_SYNTAX, max_size=40).map(str.encode),
    pos=st.integers(min_value=0, max_value=40),
)
def test_literal_matching_equals_bytes_find(needle, data, pos):
    pattern = Pattern("literal", needle)
    raw = needle.encode("utf-8")
    pos = min(pos, len(data))
    start = data.find(raw, pos)
    hit = pattern.regex.search(data, pos)
    assert (None if hit is None else hit.span()) == (None if start == -1 else (start, start + len(raw)))
    assert _spans(pattern, data) == _find_all(raw, data)


def test_regex_matching():
    pattern = Pattern("regex", r"<h[12]>")
    assert pattern.regex.search(b"<h3><h2><h1>").span() == (4, 8)
    assert pattern.regex.search(b"<h3><h2><h1>", 5).span() == (8, 12)
    assert _spans(pattern, b"<h1><h2>") == [(0, 4), (4, 8)]


def test_extract_regex_group_one_when_present():
    pattern = Pattern("regex", r'data-date="([^"]*)"')
    assert pattern.extract(b'x <b data-date=" 2020-01-02 "> y') == b"2020-01-02"
    assert pattern.extract(b"no match") is None
    assert pattern.extract(b'<b data-date="">') is None  # empty value counts as absent


def test_extract_regex_whole_match_without_groups():
    pattern = Pattern("regex", r"\d{4}-\d{2}-\d{2}")
    assert pattern.extract("le 2021-11-30 à midi".encode()) == b"2021-11-30"


def test_extract_literal_reads_until_next_tag():
    pattern = Pattern("literal", '<span class="author">')
    frag = b'<span class="author"> Marie Curie </span> says'
    assert pattern.extract(frag) == b"Marie Curie"
    assert pattern.extract(b'<span class="author">') is None  # nothing before EOF
    assert pattern.extract(b'<span class="author">tail') == b"tail"  # no closing tag


def test_round_trip_fixture_rules(tmp_path):
    rules = {
        "s1": make_rule(site_id="s1"),
        "s2": make_precise_rule(site_id="s2", label="press"),
        "s3": make_rule(
            site_id="s3",
            has_comments=False,
            open_pattern=None,
            close_pattern=None,
        ),
    }
    path = tmp_path / "encoding.csv"
    write_encoding_file(rules, path)
    assert parse_encoding_file(path) == rules


def test_unwritable_literals_are_rejected(tmp_path):
    for bad in ("False", "re:x"):
        rules = {"s1": make_rule(open_pattern=Pattern("literal", bad))}
        with pytest.raises(ValueError, match="losslessly"):
            write_encoding_file(rules, tmp_path / "encoding.csv")


def patterns(min_size=1):
    literal = st.text(
        st.characters(blacklist_categories=("Cs", "Cc")),
        min_size=min_size,
        max_size=12,
    ).filter(lambda s: s.strip() not in ("", "False") and not s.startswith("re:") and s == s.strip())
    return st.one_of(
        st.none(),
        literal.map(lambda s: Pattern("literal", s)),
        st.sampled_from([r"<a\b", r"\d+", "x(y)?z"]).map(lambda s: Pattern("regex", s)),
    )


@given(
    open_pat=patterns().filter(lambda p: p is not None),
    close_pat=patterns(),
    empty_size=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    label=st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8),
)
def test_round_trip_property(tmp_path_factory, open_pat, close_pat, empty_size, label):
    rule = make_rule(
        label=label.strip(),
        open_pattern=open_pat,
        close_pattern=close_pat,
        empty_size=empty_size,
        comment_pattern=Pattern("regex", "<li>"),
    )
    path = tmp_path_factory.mktemp("enc") / "encoding.csv"
    write_encoding_file({rule.site_id: rule}, path)
    assert parse_encoding_file(path) == {rule.site_id: rule}


def test_golden_encoding_file_bytes(tmp_path):
    rules = {
        "s1": make_precise_rule(site_id="s1", label="blog", date_pattern=Pattern("regex", "d,(\\d+)")),
        "s3": make_rule(site_id="s3", label="", has_comments=False, open_pattern=None, close_pattern=None),
    }
    path = tmp_path / "encoding.csv"
    write_encoding_file(rules, path)
    assert path.read_bytes() == (
        b"site_id,label,has_comments,open_pattern,close_pattern,empty_size,comment_pattern,"
        b"date_pattern,author_pattern,depth_pattern,author_url_pattern,text_pattern\r\n"
        b's1,blog,True,"<div id=""comments"">",<!-- COMMENTS END -->,40,"<div class=""comment"">",'
        b'"re:d,(\\d+)","<span class=""author"">","re:class=""depth-(\\d+)""",'
        b'"re:<a class=""url"" href=""([^""]*)""",re:<p>([^<]*)</p>\r\n'
        b"s3,,False,False,False,False,False,False,False,False,False,False\r\n"
    )
    assert parse_encoding_file(path) == rules


def test_encoding_file_with_utf8_bom_parses(tmp_path):
    rules = {"s1": make_precise_rule(site_id="s1")}
    path = tmp_path / "encoding.csv"
    write_encoding_file(rules, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert parse_encoding_file(path) == rules
