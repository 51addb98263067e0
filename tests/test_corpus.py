"""Manifest loading and URL-to-site resolution."""

from __future__ import annotations

import csv
import os
import re
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from comslice import corpus as corpus_mod
from comslice.corpus import Corpus, Page, PageFile, Site, load_corpus, normalize_url, resolve_url
from comslice.errors import ManifestError
from comslice.slicer import slice_corpus

from conftest import fragment, make_rule, page_bytes, write_corpus


def test_load_corpus_round_trip(tmp_path):
    raw = b"<html>\xff\xferaw bytes stay \xe0\xa4\xb0aw</html>"
    root, manifest = write_corpus(
        tmp_path,
        sites={"s1": ("blog", ["s1.example.org"])},
        pages={("s1", "s1/p.html"): raw},
    )
    corpus = load_corpus(root, manifest)
    assert [s.site_id for s in corpus.registry] == ["s1"]
    assert corpus.labels == {"s1": "blog"}
    assert len(corpus.pages) == 1
    assert corpus.pages[0].raw_bytes == raw  # verbatim, no normalization


def test_registry_only_manifest_loads_zero_pages(tmp_path):
    root, manifest = write_corpus(
        tmp_path,
        sites={"s1": ("blog", ["s1.example.org"]), "s2": ("press", ["s2.example.org"])},
        pages={},
    )
    corpus = load_corpus(root, manifest)
    assert len(corpus.pages) == 0
    assert {s.site_id for s in corpus.registry} == {"s1", "s2"}


def test_missing_manifest_is_fatal(tmp_path):
    with pytest.raises(ManifestError, match="nothere"):
        load_corpus(tmp_path, tmp_path / "nothere.csv")


def test_wrong_header_is_fatal(tmp_path):
    bad = tmp_path / "manifest.csv"
    bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="header"):
        load_corpus(tmp_path, bad)


def test_missing_page_file_is_fatal(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "s1/p.html"): b"x"}
    )
    (root / "s1/p.html").unlink()
    with pytest.raises(ManifestError, match="p.html"):
        load_corpus(root, manifest)


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_page_that_is_not_a_regular_file_is_fatal(tmp_path, kind):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "s1/p.html"): b"x"}
    )
    (root / "s1/p.html").unlink()
    if kind == "directory":
        (root / "s1/p.html").mkdir()
    else:
        os.mkfifo(root / "s1/p.html")  # opening it must not wait for a writer
    with pytest.raises(ManifestError, match=re.escape(f"page file not found: {root / 's1/p.html'}")):
        load_corpus(root, manifest)


def test_a_page_reads_its_file_on_each_use_and_never_at_load(tmp_path, monkeypatch):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "s1/p.html"): b"x", ("s1", "q.html"): b"y"}
    )
    reads = []
    monkeypatch.setattr(corpus_mod, "_read_regular_file", lambda path: reads.append(path) or b"z")
    corpus = load_corpus(root, manifest)
    assert reads == []
    assert [corpus.pages[1].raw_bytes, corpus.pages[1].raw_bytes] == [b"z", b"z"]
    assert reads == [f"{root}/q.html"] * 2


def test_a_page_file_gone_after_loading_fails_when_read(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "s1/p.html"): b"x"}
    )
    (page,) = load_corpus(root, manifest).pages
    (root / "s1/p.html").unlink()
    os.mkfifo(root / "s1/p.html")  # reading it must not wait for a writer
    with pytest.raises(ManifestError, match=re.escape(f"page file not readable: {root / 's1/p.html'}")):
        page.raw_bytes


def test_repr_and_hash_of_a_loaded_page_do_not_read_its_file(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "s1/p.html"): b"x"}
    )
    (page,) = load_corpus(root, manifest).pages
    (root / "s1/p.html").unlink()
    assert repr(page) == f"PageFile(site_id='s1', page_path='s1/p.html', root={root!r}, file='s1/p.html')"
    assert hash(page) == hash(("s1", "s1/p.html", root, "s1/p.html"))
    with pytest.raises(ManifestError, match="page file not readable"):
        page.raw_bytes


def test_loaded_pages_compare_by_their_fields_without_reading_a_file(tmp_path, monkeypatch):
    loaded = []
    for i, body in enumerate((b"x", b"y")):
        root, manifest = write_corpus(
            tmp_path / str(i), sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "s1/p.html"): body}
        )
        loaded.extend(load_corpus(root, manifest).pages)
    x_again = load_corpus(tmp_path / "0/corpus", tmp_path / "0/manifest.csv").pages[0]
    monkeypatch.setattr(corpus_mod, "_read_regular_file", lambda path: pytest.fail(f"read {path}"))
    x, y = loaded
    assert (x == y, x != y, x == x_again, x != x_again) == (False, True, True, False)
    in_memory = Page("s1", "s1/p.html", b"x")
    assert (x == in_memory, in_memory == x, x != in_memory, in_memory != x) == (False, False, True, True)


def test_a_loaded_page_is_a_tuple_of_its_fields(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "./s1//p.html"): b"x"}
    )
    (page,) = load_corpus(root, manifest).pages
    site, path, page_root, file = page
    assert (site, path, page_root, file) == ("s1", "./s1//p.html", root, "s1/p.html")
    assert page._asdict() == {"site_id": "s1", "page_path": "./s1//p.html", "root": root, "file": "s1/p.html"}
    assert PageFile._make(tuple(page)) == page
    assert PageFile._make(tuple(page)).raw_bytes == b"x"


@pytest.mark.parametrize("workers", [1, 2])
def test_slicing_reads_each_page_once(tmp_path, monkeypatch, workers):
    pages = {("s1", f"p{i}.html"): page_bytes(fragments=[fragment(text=f"c{i}")]) for i in range(6)}
    root, manifest = write_corpus(tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages=pages)
    corpus = load_corpus(root, manifest)
    reads = []
    read = corpus_mod._read_regular_file
    monkeypatch.setattr(corpus_mod, "_read_regular_file", lambda path: reads.append(path) or read(path))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sliced, errors = slice_corpus(corpus.pages, {"s1": make_rule()}, workers=workers)
    assert sorted(reads) == sorted(f"{root}/{path}" for _, path in pages)
    assert [page.raw_bytes for page in sliced] == list(pages.values()) and errors == []


def test_page_path_is_read_where_pathlib_finds_it(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "s1/p.html"): b"x"}
    )
    manifest.write_text(
        "site_id,label,page_path,url_prefixes\ns1,blog,,s1.org\ns1,,s1/./p.html/,\n",
        encoding="utf-8",
    )
    assert [(p.page_path, p.raw_bytes) for p in load_corpus(str(root) + "/", manifest).pages] == [
        ("s1/./p.html/", b"x")
    ]


def test_unknown_site_for_page_is_fatal(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "p.html"): b"x"}
    )
    with open(manifest, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows.append(["ghost", "", "p.html", ""])
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ManifestError, match="ghost"):
        load_corpus(root, manifest)


def test_duplicate_page_is_fatal(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "p.html"): b"x"}
    )
    with open(manifest, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["s1", "", "p.html", ""])
    with pytest.raises(ManifestError, match="duplicate"):
        load_corpus(root, manifest)


def test_shared_prefix_is_fatal(tmp_path):
    # ownership is compared after normalization, as matching is
    for first, second in [("same.org", "same.org"), ("a.org", "http://www.A.org/")]:
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site_id", "label", "page_path", "url_prefixes"])
            writer.writerow(["s1", "blog", "", first])
            writer.writerow(["s2", "press", "", second])
        with pytest.raises(ManifestError, match="already owned by site s1"):
            load_corpus(tmp_path, manifest)


@pytest.mark.parametrize("prefix", ["http://", "#top", "http:///x", "?q"])
def test_prefix_without_host_is_fatal(tmp_path, prefix):
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "label", "page_path", "url_prefixes"])
        writer.writerow(["s1", "blog", "", "s1.org"])
        writer.writerow(["s2", "press", "", f"s2.org|{prefix}"])
    with pytest.raises(ManifestError, match=re.escape(f"row 3: prefix {prefix!r} has no host")):
        load_corpus(tmp_path, manifest)


def test_escaping_page_path_is_fatal(tmp_path):
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "label", "page_path", "url_prefixes"])
        writer.writerow(["s1", "blog", "../../etc/passwd", "s1.org"])
    with pytest.raises(ManifestError, match="corpus root"):
        load_corpus(tmp_path, manifest)


def test_duplicate_registry_site_rejected():
    site = Site(site_id="a", label="", url_prefixes=("a.org",))
    with pytest.raises(ValueError, match="duplicate site_id"):
        Corpus(registry=[site, site], pages=[])


def test_page_with_unknown_site_rejected():
    site = Site(site_id="a", label="", url_prefixes=("a.org",))
    page = Page(site_id="b", page_path="p.html", raw_bytes=b"")
    with pytest.raises(ValueError, match="unknown site_id"):
        Corpus(registry=[site], pages=[page])


@pytest.mark.parametrize(
    ("url", "expected"),
    [
        ("http://www.example.org/page", "example.org/page"),
        ("https://Example.ORG", "example.org/"),
        ("//example.org/a#frag", "example.org/a"),
        ("example.org/a?q=1#frag", "example.org/a?q=1"),
        ("ftp://example.org/Path/Case", "example.org/Path/Case"),
        ("http://www.example.org", "example.org/"),
        ("http://user:pw@Example.org:8080/a", "example.org/a"),
        ("https://example.org./a", "example.org/a"),
        ("https://example.org\\a\\b?q=\\", "example.org/a/b?q=\\"),
        ("http://[::1]:8080/a", "[::1]/a"),
        ("example.org:8080/a", "example.org/a"),
        ("localhost:8080", "localhost/"),
    ],
)
def test_normalize_url_cases(url, expected):
    assert normalize_url(url) == expected


HOST_LABELS = st.text(st.sampled_from("abzAZ09-"), min_size=1, max_size=5)


@given(
    start=st.sampled_from(["http://", "HTTPS://", "//"]),
    userinfo=st.just("") | st.text(st.sampled_from("ab.:@"), max_size=6).map(lambda u: u + "@"),
    www=st.sampled_from(["", "www.", "WWW."]),
    host=st.lists(HOST_LABELS, min_size=1, max_size=3).map(".".join),
    dot=st.sampled_from(["", "."]),
    port=st.sampled_from(["", ":", ":80", ":8443"]),
    rest=st.from_regex(r"\A([/?][a-z/.@:?=]*)?\Z"),
)
def test_normalize_url_host_matches_urlsplit(start, userinfo, www, host, dot, port, rest):
    url = start + userinfo + www + host + dot + port + rest
    expected = urlsplit(url).hostname.rstrip(".")
    if expected.startswith("www."):
        expected = expected[4:]
    assert re.match(r"[^/?]*", normalize_url(url)).group() == expected


@given(st.text(min_size=0, max_size=60))
@example("://")
@example("////x")
@example("?\x85#")
@example("//@ [a]x:1")
@example("www.www.a.org")
def test_normalize_url_idempotent(url):
    once = normalize_url(url)
    assert normalize_url(once) == once


INDEX = Corpus(
    registry=[
        Site(site_id="host", label="", url_prefixes=("example.org",)),
        Site(site_id="blog", label="", url_prefixes=("example.org/blog",)),
        Site(site_id="other", label="", url_prefixes=("other.net/a", "mirror.other.net")),
    ],
    pages=[],
).site_index


@pytest.mark.parametrize(
    ("url", "expected"),
    [
        ("http://example.org/news", "host"),
        ("http://example.org/blog/post-1", "blog"),  # longest prefix wins
        ("https://WWW.example.org/BLOG", "host"),  # path stays case-sensitive
        ("http://example.org.evil.com/", None),  # host boundary respected
        ("http://other.net/a/x", "other"),
        ("http://other.net/b", None),
        ("http://mirror.other.net/", "other"),
        ("mailto:someone@example.org", None),
        ("http://unrelated.example", None),
        # port, userinfo, a trailing dot and a backslash leave the host intact
        ("http://example.org:80/news", "host"),
        ("https://user@example.org/", "host"),
        ("https://example.org./x", "host"),
        ("https://example.org\\x", "host"),
        ("https://example.org@evil.com/", None),
        ("https://evil.com/example.org", None),
    ],
)
def test_resolve_url(url, expected):
    assert resolve_url(url, INDEX) == expected


def test_resolve_url_is_deterministic():
    for _ in range(3):
        assert resolve_url("http://example.org/blog/x", INDEX) == "blog"


@given(st.text(min_size=1, max_size=40))
def test_resolve_url_returns_registered_site_or_none(url):
    result = resolve_url(url, INDEX)
    assert result in {None, "host", "blog", "other"}


def reference_resolve(url: str, registry: list[Site]) -> str | None:
    """Linear scan: the longest normalized prefix the URL starts with, first registered on ties."""
    target = normalize_url(url)
    best_len, best_site = -1, None
    for site in registry:
        for prefix in site.url_prefixes:
            norm = normalize_url(prefix)
            if target.startswith(norm) and len(norm) > best_len:
                best_len, best_site = len(norm), site.site_id
    return best_site


def corpus_of(*prefixes: tuple[str, ...]) -> Corpus:
    """A page-less corpus whose i-th site, ``s<i>``, owns the i-th prefix tuple."""
    return Corpus(
        registry=[Site(site_id=f"s{i}", label="", url_prefixes=p) for i, p in enumerate(prefixes)],
        pages=[],
    )


# few hosts that nest as names (a.org, b.a.org, a.org.b) and as IPv6 literals,
# written with the variants normalize_url folds away, so hosts collide often
URL_HOSTS = st.sampled_from(["a.org", "b.a.org", "a.org.b", "[::1]", "[::1:2]", "10.0.0.1"])
URL_PATHS = st.lists(st.sampled_from(["/", "/x", "/x/", "/xy", "/X", "\\x"]), max_size=3).map("".join)
URL_QUERIES = st.sampled_from(["", "?", "?page_id=3", "?page_id=33", "?p=1&q"])


@st.composite
def urls(draw) -> str:
    host = draw(URL_HOSTS)
    if not host.startswith("["):
        host = draw(st.sampled_from(["", "www.", "WWW."])) + host + draw(st.sampled_from(["", "."]))
        host = host.upper() if draw(st.booleans()) else host
    start = draw(st.sampled_from(["", "http://", "HTTPS://", "//"]))
    if start:
        host = draw(st.sampled_from(["", "user@", "u:pw@"])) + host
    port = draw(st.sampled_from(["", ":80", ":8080"]))
    return start + host + port + draw(URL_PATHS) + draw(URL_QUERIES) + draw(st.sampled_from(["", "#f"]))


@given(
    st.lists(st.lists(urls(), min_size=1, max_size=3).map(tuple), min_size=1, max_size=6),
    st.lists(urls() | st.text(max_size=20), min_size=1, max_size=10),
)
@example([("a.org?page_id=3",), ("a.org",)], ["http://a.org?page_id=33", "a.org/?page_id=3"])
@example([("[::1]",), ("http://[::1]:8080/x",)], ["//[::1]/x/y", "[::1:2]/x"])
@example([("a.org/x",), ("http://user@WWW.A.org.:80/x",)], ["a.org/x/y"])
def test_indexed_resolution_matches_linear_scan(prefixes, targets):
    corpus = corpus_of(*prefixes)
    for url in targets:
        assert resolve_url(url, corpus.site_index) == reference_resolve(url, corpus.registry)


def test_prefix_shared_by_two_sites_goes_to_the_first_registered():
    # load_corpus rejects a shared prefix; a Corpus built directly keeps registry order
    url = "https://a.org/x/y"
    assert resolve_url(url, corpus_of(("a.org/x",), ("http://www.A.org/x",)).site_index) == "s0"
    assert resolve_url(url, corpus_of(("a.org",), ("a.org/x",), ("A.org/x",)).site_index) == "s1"


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
@pytest.mark.parametrize(
    ("url", "owner"),
    [
        ("http://a.org/", "a.org"),
        ("http://a.org/blog", "a.org/blog"),
        ("http://a.org/blog/2021/post", "a.org/blog/2021"),
        ("http://a.org/blog/2020", "a.org/blog"),
    ],
)
def test_longest_of_three_nested_prefixes_wins(order, url, owner):
    nested = ["a.org", "a.org/blog", "a.org/blog/2021"]
    corpus = corpus_of(*((nested[i],) for i in order))
    assert resolve_url(url, corpus.site_index) == f"s{order.index(nested.index(owner))}"


@pytest.mark.parametrize(
    ("prefixes", "url", "expected"),
    [
        (("a.org", "blog.a.org"), "http://blog.a.org/x", "s1"),
        (("a.org", "blog.a.org"), "http://a.org/x", "s0"),
        (("a.org", "blog.a.org"), "http://www.blog.a.org/", "s1"),
        (("a.org", "blog.a.org"), "http://news.blog.a.org/", None),  # a subdomain is another host
        (("a.org",), "http://blog.a.org/x", None),
    ],
)
def test_subdomain_lands_in_its_own_bucket(prefixes, url, expected):
    corpus = corpus_of(*((prefix,) for prefix in prefixes))
    assert set(corpus.site_index) == set(prefixes)
    assert resolve_url(url, corpus.site_index) == expected


@pytest.mark.parametrize(
    ("url", "expected"),
    [
        ("http://a.org/page", "s0"),  # same path, no query
        ("http://a.org/page?id=3", "s1"),
        ("http://a.org/page?id=31", "s1"),  # a prefix match, as for paths
        ("http://a.org/page?id=4", "s0"),
        ("http://a.org/page/?id=3", "s0"),
    ],
)
def test_query_string_prefix_needs_the_query(url, expected):
    corpus = corpus_of(("a.org",), ("a.org/page?id=3",))
    assert resolve_url(url, corpus.site_index) == expected


def test_manifest_with_utf8_bom_loads(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "p.html"): b"x"}
    )
    manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    corpus = load_corpus(root, manifest)
    assert [(p.site_id, p.page_path) for p in corpus.pages] == [("s1", "p.html")]


@pytest.mark.parametrize("second_path", ["p.html", "./p.html"])
def test_page_path_under_two_sites_is_fatal(tmp_path, second_path):
    root, manifest = write_corpus(
        tmp_path,
        sites={"s1": ("blog", ["s1.org"]), "s2": ("press", ["s2.org"])},
        pages={("s1", "p.html"): b"x"},
    )
    with open(manifest, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["s2", "", second_path, ""])
    with pytest.raises(ManifestError, match=r"site s1 \(row 4\) and site s2 \(row 5\)"):
        load_corpus(root, manifest)


@pytest.mark.parametrize(
    "char, allowed",
    # the edges of XML 1.0's Char production: #x9 | #xA | #xD | [#x20-#xD7FF] |
    # [#xE000-#xFFFD] | [#x10000-#x10FFFF]
    [("\x08", False), ("\t", True), ("\x0c", False), ("\x1f", False), ("\x20", True),
     ("\x7f", True), ("\ud7ff", True), ("\ue000", True), ("\ufffd", True),
     ("\ufffe", False), ("\uffff", False), ("\U00010000", True), ("\U0010ffff", True)],
)
def test_label_must_be_xml_text(tmp_path, char, allowed):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": (f"bl{char}og", ["s1.org"])}, pages={("s1", "p.html"): b"x"}
    )
    if allowed:
        assert load_corpus(root, manifest).labels == {"s1": f"bl{char}og"}
    else:
        with pytest.raises(ManifestError, match=r"row 2: label holds .*XML 1\.0"):
            load_corpus(root, manifest)
