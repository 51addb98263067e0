"""Manifest loading and URL-to-site resolution."""

from __future__ import annotations

import csv
import re
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from comslice.corpus import Corpus, Page, Site, load_corpus, normalize_url, resolve_url
from comslice.errors import ManifestError

from conftest import write_corpus


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


def test_unknown_site_for_page_is_fatal(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "p.html"): b"x"}
    )
    rows = list(csv.reader(open(manifest, encoding="utf-8")))
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


REGISTRY = [
    Site(site_id="host", label="", url_prefixes=("example.org",)),
    Site(site_id="blog", label="", url_prefixes=("example.org/blog",)),
    Site(site_id="other", label="", url_prefixes=("other.net/a", "mirror.other.net")),
]


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
    assert resolve_url(url, REGISTRY) == expected


def test_resolve_url_is_deterministic():
    for _ in range(3):
        assert resolve_url("http://example.org/blog/x", REGISTRY) == "blog"


@given(st.text(min_size=1, max_size=40))
def test_resolve_url_returns_registered_site_or_none(url):
    result = resolve_url(url, REGISTRY)
    assert result in {None, "host", "blog", "other"}


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
