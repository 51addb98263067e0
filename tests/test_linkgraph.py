"""Anchor extraction, crosstab arithmetic, mutual-link graph and GEXF export."""

from __future__ import annotations

import re
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comslice.corpus import Corpus, Site
from comslice.linkgraph import (
    Link,
    MutualGraph,
    components,
    crosstab,
    extract_all_links,
    iter_hrefs,
    mutual_link_graph,
    write_gexf,
)
from comslice.slicer import SlicedPage, slice_corpus

from conftest import CLOSE, OPEN, make_rule


def sliced_single(raw: bytes, sections=()) -> SlicedPage:
    return SlicedPage(site_id="src", page_path="p.html", raw_bytes=raw, section_spans=tuple(sections))


INDEX = Corpus(
    registry=[
        Site(site_id="src", label="blog", url_prefixes=("src.org",)),
        Site(site_id="dst", label="press", url_prefixes=("dst.org",)),
    ],
    pages=[],
).site_index


@pytest.mark.parametrize(
    ("anchor", "href"),
    [
        (b'<a href="http://dst.org/a">x</a>', "http://dst.org/a"),
        (b"<a href='http://dst.org/b'>x</a>", "http://dst.org/b"),
        (b"<a href=http://dst.org/c>x</a>", "http://dst.org/c"),
        (b'<A HREF="http://dst.org/d">x</A>', "http://dst.org/d"),
        (b'<a class="out" target="_blank" href="http://dst.org/e">x</a>', "http://dst.org/e"),
        (b'<a\nhref = "http://dst.org/f">x</a>', "http://dst.org/f"),
    ],
)
def test_href_syntaxes(anchor, href):
    links = extract_all_links([sliced_single(b"pre " + anchor + b" post")], INDEX)
    assert [l.href for l in links] == [href]
    assert links[0].dst_site_id == "dst"


def test_offset_points_at_href_value():
    raw = b'zz<a href="http://dst.org/q">x</a>'
    (link,) = extract_all_links([sliced_single(raw)], INDEX)
    assert raw[link.offset:link.offset + len(link.href)] == link.href.encode()


def test_non_anchor_hrefs_are_ignored():
    raw = b'<link href="http://dst.org/style.css"><area href="http://dst.org/">'
    assert extract_all_links([sliced_single(raw)], INDEX) == []


def test_iter_hrefs_lists_every_anchor():
    raw = (
        b'<a href="http://a/">1</a><p><a href=\'http://b/\'>2</a></p>'
        b'<a href="">3</a><a href=\'\'>4</a>'
        b'<a href="http://c/" href="http://d/">5</a>'  # the first href wins
        b"<a href=http://e/>6</a>"
    )
    assert list(iter_hrefs(raw)) == [
        (9, "http://a/"),
        (37, "http://b/"),
        (66, ""),  # an empty value starts just after its opening quote
        (82, ""),
        (98, "http://c/"),
        (139, "http://e/"),
    ]


# iter_hrefs' regex before it was made linear: the reference for its matches
_REF_HREF_RE = re.compile(
    rb'<a[\s/][^>]*?href\s*=\s*(?:"([^"]*)"|\'([^\']*)\'|([^\s>]+))',
    re.IGNORECASE | re.DOTALL,
)

anchor_soup = st.lists(
    st.sampled_from(
        [b"<a ", b"<A/", b"<a", b"<ab ", b"href", b"HREF", b"=", b" ", b"\n", b'"', b"'",
         b">", b"<", b"x", b"/", b"\xff"]
    )
    | st.binary(max_size=4),
    max_size=30,
).map(b"".join)


@settings(max_examples=300)
@given(anchor_soup)
def test_iter_hrefs_matches_the_reference_regex(raw):
    expected = [
        (m.start(m.lastindex), m.group(m.lastindex).decode("utf-8", errors="replace"))
        for m in _REF_HREF_RE.finditer(raw)
    ]
    assert list(iter_hrefs(raw)) == expected


def test_iter_hrefs_is_linear_on_anchors_that_never_close():
    raw = b"<a " * (1_000_000 // 3)  # a page cut off mid-tag, many times over
    started = time.perf_counter()
    assert list(iter_hrefs(raw)) == []
    assert time.perf_counter() - started < 1.0


def test_location_follows_sections():
    inside = b'<a href="http://dst.org/in">i</a>'
    outside = b'<a href="http://dst.org/out">o</a>'
    raw = outside + OPEN + inside + CLOSE
    page = sliced_single(raw, sections=[(len(outside), len(raw))])
    links = extract_all_links([page], INDEX)
    assert [(l.href, l.in_comment) for l in links] == [
        ("http://dst.org/out", False),
        ("http://dst.org/in", True),
    ]


def test_external_hrefs_yield_no_links():
    raw = b'<a href="http://alien.net/">a</a><a href="http://src.org/self">s</a>'
    links = extract_all_links([sliced_single(raw)], INDEX)
    # the alien anchor is visible to iter_hrefs but produces no edge
    assert len(list(iter_hrefs(raw))) == 2
    assert [(l.dst_site_id, l.is_self) for l in links] == [("src", True)]


def test_page_with_only_external_links_is_empty():
    raw = b'<a href="mailto:x@y.z">m</a><a href="http://nowhere.net/">n</a>'
    assert extract_all_links([sliced_single(raw)], INDEX) == []


def mk_link(src: str, dst: str, in_comment: bool = False) -> Link:
    return Link(
        src_site_id=src,
        page_path="p.html",
        offset=0,
        href="x",
        dst_site_id=dst,
        in_comment=in_comment,
    )


LABELS = {"a": "L1", "b": "L1", "c": "L2"}


def test_crosstab_counts_and_order():
    links = (
        [mk_link("a", "c", True)] * 3
        + [mk_link("a", "c", False)] * 1
        + [mk_link("c", "a", True)] * 1
        + [mk_link("c", "b", False)] * 3
        + [mk_link("a", "b", False)] * 2  # same label pair, distinct sites
        + [mk_link("a", "a", True)] * 5  # self links never counted
    )
    rows = crosstab(links, LABELS)
    assert [(r.src_label, r.dst_label, r.outside, r.inside) for r in rows] == [
        ("L1", "L2", 1, 3),
        ("L2", "L1", 3, 1),
        ("L1", "L1", 2, 0),
    ]
    assert [f"{r.proportion:.2f}" for r in rows] == ["0.75", "0.25", "0.00"]


def test_crosstab_omits_pairs_without_links():
    rows = crosstab([mk_link("a", "c")], LABELS)
    assert len(rows) == 1  # no zero-total rows invented


link_lists = st.lists(
    st.builds(
        mk_link,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        st.booleans(),
    ),
    max_size=60,
)


GRAPH_LABELS = {s: s.upper() for s in "abcd"}


def test_mutual_graph_requires_reciprocity():
    links = [mk_link("a", "b"), mk_link("b", "a"), mk_link("a", "c")]
    graph = mutual_link_graph(links, GRAPH_LABELS, include_comments=True)
    assert graph.edges == frozenset({("a", "b")})
    assert graph.nodes == ("a", "b", "c", "d")  # isolated sites stay in the graph


def test_mutual_graph_reciprocity_can_cross_locations():
    links = [mk_link("a", "b", True), mk_link("b", "a", False)]
    assert mutual_link_graph(links, GRAPH_LABELS, include_comments=True).edges == frozenset({("a", "b")})
    assert mutual_link_graph(links, GRAPH_LABELS, include_comments=False).edges == frozenset()


@given(link_lists)
def test_dropping_comment_links_never_adds_edges(links):
    with_comments = mutual_link_graph(links, GRAPH_LABELS, include_comments=True).edges
    without = mutual_link_graph(links, GRAPH_LABELS, include_comments=False).edges
    assert without <= with_comments


@given(link_lists)
def test_components_match_networkx(links):
    graph = mutual_link_graph(links, GRAPH_LABELS, include_comments=True)
    oracle = nx.Graph()
    oracle.add_nodes_from(graph.nodes)
    oracle.add_edges_from(graph.edges)
    expected = {frozenset(c) for c in nx.connected_components(oracle)}
    ours = components(graph)
    assert {frozenset(c) for c in ours} == expected
    sizes = [len(c) for c in ours]
    assert sizes == sorted(sizes, reverse=True)
    for group in ours:
        assert group == sorted(group)


def test_components_tie_break_is_smallest_member():
    graph = MutualGraph(nodes=("a", "b", "c", "d"), edges=frozenset({("c", "d"), ("a", "b")}))
    assert components(graph) == [["a", "b"], ["c", "d"]]


def test_gexf_round_trips_through_networkx(tmp_path):
    graph = MutualGraph(nodes=("a", "b", "c"), edges=frozenset({("a", "b")}))
    path = tmp_path / "graph.gexf"
    write_gexf(graph, {"a": "L1", "b": "L2", "c": "L3"}, path)
    loaded = nx.read_gexf(path)
    assert not loaded.is_directed()
    assert set(loaded.nodes) == {"a", "b", "c"}
    assert loaded.nodes["a"]["label"] == "L1"
    assert set(map(frozenset, loaded.edges)) == {frozenset({"a", "b"})}


def test_extract_all_links_on_real_corpus(two_site_corpus):
    sliced, errors = slice_corpus(two_site_corpus.pages, {"alpha": make_rule(), "beta": make_rule()})
    assert errors == []
    links = extract_all_links(sliced, two_site_corpus.site_index)
    by_page = {}
    for link in links:
        by_page.setdefault(link.page_path, []).append(link)
    assert [(l.dst_site_id, l.in_comment) for l in by_page["alpha/a1.html"]] == [
        ("beta", False),
        ("beta", True),
    ]
    # b1 also carries an anchor to an unregistered host: it produces no link
    assert [(l.dst_site_id, l.in_comment) for l in by_page["beta/b1.html"]] == [
        ("alpha", False),
    ]


def test_crosstab_even_split_is_half():
    links = [mk_link("a", "c", True)] * 5 + [mk_link("a", "c", False)] * 5
    (row,) = crosstab(links, LABELS)
    assert (row.outside, row.inside) == (5, 5)
    assert f"{row.proportion:.2f}" == "0.50"


@given(link_lists)
def test_crosstab_totals_preserve_countable_links(links):
    countable = [l for l in links if l.src_site_id != l.dst_site_id]
    rows = crosstab(links, LABELS)
    assert sum(r.inside + r.outside for r in rows) == len(countable)


def test_gexf_handles_empty_graph(tmp_path):
    graph = MutualGraph(nodes=(), edges=frozenset())
    path = tmp_path / "empty.gexf"
    write_gexf(graph, {}, path)
    loaded = nx.read_gexf(path)
    assert loaded.number_of_nodes() == 0 and loaded.number_of_edges() == 0


def test_gexf_triangle(tmp_path):
    edges = frozenset({("a", "b"), ("b", "c"), ("a", "c")})
    graph = MutualGraph(nodes=("a", "b", "c"), edges=edges)
    path = tmp_path / "tri.gexf"
    write_gexf(graph, {n: n.upper() for n in graph.nodes}, path)
    loaded = nx.read_gexf(path)
    assert loaded.number_of_nodes() == 3 and loaded.number_of_edges() == 3
