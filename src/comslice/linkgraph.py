"""Hyperlink extraction and the site-level link network.

Anchors are found with a byte-level regex so offsets line up exactly with
the slicing spans; a link counts as comment-located when its href value
starts inside a comment-section span. Network views (label crosstab,
mutual-link graph, components) work on resolved site-to-site edges with
self-links removed.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple

from .corpus import SiteIndex, resolve_url
from .slicer import SlicedPage

# An anchor with no href before its '>' (or before the end of the page) matches
# the group-less second branch, which consumes it up to that '>': an anchor
# starting before that '>' could not hold an href either, so the scan never
# re-reads the rest of the page from each of them and stays linear. A quoted
# value with no closing quote after it runs to the end of the page.
_HREF_RE = re.compile(
    rb'<a[\s/](?:[^>]*?href\s*=\s*(?:"([^"]*)"?|\'([^\']*)\'?|([^\s>]+))|[^>]*)',
    re.IGNORECASE | re.DOTALL,
)


class Link(NamedTuple):
    """One site-to-site link occurrence: where it sits, what it points to.

    Only hrefs resolving to a registered site become links; external URLs
    are counted but produce no edge. Self-links (a site linking to itself)
    are kept in the edge table and excluded from the network views.
    """

    src_site_id: str
    page_path: str
    offset: int
    href: str
    dst_site_id: str
    in_comment: bool

    @property
    def is_self(self) -> bool:
        return self.dst_site_id == self.src_site_id


def iter_hrefs(data: bytes) -> Iterable[tuple[int, str]]:
    """Every anchor href value in the page, as (byte offset, decoded value)."""
    for m in _HREF_RE.finditer(data):
        # the three quoting styles are alternatives: at most one group takes part
        if m.lastindex is not None:
            yield m.start(m.lastindex), m.group(m.lastindex).decode("utf-8", errors="replace")


def extract_all_links(pages: Iterable[SlicedPage], index: SiteIndex) -> list[Link]:
    """Every anchor href on the pages that resolves to a registered site, in page order.

    ``index`` is ``Corpus.site_index``. A link is in a comment when its href's offset is.
    """
    links: list[Link] = []
    for page in pages:
        for offset, href in iter_hrefs(page.raw_bytes):
            dst = resolve_url(href, index)
            if dst is None:
                continue
            links.append(
                Link(
                    src_site_id=page.site_id,
                    page_path=page.page_path,
                    offset=offset,
                    href=href,
                    dst_site_id=dst,
                    in_comment=page.in_comment_section(offset),
                )
            )
    return links


def countable(links: Iterable[Link]) -> list[Link]:
    """Non-self links: the ones the network views are built from."""
    return [l for l in links if not l.is_self]


class CrosstabRow(NamedTuple):
    """Link counts between one source label and one destination label."""

    src_label: str
    dst_label: str
    outside: int
    inside: int

    @property
    def proportion(self) -> float:
        return self.inside / (self.inside + self.outside)


def crosstab(links: Iterable[Link], labels: dict[str, str]) -> list[CrosstabRow]:
    """Count links per (source label, destination label) pair.

    ``inside`` counts links sitting in comment sections, ``outside`` the
    rest. Self-links are excluded. Rows come back sorted by the share of
    comment-located links, largest first, ties broken by label pair.
    """
    counts: dict[tuple[str, str], list[int]] = {}
    for link in countable(links):
        key = (labels[link.src_site_id], labels[link.dst_site_id])
        pair = counts.setdefault(key, [0, 0])
        pair[1 if link.in_comment else 0] += 1
    rows = [
        CrosstabRow(src_label=src, dst_label=dst, outside=outside, inside=inside)
        for (src, dst), (outside, inside) in counts.items()
    ]
    rows.sort(key=lambda r: (-r.proportion, r.src_label, r.dst_label))
    return rows


class MutualGraph(NamedTuple):
    """Undirected site graph keeping only reciprocated links.

    Nodes are every registered site (isolated ones included); an edge
    {a, b} exists only when a links to b and b links back to a.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]


def mutual_link_graph(
    links: Iterable[Link], labels: dict[str, str], *, include_comments: bool
) -> MutualGraph:
    """Build the mutual-link graph, with or without the links located in comments.

    ``labels`` is ``Corpus.labels``: its keys, the registered site_ids, are the nodes.
    """
    directed: set[tuple[str, str]] = set()
    for link in countable(links):
        if not include_comments and link.in_comment:
            continue
        directed.add((link.src_site_id, link.dst_site_id))
    edges = {
        (min(a, b), max(a, b))
        for a, b in directed
        if (b, a) in directed
    }
    return MutualGraph(
        nodes=tuple(sorted(labels)),
        edges=frozenset(edges),
    )


def components(graph: MutualGraph) -> list[list[str]]:
    """Connected components, largest first (ties by smallest member), each sorted by site_id."""
    parent = {node: node for node in graph.nodes}  # a union-find forest

    def root(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]  # path halving
            node = parent[node]
        return node

    for a, b in graph.edges:
        parent[root(a)] = root(b)
    members: dict[str, list[str]] = {}
    for node in graph.nodes:
        members.setdefault(root(node), []).append(node)
    return sorted(map(sorted, members.values()), key=lambda ms: (-len(ms), ms[0]))


def write_gexf(graph: MutualGraph, labels: dict[str, str], path: str | Path) -> None:
    """Write the graph as GEXF 1.2draft (undirected, nodes labelled by site label)."""
    import xml.etree.ElementTree as ET  # here: only graph writes XML

    root = ET.Element("gexf", xmlns="http://www.gexf.net/1.2draft", version="1.2")
    graph_el = ET.SubElement(root, "graph", defaultedgetype="undirected")
    nodes_el = ET.SubElement(graph_el, "nodes")
    for node in graph.nodes:
        ET.SubElement(nodes_el, "node", id=node, label=labels.get(node, node))
    edges_el = ET.SubElement(graph_el, "edges")
    for i, (a, b) in enumerate(sorted(graph.edges)):
        ET.SubElement(edges_el, "edge", id=str(i), source=a, target=b)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)
