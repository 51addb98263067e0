"""Hyperlink extraction and the site-level link network.

Anchors are found with a byte-level regex so offsets line up exactly with
the slicing spans; a link counts as comment-located when its href value
starts inside a comment-section span. Network views (label crosstab,
mutual-link graph, components) work on resolved site-to-site edges with
self-links removed.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Site, resolve_url
from .slicer import SlicedPage

_HREF_RE = re.compile(
    rb'<a[\s/][^>]*?href\s*=\s*(?:"([^"]*)"|\'([^\']*)\'|([^\s>]+))',
    re.IGNORECASE | re.DOTALL,
)


@dataclass(frozen=True)
class Link:
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
        group = next(i for i in (1, 2, 3) if m.group(i) is not None)
        yield m.start(group), m.group(group).decode("utf-8", errors="replace")


def extract_links(page: SlicedPage, registry: Sequence[Site]) -> list[Link]:
    """The page's anchor hrefs that resolve to a registered site."""
    links: list[Link] = []
    for offset, href in iter_hrefs(page.raw_bytes):
        dst = resolve_url(href, registry)
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


def extract_all_links(pages: Iterable[SlicedPage], registry: Sequence[Site]) -> list[Link]:
    links: list[Link] = []
    for page in pages:
        links.extend(extract_links(page, registry))
    return links


def _countable(links: Iterable[Link]) -> list[Link]:
    """Non-self links: the ones the network views are built from."""
    return [l for l in links if not l.is_self]


@dataclass(frozen=True)
class CrosstabRow:
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
    for link in _countable(links):
        key = (labels[link.src_site_id], labels[link.dst_site_id])
        pair = counts.setdefault(key, [0, 0])
        pair[1 if link.in_comment else 0] += 1
    rows = [
        CrosstabRow(src_label=src, dst_label=dst, outside=outside, inside=inside)
        for (src, dst), (outside, inside) in counts.items()
    ]
    rows.sort(key=lambda r: (-r.proportion, r.src_label, r.dst_label))
    return rows


def link_noise(links: Iterable[Link]) -> float:
    """Share of countable links that sit inside comment sections.

    Matches the crosstab exactly: summing inside over inside+outside of
    every crosstab row gives this number back.
    """
    countable = _countable(links)
    if not countable:
        return 0.0
    return sum(1 for l in countable if l.in_comment) / len(countable)


@dataclass(frozen=True)
class MutualGraph:
    """Undirected site graph keeping only reciprocated links.

    Nodes are every registered site (isolated ones included); an edge
    {a, b} exists only when a links to b and b links back to a.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]


def mutual_link_graph(
    links: Iterable[Link], registry: Sequence[Site], *, include_comments: bool = True
) -> MutualGraph:
    """Build the mutual-link graph, optionally ignoring comment-located links."""
    directed: set[tuple[str, str]] = set()
    for link in _countable(links):
        if not include_comments and link.in_comment:
            continue
        directed.add((link.src_site_id, link.dst_site_id))
    edges = {
        (min(a, b), max(a, b))
        for a, b in directed
        if (b, a) in directed
    }
    return MutualGraph(
        nodes=tuple(sorted(site.site_id for site in registry)),
        edges=frozenset(edges),
    )


def components(graph: MutualGraph) -> list[list[str]]:
    """Connected components, largest first, each sorted by site_id."""
    adjacency: dict[str, set[str]] = {node: set() for node in graph.nodes}
    for a, b in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen: set[str] = set()
    found: list[list[str]] = []
    for start in graph.nodes:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        members = []
        while queue:
            node = queue.popleft()
            members.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        found.append(sorted(members))
    found.sort(key=lambda ms: (-len(ms), ms[0]))
    return found


def write_gexf(graph: MutualGraph, labels: dict[str, str], path: str | Path) -> None:
    """Write the graph as GEXF 1.2draft (undirected, nodes labelled by site label)."""
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
