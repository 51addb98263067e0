"""Corpus loading and URL-to-site resolution.

A corpus is a directory of crawled HTML files plus a manifest CSV with
header ``site_id,label,page_path,url_prefixes``. Each row may define a
site (when ``url_prefixes`` is non-empty, ``|``-separated), declare a page
(when ``page_path`` is non-empty, relative to the corpus root), or both.
A row with a page_path whose site_id is never defined anywhere in the
manifest is a fatal error. load_corpus only checks that each page file is
a regular file; each page it returns, a PageFile, reads its bytes each
time ``raw_bytes`` is used, verbatim and never normalized. All downstream
slicing is byte-exact against them.
"""

from __future__ import annotations

import functools
import os
import re
import stat
from pathlib import Path
from typing import NamedTuple

from .errors import ManifestError, clip, read_rows

MANIFEST_COLUMNS = ("site_id", "label", "page_path", "url_prefixes")

# a host with a numeric port and no scheme ("a.org:8080/x") is not scheme "a.org"
_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:(?!\d+(?:[/?\\]|$))")
_HOST_END_RE = re.compile(r"[/?\\]")
# the characters outside XML 1.0's Char production (https://www.w3.org/TR/xml/#charsets);
# site ids and labels end up in graph.gexf, which must stay well-formed
_NOT_XML_CHAR_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

# O_NONBLOCK (POSIX) keeps the open of a FIFO from waiting for a writer, and
# O_BINARY (Windows) keeps the bytes untranslated; a regular file reads as without them
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)

# host -> that host's (normalized prefix, site_id) pairs, longest prefix first
SiteIndex = dict[str, tuple[tuple[str, str], ...]]


class Site(NamedTuple):
    """One registered website: an id, a free-form label, and the URL prefixes it owns."""

    site_id: str
    label: str
    url_prefixes: tuple[str, ...]

    @property
    @functools.cache  # load_corpus reads it to check the prefixes, then Corpus.site_index to index them
    def normalized(self) -> tuple[str, ...]:
        """url_prefixes passed through normalize_url, in the same order."""
        return tuple(normalize_url(prefix) for prefix in self.url_prefixes)


class Page(NamedTuple):
    """One crawled HTML file held in memory, identified by (site_id, page_path), bytes kept verbatim."""

    site_id: str
    page_path: str
    raw_bytes: bytes


class PageFile(NamedTuple):
    """A page that load_corpus found at file (page_file(page_path)) under root.

    Each use of raw_bytes reads the file; one that is no longer a readable
    regular file by then raises ManifestError, naming it.
    """

    site_id: str
    page_path: str
    root: Path
    file: str

    @property
    def raw_bytes(self) -> bytes:
        raw = _read_regular_file(f"{self.root}/{self.file}")
        if raw is None:
            raise ManifestError(f"page file not readable: {Path(clip(self.root)) / clip(self.file)}")
        return raw


class Corpus:
    """The site registry plus every declared page, never changed once built.

    A Page holds its bytes; a PageFile, which load_corpus builds, reads its
    file each time its raw_bytes is used. ``labels`` maps each registered
    site_id to its label; ``site_index`` is what ``resolve_url`` looks URLs
    up in.
    """

    def __init__(self, registry: list[Site], pages: list[Page | PageFile]) -> None:
        labels: dict[str, str] = {}
        for site in registry:
            if site.site_id in labels:
                raise ValueError(f"duplicate site_id in registry: {site.site_id}")
            labels[site.site_id] = site.label
        seen: set[tuple[str, str]] = set()
        for page in pages:
            if page.site_id not in labels:
                raise ValueError(f"page {page.page_path} references unknown site_id {page.site_id}")
            key = (page.site_id, page.page_path)
            if key in seen:
                raise ValueError(f"duplicate page {key}")
            seen.add(key)
        self.registry, self.pages, self.labels = registry, pages, labels

    @functools.cached_property
    def site_index(self) -> SiteIndex:
        """Every normalized prefix, bucketed by its host, longest first.

        The sort is stable, so a prefix two sites share (possible only in a
        Corpus built directly) stays in registry order and the first
        registered site wins.
        """
        buckets: dict[str, list[tuple[str, str]]] = {}
        for site in self.registry:
            for norm in site.normalized:
                buckets.setdefault(_host_of(norm), []).append((norm, site.site_id))
        return {
            host: tuple(sorted(pairs, key=lambda pair: -len(pair[0])))
            for host, pairs in buckets.items()
        }


def load_corpus(root: str | Path, manifest: str | Path) -> Corpus:
    """Load a corpus from disk, its pages at page_file(page_path) under root.

    Each page file is checked with one stat to be a regular file; its bytes
    are read each time its raw_bytes is used. Fatal conditions (raised
    as ManifestError, always naming the offending path or row): any fault
    read_rows refuses, a page file that is missing or not a regular file, two
    page_paths with one page_file under one site_id (duplicate pages) or two
    (both would write the same stripped file), a page referencing a site_id no
    row defines, a prefix with no host, one prefix claimed by two sites
    (compared after normalize_url), conflicting redefinitions of a site, or
    a site_id or label holding a character that XML 1.0 does not allow.
    """
    root = Path(root)
    rows_read = read_rows(manifest, MANIFEST_COLUMNS, ManifestError, "manifest")
    where = f"manifest {clip(manifest)}"

    # First pass: collect site definitions so page rows can appear in any order.
    page_rows: list[tuple[int, str, str]] = []  # (row, site_id, page_path) of each page row
    sites: dict[str, Site] = {}
    prefix_owner: dict[str, str] = {}
    for lineno, (site_id, label, page_path, url_prefixes) in rows_read:
        if page_path:
            page_rows.append((lineno, site_id, page_path))
        if not site_id:
            raise ManifestError(f"{where} row {lineno}: empty site_id")
        for column, cell in (("site_id", site_id), ("label", label)):
            bad = _NOT_XML_CHAR_RE.search(cell)
            if bad:
                raise ManifestError(
                    f"{where} row {lineno}: {column} holds {bad.group()!r}, "
                    "which XML 1.0 does not allow"
                )
        prefixes = tuple(p.strip() for p in url_prefixes.split("|") if p.strip())
        if not prefixes:
            continue
        candidate = Site(site_id=site_id, label=label, url_prefixes=prefixes)
        known = sites.get(site_id)
        if known is None:
            for prefix, norm in zip(prefixes, candidate.normalized):
                if norm.startswith(("/", "?")):  # it would own every root-relative href
                    raise ManifestError(
                        f"{where} row {lineno}: prefix {clip(prefix)!r} has no host"
                    )
                owner = prefix_owner.get(norm)
                if owner is not None and owner != site_id:
                    raise ManifestError(
                        f"{where} row {lineno}: prefix {clip(prefix)!r} "
                        f"({clip(norm)!r} after normalization) already owned by site {clip(owner)}"
                    )
                prefix_owner[norm] = site_id
            sites[site_id] = candidate
        elif known != candidate:
            raise ManifestError(
                f"{where} row {lineno}: conflicting definition "
                f"for site {clip(site_id)}"
            )

    # Second pass: check each page file; its bytes are read on use.
    pages: list[PageFile] = []
    seen: dict[str, tuple[int, str]] = {}  # page_file -> (row, site_id)
    for lineno, site_id, page_path in page_rows:
        path = page_file(page_path)
        if page_path.startswith("/") or ".." in path.split("/"):
            raise ManifestError(
                f"{where} row {lineno}: page_path {clip(page_path)!r} "
                f"must stay inside the corpus root"
            )
        if site_id not in sites:
            raise ManifestError(
                f"{where} row {lineno}: page {clip(page_path)} references "
                f"unknown site_id {clip(site_id)} (no row defines its url_prefixes)"
            )
        if path in seen:
            first_row, first_site = seen[path]
            if first_site == site_id:
                raise ManifestError(
                    f"{where} row {lineno}: duplicate page {(clip(site_id), clip(page_path))}"
                )
            raise ManifestError(
                f"{where}: page_path {clip(page_path)} is declared under site "
                f"{clip(first_site)} (row {first_row}) and site {clip(site_id)} (row {lineno})"
            )
        seen[path] = (lineno, site_id)
        try:
            regular = stat.S_ISREG(os.stat(f"{root}/{path}").st_mode)
        except OSError:  # missing, or a name the system refuses (too long, ...)
            regular = False
        if not regular:
            raise ManifestError(f"page file not found: {Path(clip(root)) / clip(path)}")
        pages.append(PageFile(site_id, page_path, root, path))

    return Corpus(registry=list(sites.values()), pages=pages)


def page_file(page_path: str) -> str:
    """page_path as pathlib spells it, with no empty and no ``.`` parts (``./d//b.html/`` is ``d/b.html``).

    A page is read at this path under the corpus root and written at it under stripped/.
    """
    parts = page_path.split("/")
    if "" in parts or "." in parts:
        return "/".join(part for part in parts if part not in ("", ".")) or "."
    return page_path


def _read_regular_file(path: str) -> bytes | None:
    """The bytes of path if it is a regular file that opens, else None.

    One descriptor, no file object: one open and one fstat, with no stat of
    the path first, then reads until one returns nothing (two for a file
    that does not change meanwhile).
    """
    try:
        fd = os.open(path, _READ_FLAGS)
    except OSError:
        return None
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            return None
        chunks = []
        while chunk := os.read(fd, info.st_size + 1):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


def _bare_host(host: str) -> str:
    """host without its port, surrounding whitespace, trailing dots and leading www.

    Repeated until nothing changes, so that normalizing a normalized URL
    changes nothing.
    """
    while True:
        if host.startswith("["):  # IPv6 literal: its colons are not the port separator
            trimmed = host[: host.find("]") + 1] or host
        else:
            trimmed = host.partition(":")[0]
        trimmed = trimmed.strip().rstrip(".").removeprefix("www.")
        if trimmed == host:
            return host
        host = trimmed


def normalize_url(url: str) -> str:
    """Normalize a URL for prefix matching.

    The scheme is stripped. The host ends at the first ``/``, ``?`` or
    ``\\``; it loses its userinfo (after ``//`` only), port, trailing dots
    and leading ``www.``, and is lowercased (RFC 3986 section 3.2). The
    fragment is dropped, the query string is kept, backslashes in the path
    become ``/`` as in browsers, and a bare host gains a trailing ``/`` so
    host boundaries stay intact (``a.org`` never matches
    ``a.org.evil.com``). The path keeps its original case.
    """
    s = url.partition("#")[0].strip()
    m = _SCHEME_RE.match(s)
    if m:
        s = s[m.end():]
    has_authority = s.startswith("//")  # only an authority holds userinfo (not mailto:)
    if has_authority:
        s = s[2:]
    host_end = _HOST_END_RE.search(s)
    cut = host_end.start() if host_end else len(s)
    host = s[:cut].lower()
    if has_authority:
        host = host.rpartition("@")[2]
    host = _bare_host(host)
    path, query_mark, query = s[cut:].partition("?")
    rest = path.replace("\\", "/") + query_mark + query
    if not host and rest.startswith("//"):  # would read as an authority when normalized again
        rest = "/" + rest.lstrip("/")
    return host + (rest or "/")


def _host_of(normalized: str) -> str:
    """The host of a normalize_url result: everything before its first ``/`` or ``?``."""
    return normalized[: _HOST_END_RE.search(normalized).start()]


def resolve_url(url: str, index: SiteIndex) -> str | None:
    """Resolve a URL to the site_id owning its longest matching prefix.

    ``index`` is ``Corpus.site_index``. A normalized prefix is its host
    followed by ``/`` or ``?``, so only prefixes under the URL's own host
    can match, and the first match in that longest-first bucket is the
    longest. Returns None for URLs no registered site owns (external links).
    """
    target = normalize_url(url)
    for prefix, site_id in index.get(_host_of(target), ()):
        if target.startswith(prefix):
            return site_id
    return None
