"""Corpus loading and URL-to-site resolution.

A corpus is a directory of crawled HTML files plus a manifest CSV with
header ``site_id,label,page_path,url_prefixes``. Each row may define a
site (when ``url_prefixes`` is non-empty, ``|``-separated), declare a page
(when ``page_path`` is non-empty, relative to the corpus root), or both.
A row with a page_path whose site_id is never defined anywhere in the
manifest is a fatal error. Page bytes are read verbatim and never
normalized; all downstream slicing is byte-exact against them.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Sequence

from .errors import ManifestError

MANIFEST_COLUMNS = ("site_id", "label", "page_path", "url_prefixes")

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


@dataclass(frozen=True)
class Site:
    """One registered website: an id, a free-form label, and the URL prefixes it owns."""

    site_id: str
    label: str
    url_prefixes: tuple[str, ...]


@dataclass(frozen=True)
class Page:
    """One crawled HTML file, identified by (site_id, page_path), bytes kept verbatim."""

    site_id: str
    page_path: str
    raw_bytes: bytes


@dataclass
class Corpus:
    """An immutable snapshot: the site registry plus every loaded page."""

    registry: list[Site]
    pages: list[Page]
    _by_id: dict[str, Site] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, Site] = {}
        for site in self.registry:
            if site.site_id in by_id:
                raise ValueError(f"duplicate site_id in registry: {site.site_id}")
            by_id[site.site_id] = site
        seen: set[tuple[str, str]] = set()
        for page in self.pages:
            if page.site_id not in by_id:
                raise ValueError(
                    f"page {page.page_path} references unknown site_id {page.site_id}"
                )
            key = (page.site_id, page.page_path)
            if key in seen:
                raise ValueError(f"duplicate page {key}")
            seen.add(key)
        self._by_id = by_id

    def label_of(self, site_id: str) -> str:
        return self._by_id[site_id].label


def load_corpus(root: str | Path, manifest: str | Path) -> Corpus:
    """Load a corpus from disk.

    Fatal conditions (raised as ManifestError, always naming the offending
    path or row): missing manifest, wrong header, missing page file,
    duplicate (site_id, page_path), one page_path under two site_ids (both
    would write the same stripped file), a page referencing a site_id no
    row defines, one prefix claimed by two sites, or conflicting
    redefinitions of a site.
    """
    root = Path(root)
    manifest = Path(manifest)
    if not manifest.is_file():
        raise ManifestError(f"manifest not found: {manifest}")

    with open(manifest, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"manifest is empty: {manifest}") from None
        if tuple(h.strip() for h in header) != MANIFEST_COLUMNS:
            raise ManifestError(
                f"manifest {manifest} has header {header}, "
                f"expected {list(MANIFEST_COLUMNS)}"
            )
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]

    # First pass: collect site definitions so page rows can appear in any order.
    sites: dict[str, Site] = {}
    prefix_owner: dict[str, str] = {}
    for lineno, row in rows:
        if len(row) != len(MANIFEST_COLUMNS):
            raise ManifestError(
                f"manifest {manifest} row {lineno}: expected "
                f"{len(MANIFEST_COLUMNS)} cells, got {len(row)}"
            )
        site_id = row[0].strip()
        if not site_id:
            raise ManifestError(f"manifest {manifest} row {lineno}: empty site_id")
        prefixes = tuple(p.strip() for p in row[3].split("|") if p.strip())
        if not prefixes:
            continue
        candidate = Site(site_id=site_id, label=row[1].strip(), url_prefixes=prefixes)
        known = sites.get(site_id)
        if known is None:
            for prefix in prefixes:
                owner = prefix_owner.get(prefix)
                if owner is not None and owner != site_id:
                    raise ManifestError(
                        f"manifest {manifest} row {lineno}: prefix {prefix!r} "
                        f"already owned by site {owner}"
                    )
                prefix_owner[prefix] = site_id
            sites[site_id] = candidate
        elif known != candidate:
            raise ManifestError(
                f"manifest {manifest} row {lineno}: conflicting definition "
                f"for site {site_id}"
            )

    # Second pass: load page bytes verbatim.
    pages: list[Page] = []
    seen: dict[PurePosixPath, tuple[int, str]] = {}  # page path -> (row, site_id)
    for lineno, row in rows:
        page_path = row[2].strip()
        if not page_path:
            continue
        path = PurePosixPath(page_path)
        if path.is_absolute() or ".." in path.parts:
            raise ManifestError(
                f"manifest {manifest} row {lineno}: page_path {page_path!r} "
                f"must stay inside the corpus root"
            )
        site_id = row[0].strip()
        if site_id not in sites:
            raise ManifestError(
                f"manifest {manifest} row {lineno}: page {page_path} references "
                f"unknown site_id {site_id} (no row defines its url_prefixes)"
            )
        if path in seen:
            first_row, first_site = seen[path]
            if first_site == site_id:
                raise ManifestError(
                    f"manifest {manifest} row {lineno}: duplicate page {(site_id, page_path)}"
                )
            raise ManifestError(
                f"manifest {manifest}: page_path {page_path} is declared under site "
                f"{first_site} (row {first_row}) and site {site_id} (row {lineno})"
            )
        seen[path] = (lineno, site_id)
        file_path = root / page_path
        if not file_path.is_file():
            raise ManifestError(f"page file not found: {file_path}")
        pages.append(Page(site_id=site_id, page_path=page_path, raw_bytes=file_path.read_bytes()))

    return Corpus(registry=list(sites.values()), pages=pages)


def normalize_url(url: str) -> str:
    """Normalize a URL for prefix matching.

    Scheme and a leading ``www.`` are stripped, the host is lowercased,
    the fragment is dropped, the query string is kept, and a bare host
    gains a trailing ``/`` so host boundaries stay intact (``a.org`` never
    matches ``a.org.evil.com``). The path keeps its original case.
    """
    s = url.strip()
    hash_pos = s.find("#")
    if hash_pos != -1:
        s = s[:hash_pos]
    m = _SCHEME_RE.match(s)
    if m:
        s = s[m.end():]
    if s.startswith("//"):
        s = s[2:]
    cut = len(s)
    for ch in "/?":
        pos = s.find(ch)
        if pos != -1:
            cut = min(cut, pos)
    host, rest = s[:cut].lower(), s[cut:]
    if host.startswith("www."):
        host = host[4:]
    if not rest:
        rest = "/"
    return host + rest


def resolve_url(url: str, registry: Sequence[Site] | Iterable[Site]) -> str | None:
    """Resolve a URL to the site_id owning its longest matching prefix.

    Returns None for URLs no registered site owns (external links).
    Deterministic: the registry invariant forbids shared prefixes, and
    among nested prefixes the longest wins.
    """
    target = normalize_url(url)
    best_len = -1
    best_site: str | None = None
    for site in registry:
        for prefix in site.url_prefixes:
            norm = normalize_url(prefix)
            if target.startswith(norm) and len(norm) > best_len:
                best_len = len(norm)
                best_site = site.site_id
    return best_site
