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
import functools
import io
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Sequence

from .errors import ManifestError, read_text

MANIFEST_COLUMNS = ("site_id", "label", "page_path", "url_prefixes")

# a host with a numeric port and no scheme ("a.org:8080/x") is not scheme "a.org"
_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:(?!\d+(?:[/?\\]|$))")
_HOST_END_RE = re.compile(r"[/?\\]")


@dataclass(frozen=True)
class Site:
    """One registered website: an id, a free-form label, and the URL prefixes it owns."""

    site_id: str
    label: str
    url_prefixes: tuple[str, ...]

    @functools.cached_property
    def normalized(self) -> tuple[str, ...]:
        """url_prefixes passed through normalize_url, in the same order."""
        return tuple(normalize_url(prefix) for prefix in self.url_prefixes)


@dataclass(frozen=True)
class Page:
    """One crawled HTML file, identified by (site_id, page_path), bytes kept verbatim."""

    site_id: str
    page_path: str
    raw_bytes: bytes


@dataclass
class Corpus:
    """An immutable snapshot: the site registry plus every loaded page.

    ``labels`` maps each registered site_id to its label.
    """

    registry: list[Site]
    pages: list[Page]
    labels: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels: dict[str, str] = {}
        for site in self.registry:
            if site.site_id in labels:
                raise ValueError(f"duplicate site_id in registry: {site.site_id}")
            labels[site.site_id] = site.label
        seen: set[tuple[str, str]] = set()
        for page in self.pages:
            if page.site_id not in labels:
                raise ValueError(
                    f"page {page.page_path} references unknown site_id {page.site_id}"
                )
            key = (page.site_id, page.page_path)
            if key in seen:
                raise ValueError(f"duplicate page {key}")
            seen.add(key)
        self.labels = labels


def load_corpus(root: str | Path, manifest: str | Path) -> Corpus:
    """Load a corpus from disk.

    Fatal conditions (raised as ManifestError, always naming the offending
    path or row): missing manifest, wrong header, missing page file,
    duplicate (site_id, page_path), one page_path under two site_ids (both
    would write the same stripped file), a page referencing a site_id no
    row defines, a prefix with no host, one prefix claimed by two sites
    (compared after normalize_url), or conflicting redefinitions of a site.
    """
    root = Path(root)
    manifest = Path(manifest)
    text = read_text(manifest, ManifestError, "manifest")
    reader = csv.reader(io.StringIO(text, newline=""))
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
            for prefix, norm in zip(prefixes, candidate.normalized):
                if norm.startswith(("/", "?")):  # it would own every root-relative href
                    raise ManifestError(
                        f"manifest {manifest} row {lineno}: prefix {prefix!r} has no host"
                    )
                owner = prefix_owner.get(norm)
                if owner is not None and owner != site_id:
                    raise ManifestError(
                        f"manifest {manifest} row {lineno}: prefix {prefix!r} "
                        f"({norm!r} after normalization) already owned by site {owner}"
                    )
                prefix_owner[norm] = site_id
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
        for norm in site.normalized:
            if target.startswith(norm) and len(norm) > best_len:
                best_len = len(norm)
                best_site = site.site_id
    return best_site
