"""Byte-exact slicing of pages into main content and comment sections.

Slicing never rewrites bytes: a page is partitioned into spans (half-open
byte ranges) labelled main or comment-section, and the spans always
reassemble to the original file. When the delimiters of a page cannot be
matched with confidence the whole page is kept as main content and an
error is recorded instead; a wrong guess would silently corrupt the
corpus, a skipped page only costs recall.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .corpus import Page
from .encoding import Rule
from .errors import EncodingFileError, clip

Span = tuple[int, int]

MISSING_OPENING = "missing_opening"
MISSING_CLOSURE = "missing_closure"
MULTIPLE_OPENINGS = "multiple_openings"
EXTRACTION_FAILURE = "extraction_failure"

_DIGITS_RE = re.compile(rb"\d+")


class SectionAnomaly(Exception):
    """A comment section does not look like what its rule promises."""


@dataclass(frozen=True)
class SliceError:
    """One page-level slicing problem, kept for the error report."""

    site_id: str
    page_path: str
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class UniformSizeWarning:
    """All of a site's extracted sections share one byte length.

    Two or more identical sizes usually mean the delimiters matched some
    fixed boilerplate rather than real comment sections.
    """

    site_id: str
    size: int
    sections: int


@dataclass(frozen=True)
class SlicedPage:
    """A page partitioned into main spans and comment-section spans.

    Spans are half-open (start, end) byte offsets into raw_bytes, sorted,
    non-empty and non-overlapping. Only the section spans are stored; the
    main spans are their complement, so together the two kinds cover the
    whole page: their bytes, joined in offset order, are raw_bytes byte for byte.
    """

    site_id: str
    page_path: str
    raw_bytes: bytes
    section_spans: tuple[Span, ...]

    @property
    def main_spans(self) -> tuple[Span, ...]:
        """The non-empty gaps before, between and after the sections."""
        starts = [0, *(end for _, end in self.section_spans)]
        ends = [*(start for start, _ in self.section_spans), len(self.raw_bytes)]
        return tuple((start, end) for start, end in zip(starts, ends) if start < end)

    @property
    def stripped_bytes(self) -> bytes:
        return b"".join(self.raw_bytes[s:e] for s, e in self.main_spans)

    @property
    def sections_bytes(self) -> list[bytes]:
        return [self.raw_bytes[s:e] for s, e in self.section_spans]

    def in_comment_section(self, offset: int) -> bool:
        """True when the byte at offset falls inside a comment section."""
        i = bisect_right(self.section_spans, (offset, len(self.raw_bytes) + 1))
        if i == 0:
            return False
        start, end = self.section_spans[i - 1]
        return start <= offset < end


@dataclass(frozen=True)
class Comment:
    """One extracted comment: absolute span in the page plus parsed fields.

    Every field a rule cannot locate in the fragment stays None; depth is
    the first run of digits in its raw match, parsed as an int.
    """

    site_id: str
    page_path: str
    index: int
    span_start: int
    span_end: int
    author: str | None
    date: str | None
    depth: int | None
    author_url: str | None
    text: str | None


def rough_slice(data: bytes, rule: Rule) -> tuple[tuple[Span, ...], str | None]:
    """Find the comment sections of one page's bytes, as (spans, error kind).

    Sections run from an opening match through the end of the next closing
    match; with no closing pattern configured, a section runs to the end
    of the file. A page with no opening, or an opening that never closes,
    gets no spans, so it is kept whole as main content, and the kind
    missing_opening or missing_closure. Several sections on one page are
    all kept, with the kind multiple_openings. Otherwise the kind is None.
    """
    n = len(data)
    if not rule.has_comments:
        return (), None
    assert rule.open_pattern is not None  # guaranteed by encoding validation

    sections: list[Span] = []
    pos = 0
    while pos <= n:
        hit = rule.open_pattern.regex.search(data, pos)
        if hit is None:
            break
        open_start, open_end = hit.span()
        if rule.close_pattern is None:
            end = n
        else:
            closing = rule.close_pattern.regex.search(data, open_end)
            if closing is None:
                return (), MISSING_CLOSURE
            end = closing.end()
        if end <= open_start:
            # zero-width pathology: force progress, never emit empty spans
            end = min(n, open_start + 1)
        if end > open_start:
            sections.append((open_start, end))
        pos = max(end, open_start + 1)
        if rule.close_pattern is None:
            break

    if not sections:
        return (), MISSING_OPENING
    return tuple(sections), MULTIPLE_OPENINGS if len(sections) > 1 else None


def split_section(section: bytes, rule: Rule) -> list[Span]:
    """Split one comment section into per-comment fragments.

    Fragments run from each comment_pattern match to the next one (the
    last runs to the end of the section). A section whose length equals
    the rule's empty_size holds no comments. A section shorter than
    empty_size, or one that should hold comments but matches none, raises
    SectionAnomaly.
    """
    if rule.comment_pattern is None:
        raise ValueError(f"rule for site {rule.site_id} has no comment_pattern")
    if rule.empty_size is not None:
        if len(section) == rule.empty_size:
            return []
        if len(section) < rule.empty_size:
            raise SectionAnomaly(
                f"section is {len(section)} bytes, shorter than empty_size {rule.empty_size}"
            )
    starts = [m.start() for m in rule.comment_pattern.regex.finditer(section)]
    if not starts:
        if rule.empty_size is None:
            return []
        raise SectionAnomaly("section exceeds empty_size but no comment matches")
    bounds = starts + [len(section)]
    return [(bounds[i], bounds[i + 1]) for i in range(len(starts))]


def _decode(value: bytes | None) -> str | None:
    return None if value is None else value.decode("utf-8", errors="replace")


def extract_comment(
    fragment: bytes, rule: Rule, *, site_id: str, page_path: str, index: int, offset: int
) -> Comment:
    """Extract the structured fields of one comment fragment."""
    depth: int | None = None
    if rule.depth_pattern is not None:
        raw_depth = rule.depth_pattern.extract(fragment)
        if raw_depth is not None:
            digits = _DIGITS_RE.search(raw_depth)
            if digits:
                try:
                    depth = int(digits.group(0))
                except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
                    pass
    return Comment(
        site_id=site_id,
        page_path=page_path,
        index=index,
        span_start=offset,
        span_end=offset + len(fragment),
        author=_decode(rule.author_pattern.extract(fragment)) if rule.author_pattern else None,
        date=_decode(rule.date_pattern.extract(fragment)) if rule.date_pattern else None,
        depth=depth,
        author_url=_decode(rule.author_url_pattern.extract(fragment)) if rule.author_url_pattern else None,
        text=_decode(rule.text_pattern.extract(fragment)) if rule.text_pattern else None,
    )


def precise_slice(sliced: SlicedPage, rule: Rule) -> tuple[list[Comment], list[SliceError]]:
    """Extract every comment of an already-sliced page.

    Anomalous sections are skipped and reported as extraction_failure;
    the page's spans are never touched, so a failed extraction cannot
    corrupt the stripped output.
    """
    comments: list[Comment] = []
    errors: list[SliceError] = []
    index = 0
    for start, end in sliced.section_spans:
        section = sliced.raw_bytes[start:end]
        try:
            fragments = split_section(section, rule)
        except SectionAnomaly as anomaly:
            errors.append(
                SliceError(sliced.site_id, sliced.page_path, EXTRACTION_FAILURE, str(anomaly))
            )
            continue
        for frag_start, frag_end in fragments:
            comments.append(
                extract_comment(
                    section[frag_start:frag_end],
                    rule,
                    site_id=sliced.site_id,
                    page_path=sliced.page_path,
                    index=index,
                    offset=start + frag_start,
                )
            )
            index += 1
    return comments, errors


def slice_corpus(
    pages: list[Page], rules: dict[str, Rule], workers: int = 1
) -> tuple[list[SlicedPage], list[SliceError]]:
    """Rough-slice every page, in the given order (a Corpus's is manifest order).

    With workers > 1 the pages are fanned out over worker processes that
    send back only each page's section spans and error kind; every SlicedPage
    is built here around its own Page's bytes, so the result is identical
    to a serial run. The pool never holds more processes than there are
    CPUs or pages, and with one process left the pages are sliced here.
    """
    for page in pages:
        if page.site_id not in rules:
            raise EncodingFileError(f"no slicing rule for site {clip(page.site_id)}")
    data = [page.raw_bytes for page in pages]
    page_rules = [rules[page.site_id] for page in pages]
    workers = min(workers, os.cpu_count() or 1, len(pages))
    if workers <= 1:
        results = map(rough_slice, data, page_rules)
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(pages) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(rough_slice, data, page_rules, chunksize=chunksize))
    sliced: list[SlicedPage] = []
    errors: list[SliceError] = []
    for page, (spans, kind) in zip(pages, results):
        sliced.append(SlicedPage(page.site_id, page.page_path, page.raw_bytes, spans))
        if kind is not None:
            errors.append(SliceError(page.site_id, page.page_path, kind))
    return sliced, errors


@dataclass
class ErrorReport:
    """Aggregated slicing problems: per-site error counts plus warnings."""

    errors: list[SliceError]
    warnings: list[UniformSizeWarning]

    def summary_rows(self) -> list[tuple[str, str, int]]:
        """(site_id, kind, count) rows, only non-zero, sorted for stable output."""
        counts = Counter((e.site_id, e.kind) for e in self.errors)
        return [(site, kind, n) for (site, kind), n in sorted(counts.items())]

    def detail_rows(self) -> list[tuple[str, str, str, str]]:
        return sorted((e.site_id, e.page_path, e.kind, e.detail) for e in self.errors)


def build_error_report(
    sliced_pages: list[SlicedPage],
    errors: list[SliceError],
    rules: dict[str, Rule],
) -> ErrorReport:
    """Assemble the error report, adding uniform-size warnings per site.

    The warning fires when a site produced two or more sections and every
    one has the same byte length, unless that length is the site's known
    empty_size (all-empty sections are legitimately uniform).
    """
    sizes: dict[str, list[int]] = {}
    for page in sliced_pages:
        for start, end in page.section_spans:
            sizes.setdefault(page.site_id, []).append(end - start)
    warnings: list[UniformSizeWarning] = []
    for site_id in sorted(sizes):
        site_sizes = sizes[site_id]
        if len(site_sizes) < 2 or len(set(site_sizes)) != 1:
            continue
        rule = rules.get(site_id)
        if rule is not None and rule.empty_size == site_sizes[0]:
            continue
        warnings.append(UniformSizeWarning(site_id, site_sizes[0], len(site_sizes)))
    return ErrorReport(errors=list(errors), warnings=warnings)
