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
from itertools import pairwise
from operator import itemgetter
from typing import NamedTuple

from .corpus import Page, PageFile
from .encoding import EXTRACTOR_COLUMNS, Rule
from .errors import EncodingFileError, clip

Span = tuple[int, int]

MISSING_OPENING = "missing_opening"
MISSING_CLOSURE = "missing_closure"
MULTIPLE_OPENINGS = "multiple_openings"
EXTRACTION_FAILURE = "extraction_failure"

_DIGITS_RE = re.compile(r"[0-9]+")  # not \d, which in a str pattern matches any decimal digit


class SliceError(NamedTuple):
    """One page-level slicing problem, kept for the error report."""

    site_id: str
    page_path: str
    kind: str
    detail: str = ""


class UniformSizeWarning(NamedTuple):
    """All of a site's extracted sections share one byte length.

    Two or more identical sizes usually mean the delimiters matched some
    fixed boilerplate rather than real comment sections.
    """

    site_id: str
    size: int
    sections: int


class SlicedPage(NamedTuple):
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
        i = bisect_right(self.section_spans, offset, key=itemgetter(0))
        return i > 0 and offset < self.section_spans[i - 1][1]


class Comment(NamedTuple):
    """One extracted comment: absolute span in the page plus parsed fields.

    Every field a rule cannot locate in the fragment stays None; depth is
    the first run of ASCII digits in its value, parsed as an int.
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


class Thresholds(NamedTuple):
    """When to slice: per-metric cutoffs, each named after the audit.NoiseMeasurement field it bounds.

    A metric must strictly exceed its cutoff to matter.
    """

    link_noise: float = 0.05
    token_noise: float = 0.05
    text_divergence: float = 0.05


def rough_slice(data: bytes, rule: Rule) -> tuple[tuple[Span, ...], str | None]:
    """Find the comment sections of one page's bytes, as (spans, error kind).

    Sections run from an opening match through the end of the next closing
    match, or to the end of the file with no closing pattern configured;
    an empty section is no section. A page with no section, or an opening
    that never closes, gets no spans, so it is kept whole as main content,
    and the kind missing_opening or missing_closure. Several sections on
    one page are all kept, with the kind multiple_openings; otherwise None.
    """
    if not rule.has_comments:
        return (), None
    assert rule.open_pattern is not None  # guaranteed by encoding validation

    sections: list[Span] = []
    pos = 0
    while pos <= len(data):
        hit = rule.open_pattern.regex.search(data, pos)
        if hit is None:
            break
        start, end = hit.start(), len(data)
        if rule.close_pattern is not None:
            closing = rule.close_pattern.regex.search(data, hit.end())
            if closing is None:
                return (), MISSING_CLOSURE
            end = closing.end()
        if end > start:
            sections.append((start, end))
        pos = max(end, start + 1)

    if not sections:
        return (), MISSING_OPENING
    return tuple(sections), MULTIPLE_OPENINGS if len(sections) > 1 else None


def split_section(section: bytes, rule: Rule) -> tuple[list[Span], str | None]:
    """Split one comment section into per-comment fragments, as (spans, anomaly).

    Fragments run from each comment_pattern match before the section's end
    to the next one, or to the end. A section whose length equals the
    rule's empty_size holds no comments. A section shorter than
    empty_size, or one that should hold comments but matches none, gets
    no spans and an anomaly that says why; otherwise the anomaly is None.
    """
    if rule.comment_pattern is None:
        raise ValueError(f"rule for site {rule.site_id} has no comment_pattern")
    if rule.empty_size is not None:
        if len(section) == rule.empty_size:
            return [], None
        if len(section) < rule.empty_size:
            return [], f"section is {len(section)} bytes, shorter than empty_size {rule.empty_size}"
    starts = [m.start() for m in rule.comment_pattern.regex.finditer(section) if m.start() < len(section)]
    if not starts and rule.empty_size is not None:
        return [], "section exceeds empty_size but no comment matches"
    return list(pairwise([*starts, len(section)])), None


def extract_comment(
    fragment: bytes, rule: Rule, *, site_id: str, page_path: str, index: int, offset: int
) -> Comment:
    """Extract the structured fields of one comment fragment."""
    values: dict[str, str | int | None] = {}
    for column in EXTRACTOR_COLUMNS:  # date, author, depth, author_url, text
        pattern = getattr(rule, column)
        values[column.removesuffix("_pattern")] = None if pattern is None else pattern.extract(fragment)
    digits = _DIGITS_RE.search(values["depth"] or "")
    try:
        values["depth"] = int(digits[0]) if digits else None
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        values["depth"] = None
    return Comment(
        site_id=site_id,
        page_path=page_path,
        index=index,
        span_start=offset,
        span_end=offset + len(fragment),
        **values,
    )


def precise_slice(sliced: SlicedPage, rule: Rule) -> tuple[list[Comment], list[SliceError]]:
    """Extract every comment of an already-sliced page.

    Anomalous sections are skipped and reported as extraction_failure;
    the page's spans are never touched, so a failed extraction cannot
    corrupt the stripped output.
    """
    comments: list[Comment] = []
    errors: list[SliceError] = []
    for start, end in sliced.section_spans:
        section = sliced.raw_bytes[start:end]
        fragments, anomaly = split_section(section, rule)
        if anomaly is not None:
            errors.append(SliceError(sliced.site_id, sliced.page_path, EXTRACTION_FAILURE, anomaly))
        for frag_start, frag_end in fragments:
            comments.append(
                extract_comment(
                    section[frag_start:frag_end],
                    rule,
                    site_id=sliced.site_id,
                    page_path=sliced.page_path,
                    index=len(comments),
                    offset=start + frag_start,
                )
            )
    return comments, errors


def rules_for(pages: list[Page | PageFile], rules: dict[str, Rule]) -> list[Rule]:
    """Each page's rule, in page order; the first site without one raises EncodingFileError."""
    try:
        return [rules[page.site_id] for page in pages]
    except KeyError as missing:
        raise EncodingFileError(f"no slicing rule for site {clip(missing.args[0])}") from None


def slice_corpus(
    pages: list[Page | PageFile], rules: dict[str, Rule], workers: int = 1
) -> tuple[list[SlicedPage], list[SliceError]]:
    """Rough-slice every page, in the given order (a Corpus's is manifest order).

    Each page's bytes are read once, and its SlicedPage is built around
    them. With workers > 1 the pages are fanned out over worker processes
    that send back only each page's section spans and error kind, so the
    result is identical to a serial run. The pool never holds more
    processes than there are CPUs or pages, and with one process left the
    pages are sliced here.
    """
    page_rules = rules_for(pages, rules)
    data = [page.raw_bytes for page in pages]
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
    for page, raw, (spans, kind) in zip(pages, data, results):
        sliced.append(SlicedPage(page.site_id, page.page_path, raw, spans))
        if kind is not None:
            errors.append(SliceError(page.site_id, page.page_path, kind))
    return sliced, errors


def build_error_report(
    sliced_pages: list[SlicedPage],
    errors: list[SliceError],
    rules: dict[str, Rule],
) -> tuple[list[tuple[str, str, int]], list[tuple[str, str, str, str]], list[UniformSizeWarning]]:
    """The error report as (summary rows, detail rows, uniform-size warnings).

    Summary rows are (site_id, kind, count), only non-zero; detail rows are
    (site_id, page_path, kind, detail); both are sorted for stable output.
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
    counts = Counter((e.site_id, e.kind) for e in errors)
    summary = sorted((site, kind, n) for (site, kind), n in counts.items())
    details = sorted((e.site_id, e.page_path, e.kind, e.detail) for e in errors)
    return summary, details, warnings
