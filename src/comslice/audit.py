"""Decide whether a corpus needs comment slicing at all.

The audit samples a few pages per site, slices them, and measures how
much signal the comment sections carry: their share of site-to-site
links, their share of tokens, and how far they pull the corpus token
distribution. If any measure clears its threshold the corpus should be
sliced before analysis; otherwise comments are harmless noise.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import zip_longest
from typing import NamedTuple

from .corpus import Corpus, Page, PageFile, SiteIndex
from .encoding import Rule
from .errors import ComsliceError
from .linkgraph import countable, extract_all_links
from .slicer import SlicedPage, SliceError, Thresholds, precise_slice, rules_for, slice_corpus
# tokenize is unused here; perfbench's tracer patches comslice.audit.tokenize
from .textstats import corpus_token_counts, jsd, tokenize


class NoiseMeasurement(NamedTuple):
    """How much of the corpus signal lives inside comment sections."""

    link_noise: float
    token_noise: float
    text_divergence: float
    countable_links: int
    comment_links: int
    section_tokens: int
    main_tokens: int


class SiteDiagnostics(NamedTuple):
    """Per-site slicing footprint; comment counts only when the rule is precise."""

    site_id: str
    label: str
    pages: int
    sections: int
    comment_bytes: int
    total_bytes: int
    comments: int | None
    commenter_urls: int | None


class AuditResult(NamedTuple):
    sample_size: int
    measurement: NoiseMeasurement
    thresholds: Thresholds
    sites: tuple[SiteDiagnostics, ...]
    errors: tuple[SliceError, ...]

    @property
    def exceeded(self) -> tuple[str, ...]:
        """The metrics strictly above their thresholds, in field order; any one means slice."""
        return tuple(
            name
            for name in Thresholds._fields
            if getattr(self.measurement, name) > getattr(self.thresholds, name)
        )


def sample_corpus(pages: list[Page | PageFile], n: int, seed: int) -> list[Page | PageFile]:
    """Draw a reproducible sample of up to n pages, spread across sites.

    Each site's pages are shuffled with the seeded generator, then sites
    are visited round-robin (sorted by site_id) so no single large site
    dominates the sample. The same seed always returns the same pages in
    the same order.
    """
    rng = random.Random(seed)
    per_site: dict[str, list[Page | PageFile]] = {}
    for page in pages:
        per_site.setdefault(page.site_id, []).append(page)
    queues = []
    for site_id in sorted(per_site):
        queue = sorted(per_site[site_id], key=lambda p: p.page_path)
        rng.shuffle(queue)
        queues.append(queue)
    # each round takes every site's next page; zip_longest fills a finished site's place with None
    order = [page for round_ in zip_longest(*queues) for page in round_ if page is not None]
    return order[: max(n, 0)]


def measure_noise(
    sliced_pages: list[SlicedPage],
    index: SiteIndex,
    stopwords: frozenset[str] | None = None,
) -> NoiseMeasurement:
    """Measure the three noise metrics over already-sliced pages.

    ``index`` is ``Corpus.site_index``.
    """
    links = extract_all_links(sliced_pages, index)
    countable_links = countable(links)
    comment_links = sum(1 for l in countable_links if l.in_comment)
    main, comment = corpus_token_counts(sliced_pages, stopwords)
    main_tokens = sum(main.values())
    section_tokens = sum(comment.values())

    # without comment tokens the pages with and without comments are the same text
    return NoiseMeasurement(
        link_noise=comment_links / len(countable_links) if countable_links else 0.0,
        token_noise=section_tokens / (section_tokens + main_tokens) if comment else 0.0,
        text_divergence=jsd(main + comment, main) if comment else 0.0,
        countable_links=len(countable_links),
        comment_links=comment_links,
        section_tokens=section_tokens,
        main_tokens=main_tokens,
    )


def site_diagnostics(
    sliced_pages: list[SlicedPage], labels: dict[str, str], rules: dict[str, Rule]
) -> tuple[list[SiteDiagnostics], list[SliceError]]:
    """Summarize the slicing footprint per site, sorted by site_id.

    ``labels`` maps each site_id to its label (``Corpus.labels``). Also returns
    the errors of the precise extraction that counts the comments.
    """
    by_site: dict[str, list[SlicedPage]] = {}
    for page in sliced_pages:
        by_site.setdefault(page.site_id, []).append(page)
    out = []
    errors: list[SliceError] = []
    for site_id in sorted(by_site):
        pages = by_site[site_id]
        rule = rules[site_id]
        comments = None
        commenter_urls = None
        if rule.is_precise:
            comments = 0
            urls: set[str] = set()
            for page in pages:
                extracted, errs = precise_slice(page, rule)
                errors.extend(errs)
                comments += len(extracted)
                urls.update(c.author_url for c in extracted if c.author_url)
            commenter_urls = len(urls)
        out.append(
            SiteDiagnostics(
                site_id=site_id,
                label=labels[site_id],
                pages=len(pages),
                sections=sum(len(p.section_spans) for p in pages),
                comment_bytes=sum(e - s for p in pages for s, e in p.section_spans),
                total_bytes=sum(len(p.raw_bytes) for p in pages),
                comments=comments,
                commenter_urls=commenter_urls,
            )
        )
    return out, errors


def run_audit(
    corpus: Corpus,
    rules: dict[str, Rule],
    *,
    sample_n: int,
    seed: int,
    thresholds: Thresholds | None = None,
    stopwords: frozenset[str] | None = None,
    workers: int = 1,
) -> AuditResult:
    """Sample, slice (in ``workers`` processes, as ``slice_corpus``) and measure."""
    if sample_n < 1:
        raise ValueError(f"sample_n must be at least 1, got {sample_n}")
    rules_for(corpus.pages, rules)  # every page's site needs a rule, sampled or not
    sample = sample_corpus(corpus.pages, sample_n, seed)
    if not sample:
        raise ComsliceError("audit sample is empty: the corpus has no pages")
    sliced, errors = slice_corpus(sample, rules, workers=workers)
    measurement = measure_noise(sliced, corpus.site_index, stopwords)
    sites, extraction_errors = site_diagnostics(sliced, corpus.labels, rules)
    return AuditResult(
        sample_size=len(sample),
        measurement=measurement,
        thresholds=thresholds or Thresholds(),
        sites=tuple(sites),
        errors=(*errors, *extraction_errors),
    )


def format_report(result: AuditResult) -> str:
    """Human-readable audit summary (the content of audit.txt)."""
    m, t = result.measurement, result.thresholds
    lines = [
        f"pages sampled: {result.sample_size}",
        f"link_noise: {m.link_noise:.4f} (threshold {t.link_noise}) "
        f"[{m.comment_links}/{m.countable_links} site-to-site links in comments]",
        f"token_noise: {m.token_noise:.4f} (threshold {t.token_noise}) "
        f"[{m.section_tokens} comment tokens vs {m.main_tokens} main tokens]",
        f"text_divergence: {m.text_divergence:.4f} bits (threshold {t.text_divergence})",
        "",
    ]
    if result.exceeded:
        lines.append("decision: SLICE (exceeded: " + ", ".join(result.exceeded) + ")")
    else:
        lines.append("decision: KEEP AS-IS (no metric exceeded its threshold)")
    if result.errors:
        counts = Counter(e.kind for e in result.errors)
        summary = ", ".join(f"{kind}={n}" for kind, n in sorted(counts.items()))
        lines.append(f"slicing errors in sample: {summary}")
    lines.append("")
    lines.append("per-site footprint:")
    for site in result.sites:
        share = site.comment_bytes / site.total_bytes if site.total_bytes else 0.0
        extra = ""
        if site.comments is not None:
            extra = f", {site.comments} comments, {site.commenter_urls} commenter urls"
        lines.append(
            f"  {site.site_id} ({site.label}): {site.pages} pages, "
            f"{site.sections} sections, {share:.1%} of bytes in comments{extra}"
        )
    return "\n".join(lines) + "\n"
