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
from dataclasses import dataclass

from .corpus import Corpus, Page
from .encoding import Rule
from .errors import ComsliceError
from .linkgraph import extract_all_links
from .slicer import SlicedPage, SliceError, precise_slice, slice_corpus
# tokenize is unused here; perfbench's tracer patches comslice.audit.tokenize
from .textstats import corpus_token_counts, jsd, tokenize


@dataclass(frozen=True)
class Thresholds:
    """Per-metric cutoffs; a metric must strictly exceed its cutoff to matter."""

    link: float = 0.05
    token: float = 0.05
    divergence: float = 0.05


@dataclass(frozen=True)
class NoiseMeasurement:
    """How much of the corpus signal lives inside comment sections."""

    link_noise: float
    token_noise: float
    text_divergence: float
    countable_links: int
    comment_links: int
    section_tokens: int
    main_tokens: int


@dataclass(frozen=True)
class SiteDiagnostics:
    """Per-site slicing footprint; comment counts only when the rule is precise."""

    site_id: str
    label: str
    pages: int
    sections: int
    comment_bytes: int
    total_bytes: int
    comments: int | None
    commenter_urls: int | None


@dataclass(frozen=True)
class Decision:
    should_slice: bool
    exceeded: tuple[str, ...]


@dataclass(frozen=True)
class AuditResult:
    sample_size: int
    measurement: NoiseMeasurement
    thresholds: Thresholds
    decision: Decision
    sites: tuple[SiteDiagnostics, ...]
    errors: tuple[SliceError, ...]


def sample_corpus(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Draw a reproducible sample of up to n pages, spread across sites.

    Each site's pages are shuffled with the seeded generator, then sites
    are visited round-robin (sorted by site_id) so no single large site
    dominates the sample. The same seed always returns the same pages in
    the same order.
    """
    rng = random.Random(seed)
    per_site: dict[str, list[Page]] = {}
    for page in corpus.pages:
        per_site.setdefault(page.site_id, []).append(page)
    queues = []
    for site_id in sorted(per_site):
        pages = sorted(per_site[site_id], key=lambda p: p.page_path)
        rng.shuffle(pages)
        queues.append(pages)
    target = min(n, len(corpus.pages))
    picked: list[Page] = []
    depth = 0
    while len(picked) < target:
        for queue in queues:
            if depth < len(queue) and len(picked) < target:
                picked.append(queue[depth])
        depth += 1
    return Corpus(registry=list(corpus.registry), pages=picked)


def measure_noise(
    sliced_pages: list[SlicedPage],
    corpus: Corpus,
    stopwords: frozenset[str] | None = None,
) -> NoiseMeasurement:
    """Measure the three noise metrics over already-sliced pages."""
    links = extract_all_links(sliced_pages, corpus.registry)
    countable = [l for l in links if not l.is_self]
    comment_links = sum(1 for l in countable if l.in_comment)
    main, comment = corpus_token_counts(sliced_pages, stopwords)
    main_tokens = sum(main.values())
    section_tokens = sum(comment.values())

    # without comment tokens the pages with and without comments are the same text
    return NoiseMeasurement(
        link_noise=comment_links / len(countable) if countable else 0.0,
        token_noise=section_tokens / (section_tokens + main_tokens) if comment else 0.0,
        text_divergence=jsd(main + comment, main) if comment else 0.0,
        countable_links=len(countable),
        comment_links=comment_links,
        section_tokens=section_tokens,
        main_tokens=main_tokens,
    )


def site_diagnostics(
    sliced_pages: list[SlicedPage], corpus: Corpus, rules: dict[str, Rule]
) -> list[SiteDiagnostics]:
    """Summarize the slicing footprint per site, sorted by site_id."""
    by_site: dict[str, list[SlicedPage]] = {}
    for page in sliced_pages:
        by_site.setdefault(page.site_id, []).append(page)
    out = []
    for site_id in sorted(by_site):
        pages = by_site[site_id]
        rule = rules[site_id]
        comments = None
        commenter_urls = None
        if rule.is_precise:
            comments = 0
            urls: set[str] = set()
            for page in pages:
                extracted, _ = precise_slice(page, rule)
                comments += len(extracted)
                urls.update(c.author_url for c in extracted if c.author_url)
            commenter_urls = len(urls)
        out.append(
            SiteDiagnostics(
                site_id=site_id,
                label=corpus.labels[site_id],
                pages=len(pages),
                sections=sum(len(p.section_spans) for p in pages),
                comment_bytes=sum(e - s for p in pages for s, e in p.section_spans),
                total_bytes=sum(len(p.raw_bytes) for p in pages),
                comments=comments,
                commenter_urls=commenter_urls,
            )
        )
    return out


def decide(measurement: NoiseMeasurement, thresholds: Thresholds) -> Decision:
    """Slice when any metric strictly exceeds its threshold."""
    exceeded = []
    if measurement.link_noise > thresholds.link:
        exceeded.append("link_noise")
    if measurement.token_noise > thresholds.token:
        exceeded.append("token_noise")
    if measurement.text_divergence > thresholds.divergence:
        exceeded.append("text_divergence")
    return Decision(should_slice=bool(exceeded), exceeded=tuple(exceeded))


def run_audit(
    corpus: Corpus,
    rules: dict[str, Rule],
    *,
    sample_n: int,
    seed: int,
    thresholds: Thresholds | None = None,
    stopwords: frozenset[str] | None = None,
) -> AuditResult:
    """Sample, slice, measure and decide in one pass."""
    thresholds = thresholds or Thresholds()
    sample = sample_corpus(corpus, sample_n, seed)
    if not sample.pages:
        raise ComsliceError("audit sample is empty: the corpus has no pages")
    sliced, errors = slice_corpus(sample, rules)
    measurement = measure_noise(sliced, sample, stopwords)
    return AuditResult(
        sample_size=len(sample.pages),
        measurement=measurement,
        thresholds=thresholds,
        decision=decide(measurement, thresholds),
        sites=tuple(site_diagnostics(sliced, sample, rules)),
        errors=tuple(errors),
    )


def format_report(result: AuditResult) -> str:
    """Human-readable audit summary (the content of audit.txt)."""
    m, t = result.measurement, result.thresholds
    lines = [
        f"pages sampled: {result.sample_size}",
        f"link_noise: {m.link_noise:.4f} (threshold {t.link}) "
        f"[{m.comment_links}/{m.countable_links} site-to-site links in comments]",
        f"token_noise: {m.token_noise:.4f} (threshold {t.token}) "
        f"[{m.section_tokens} comment tokens vs {m.main_tokens} main tokens]",
        f"text_divergence: {m.text_divergence:.4f} bits (threshold {t.divergence})",
        "",
    ]
    if result.decision.should_slice:
        lines.append(
            "decision: SLICE (exceeded: " + ", ".join(result.decision.exceeded) + ")"
        )
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
