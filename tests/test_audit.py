"""Sampling, noise measurement, and the slice/keep decision."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comslice.audit import (
    NoiseMeasurement,
    Thresholds,
    decide,
    format_report,
    measure_noise,
    run_audit,
    sample_corpus,
    site_diagnostics,
)
from comslice.errors import ComsliceError
from comslice.slicer import slice_corpus

from conftest import corpus_in_memory, fragment, make_precise_rule, make_rule, page_bytes

NO_STOPWORDS: frozenset[str] = frozenset()


def many_pages_corpus():
    pages = {("a", f"a/p{i:02}.html"): b"<p>alpha</p>" for i in range(10)}
    pages |= {("b", f"b/p{i:02}.html"): b"<p>beta</p>" for i in range(2)}
    return corpus_in_memory(
        sites={"a": ("blog", ["a.org"]), "b": ("press", ["b.org"])},
        pages=pages,
    )


def test_sample_is_deterministic_per_seed():
    corpus = many_pages_corpus()
    first = sample_corpus(corpus, 5, seed=7)
    second = sample_corpus(corpus, 5, seed=7)
    assert [p.page_path for p in first.pages] == [p.page_path for p in second.pages]
    other = sample_corpus(corpus, 5, seed=8)
    assert {p.page_path for p in other.pages} != set()  # valid sample either way


def test_sample_spreads_round_robin_across_sites():
    sample = sample_corpus(many_pages_corpus(), 6, seed=0)
    by_site = {"a": 0, "b": 0}
    for page in sample.pages:
        by_site[page.site_id] += 1
    assert by_site == {"a": 4, "b": 2}  # small site fully drained, big site fills up


def test_sample_caps_at_corpus_size():
    corpus = many_pages_corpus()
    sample = sample_corpus(corpus, 10_000, seed=0)
    assert len(sample.pages) == len(corpus.pages)
    assert sample.registry == corpus.registry


def noise_fixture():
    alpha_main = (
        b'<p>premier texte</p><a href="http://beta.example.org/x">lien</a>'
    )
    alpha_fragment = (
        fragment(text="vaccin vaccin") + b'<a href="http://beta.example.org/y">lien</a>'
    )
    corpus = corpus_in_memory(
        sites={
            "alpha": ("blog", ["alpha.example.org"]),
            "beta": ("press", ["beta.example.org"]),
        },
        pages={
            ("alpha", "a.html"): page_bytes(
                main_before=alpha_main, fragments=[alpha_fragment], main_after=b""
            )
        },
    )
    rules = {"alpha": make_rule(site_id="alpha"), "beta": make_rule(site_id="beta")}
    return corpus, rules


def test_measure_noise_counts_links_and_tokens():
    corpus, rules = noise_fixture()
    sliced, errors = slice_corpus(corpus, rules)
    assert errors == []
    m = measure_noise(sliced, corpus, stopwords=NO_STOPWORDS)
    assert m.countable_links == 2 and m.comment_links == 1
    assert m.link_noise == 0.5
    assert (m.section_tokens, m.main_tokens) == (3, 3)
    assert m.token_noise == 0.5
    assert 0.0 < m.text_divergence < 1.0


def test_measure_noise_fraction_is_exact():
    """29 main links plus 19 comment links toward one neighbour: noise = 19/48."""
    main_links = b'<a href="http://beta.example.org/m">x</a>' * 29
    comment_links = b'<a href="http://beta.example.org/c">x</a>' * 19
    corpus = corpus_in_memory(
        sites={
            "alpha": ("blog", ["alpha.example.org"]),
            "beta": ("press", ["beta.example.org"]),
        },
        pages={
            ("alpha", "a.html"): page_bytes(
                main_before=main_links,
                fragments=[fragment(text="spam") + comment_links],
                main_after=b"",
            )
        },
    )
    rules = {"alpha": make_rule(site_id="alpha"), "beta": make_rule(site_id="beta")}
    sliced, errors = slice_corpus(corpus, rules)
    assert errors == []
    m = measure_noise(sliced, corpus, stopwords=NO_STOPWORDS)
    assert (m.comment_links, m.countable_links) == (19, 48)
    assert m.link_noise == 19 / 48
    verdict = decide(m, Thresholds())
    assert verdict.should_slice and "link_noise" in verdict.exceeded


def test_measure_noise_on_empty_pages_is_all_zero():
    corpus = corpus_in_memory(
        sites={"a": ("blog", ["a.org"])}, pages={("a", "p.html"): b""}
    )
    rules = {"a": make_rule(site_id="a", has_comments=False, open_pattern=None, close_pattern=None)}
    sliced, _ = slice_corpus(corpus, rules)
    m = measure_noise(sliced, corpus, stopwords=NO_STOPWORDS)
    assert (m.link_noise, m.token_noise, m.text_divergence) == (0.0, 0.0, 0.0)


def measurement(link=0.0, token=0.0, divergence=0.0) -> NoiseMeasurement:
    return NoiseMeasurement(
        link_noise=link,
        token_noise=token,
        text_divergence=divergence,
        countable_links=0,
        comment_links=0,
        section_tokens=0,
        main_tokens=0,
    )


def test_decide_requires_strict_excess():
    t = Thresholds(link=0.05, token=0.05, divergence=0.05)
    assert decide(measurement(link=0.05), t).should_slice is False  # equality is fine
    assert decide(measurement(link=0.050001), t).should_slice is True
    verdict = decide(measurement(token=0.2, divergence=0.2), t)
    assert verdict.should_slice and verdict.exceeded == ("token_noise", "text_divergence")


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(unit, unit, unit, unit, unit, unit, unit, unit, unit)
def test_decide_is_monotone_in_thresholds(l, t, d, l1, t1, d1, dl, dt, dd):
    m = measurement(link=l, token=t, divergence=d)
    low = Thresholds(link=l1, token=t1, divergence=d1)
    high = Thresholds(link=l1 + dl, token=t1 + dt, divergence=d1 + dd)
    if not decide(m, low).should_slice:
        assert not decide(m, high).should_slice


def test_run_audit_end_to_end(two_site_corpus):
    rules = {
        "alpha": make_precise_rule(site_id="alpha"),
        "beta": make_precise_rule(site_id="beta", label="press"),
    }
    result = run_audit(two_site_corpus, rules, sample_n=100, seed=3)
    assert result.sample_size == 2
    assert result.errors == ()
    assert result.decision.should_slice  # half the internal links sit in comments
    assert "link_noise" in result.decision.exceeded

    diag = {d.site_id: d for d in result.sites}
    assert diag["alpha"].pages == 1 and diag["alpha"].sections == 1
    assert diag["alpha"].comments == 1 and diag["alpha"].commenter_urls == 0
    assert diag["beta"].label == "press"
    assert 0 < diag["alpha"].comment_bytes < diag["alpha"].total_bytes

    report = format_report(result)
    assert "decision: SLICE" in report
    assert "link_noise" in report and "token_noise" in report and "text_divergence" in report
    assert "alpha (blog)" in report


def test_run_audit_without_pages_is_fatal():
    corpus = corpus_in_memory(sites={"a": ("blog", ["a.org"])}, pages={})
    with pytest.raises(ComsliceError, match="no pages"):
        run_audit(corpus, {"a": make_rule(site_id="a")}, sample_n=5, seed=0)


def test_site_diagnostics_rough_rule_has_no_comment_counts(two_site_corpus):
    rules = {"alpha": make_rule(site_id="alpha"), "beta": make_rule(site_id="beta")}
    sliced, _ = slice_corpus(two_site_corpus, rules)
    diag = {d.site_id: d for d in site_diagnostics(sliced, two_site_corpus, rules)}
    assert diag["alpha"].comments is None
    assert diag["alpha"].commenter_urls is None
    assert diag["alpha"].sections == 1


def test_format_report_keep_branch():
    from comslice.audit import AuditResult

    m = measurement(link=0.01)
    result = AuditResult(
        sample_size=3,
        measurement=m,
        thresholds=Thresholds(),
        decision=decide(m, Thresholds()),
        sites=(),
        errors=(),
    )
    report = format_report(result)
    assert "decision: KEEP AS-IS" in report
    assert "pages sampled: 3" in report


def _reference_sample(corpus, n, seed):
    """The documented sampling, written with deques: seeded per-site shuffle, then round-robin."""
    rng = random.Random(seed)
    queues = []
    for site_id in sorted({p.site_id for p in corpus.pages}):
        pages = sorted((p for p in corpus.pages if p.site_id == site_id), key=lambda p: p.page_path)
        rng.shuffle(pages)
        queues.append(deque(pages))
    picked = []
    while len(picked) < min(n, len(corpus.pages)):
        for queue in queues:
            if queue and len(picked) < n:
                picked.append(queue.popleft())
    return picked


@pytest.mark.parametrize("n", [1, 3, 5, 11, 12, 50])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sample_order_matches_reference(n, seed):
    corpus = many_pages_corpus()
    assert sample_corpus(corpus, n, seed).pages == _reference_sample(corpus, n, seed)
