"""Sampling, noise measurement, and the slice/keep decision."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comslice.audit import (
    AuditResult,
    NoiseMeasurement,
    Thresholds,
    format_report,
    measure_noise,
    run_audit,
    sample_corpus,
    site_diagnostics,
)
from comslice.cli import run
from comslice.corpus import Corpus
from comslice.errors import ComsliceError
from comslice.slicer import slice_corpus

from conftest import (
    corpus_in_memory,
    fragment,
    make_precise_rule,
    make_rule,
    page_bytes,
    write_corpus,
    write_encoding_file,
)

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
    first = sample_corpus(corpus.pages, 5, seed=7)
    second = sample_corpus(corpus.pages, 5, seed=7)
    assert [p.page_path for p in first] == [p.page_path for p in second]
    other = sample_corpus(corpus.pages, 5, seed=8)
    assert {p.page_path for p in other} != set()  # valid sample either way


def test_sample_spreads_round_robin_across_sites():
    sample = sample_corpus(many_pages_corpus().pages, 6, seed=0)
    by_site = {"a": 0, "b": 0}
    for page in sample:
        by_site[page.site_id] += 1
    assert by_site == {"a": 4, "b": 2}  # small site fully drained, big site fills up


def test_sample_caps_at_corpus_size():
    corpus = many_pages_corpus()
    sample = sample_corpus(corpus.pages, 10_000, seed=0)
    assert sorted(sample, key=lambda p: p.page_path) == corpus.pages


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
    sliced, errors = slice_corpus(corpus.pages, rules)
    assert errors == []
    m = measure_noise(sliced, corpus.site_index, stopwords=NO_STOPWORDS)
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
    sliced, errors = slice_corpus(corpus.pages, rules)
    assert errors == []
    m = measure_noise(sliced, corpus.site_index, stopwords=NO_STOPWORDS)
    assert (m.comment_links, m.countable_links) == (19, 48)
    assert m.link_noise == 19 / 48
    assert "link_noise" in exceeded(m)


def test_measure_noise_on_empty_pages_is_all_zero():
    corpus = corpus_in_memory(
        sites={"a": ("blog", ["a.org"])}, pages={("a", "p.html"): b""}
    )
    rules = {"a": make_rule(site_id="a", has_comments=False, open_pattern=None, close_pattern=None)}
    sliced, _ = slice_corpus(corpus.pages, rules)
    m = measure_noise(sliced, corpus.site_index, stopwords=NO_STOPWORDS)
    assert (m.link_noise, m.token_noise, m.text_divergence) == (0.0, 0.0, 0.0)


def test_section_inside_script_is_no_token_noise():
    raw = page_bytes(
        main_before=b"<p>article</p><script>", fragments=[b"<p>cache</p>"], main_after=b"</script>"
    )
    corpus = corpus_in_memory(sites={"a": ("blog", ["a.org"])}, pages={("a", "p.html"): raw})
    sliced, errors = slice_corpus(corpus.pages, {"a": make_rule(site_id="a")})
    assert errors == [] and sliced[0].section_spans
    m = measure_noise(sliced, corpus.site_index, stopwords=NO_STOPWORDS)
    assert (m.section_tokens, m.main_tokens) == (0, 1)
    assert (m.token_noise, m.text_divergence) == (0.0, 0.0)


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


def exceeded(m: NoiseMeasurement, thresholds: Thresholds = Thresholds()) -> tuple[str, ...]:
    return AuditResult(
        sample_size=1, measurement=m, thresholds=thresholds, sites=(), errors=()
    ).exceeded


def test_exceeded_requires_strict_excess():
    t = Thresholds(link_noise=0.05, token_noise=0.05, text_divergence=0.05)
    assert exceeded(measurement(link=0.05), t) == ()  # equality is fine
    assert exceeded(measurement(link=0.050001), t) == ("link_noise",)
    assert exceeded(measurement(token=0.2, divergence=0.2), t) == ("token_noise", "text_divergence")


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(unit, unit, unit, unit, unit, unit, unit, unit, unit)
def test_exceeded_is_monotone_in_thresholds(l, t, d, l1, t1, d1, dl, dt, dd):
    m = measurement(link=l, token=t, divergence=d)
    low = Thresholds(link_noise=l1, token_noise=t1, text_divergence=d1)
    high = Thresholds(link_noise=l1 + dl, token_noise=t1 + dt, text_divergence=d1 + dd)
    if not exceeded(m, low):
        assert not exceeded(m, high)


def test_run_audit_end_to_end(two_site_corpus):
    rules = {
        "alpha": make_precise_rule(site_id="alpha"),
        "beta": make_precise_rule(site_id="beta", label="press"),
    }
    result = run_audit(two_site_corpus, rules, sample_n=100, seed=3)
    assert result.sample_size == 2
    assert result.errors == ()
    assert "link_noise" in result.exceeded  # half the internal links sit in comments

    diag = {d.site_id: d for d in result.sites}
    assert diag["alpha"].pages == 1 and diag["alpha"].sections == 1
    assert diag["alpha"].comments == 1 and diag["alpha"].commenter_urls == 0
    assert diag["beta"].label == "press"
    assert 0 < diag["alpha"].comment_bytes < diag["alpha"].total_bytes

    report = format_report(result)
    assert "decision: SLICE" in report
    assert "link_noise" in report and "token_noise" in report and "text_divergence" in report
    assert "alpha (blog)" in report


def test_audit_reports_the_extraction_failures_of_its_sample():
    # the second page's section is longer than empty_size but holds no comment marker
    corpus = corpus_in_memory(
        sites={"alpha": ("blog", ["alpha.org"])},
        pages={
            ("alpha", "alpha/ok.html"): page_bytes(fragments=[fragment(text="bien")]),
            ("alpha", "alpha/bad.html"): page_bytes(fragments=[b"<p>sans marqueur</p>"]),
        },
    )
    result = run_audit(corpus, {"alpha": make_precise_rule(site_id="alpha")}, sample_n=100, seed=0)
    assert [(e.page_path, e.kind) for e in result.errors] == [("alpha/bad.html", "extraction_failure")]
    assert "slicing errors in sample: extraction_failure=1\n" in format_report(result)
    assert result.sites[0].comments == 1


def test_run_audit_without_pages_is_fatal(tmp_path, capsys):
    corpus = corpus_in_memory(sites={"a": ("blog", ["a.org"])}, pages={})
    with pytest.raises(ComsliceError, match="no pages"):
        run_audit(corpus, {"a": make_rule(site_id="a")}, sample_n=5, seed=0)
    # the same corpus on disk: a manifest with a site and no pages
    root, manifest = write_corpus(tmp_path, sites={"a": ("blog", ["a.org"])}, pages={})
    write_encoding_file({"a": make_rule(site_id="a")}, tmp_path / "rules.csv")
    options = ["--corpus", root, "--manifest", manifest, "--encoding", tmp_path / "rules.csv"]
    assert run(["audit", *map(str, options), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: audit sample is empty: the corpus has no pages\n"


@pytest.mark.parametrize("sample_n", [0, -3])
def test_run_audit_rejects_a_sample_of_no_pages(two_site_corpus, sample_n):
    rules = {"alpha": make_rule(site_id="alpha"), "beta": make_rule(site_id="beta")}
    with pytest.raises(ValueError, match=f"^sample_n must be at least 1, got {sample_n}$"):
        run_audit(two_site_corpus, rules, sample_n=sample_n, seed=0)


def test_run_audit_builds_no_second_corpus(two_site_corpus, monkeypatch):
    built = []
    init = Corpus.__init__
    monkeypatch.setattr(Corpus, "__init__", lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
    rules = {"alpha": make_rule(site_id="alpha"), "beta": make_rule(site_id="beta")}
    run_audit(two_site_corpus, rules, sample_n=100, seed=0)
    assert built == []


def test_site_diagnostics_rough_rule_has_no_comment_counts(two_site_corpus):
    rules = {"alpha": make_rule(site_id="alpha"), "beta": make_rule(site_id="beta")}
    sliced, _ = slice_corpus(two_site_corpus.pages, rules)
    diags, errors = site_diagnostics(sliced, two_site_corpus.labels, rules)
    assert errors == []
    diag = {d.site_id: d for d in diags}
    assert diag["alpha"].comments is None
    assert diag["alpha"].commenter_urls is None
    assert diag["alpha"].sections == 1


def test_format_report_keep_branch():
    result = AuditResult(
        sample_size=3, measurement=measurement(link=0.01), thresholds=Thresholds(), sites=(), errors=()
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


@pytest.mark.parametrize("n", [-1, 0, 1, 3, 5, 11, 12, 50])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sample_order_matches_reference(n, seed):
    corpus = many_pages_corpus()
    assert sample_corpus(corpus.pages, n, seed) == _reference_sample(corpus, n, seed)
