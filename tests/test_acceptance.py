"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the status lines.
Each criterion states its tolerance inline; timings use wall-clock bounds
generous enough for slow CI machines but tight enough to catch quadratic
regressions.
"""

from __future__ import annotations

import csv
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from comslice.audit import run_audit
from comslice.cli import run
from comslice.corpus import load_corpus
from comslice.encoding import Pattern
from comslice.linkgraph import (
    Link,
    components,
    crosstab,
    extract_all_links,
    mutual_link_graph,
)
from comslice.slicer import (
    MISSING_CLOSURE,
    MISSING_OPENING,
    MULTIPLE_OPENINGS,
    build_error_report,
    precise_slice,
    slice_corpus,
)
from comslice.textstats import corpus_token_counts, top_k

from conftest import (
    CLOSE,
    COMMENT_SEP,
    EMPTY_SIZE,
    OPEN,
    assert_partition,
    corpus_in_memory,
    fragment,
    make_precise_rule,
    make_rule,
    page_bytes,
    reassembled,
    slice_page,
    write_corpus,
    write_encoding_file,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def synthetic_link(src: str, dst: str, in_comment: bool) -> Link:
    return Link(
        src_site_id=src,
        page_path="p.html",
        offset=0,
        href="x",
        dst_site_id=dst,
        in_comment=in_comment,
    )


def test_criterion_1_crosstab_reproduces_reference_proportions(tmp_path):
    with criterion(1, "16-pair reference table: crosstab counts and proportions match exactly"):
        started = time.perf_counter()
        with open(DATA / "crosstab_reference.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == 16
        want_counts = {
            (r["src_label"], r["dst_label"]): (int(r["outside"]), int(r["inside"]))
            for r in table
        }
        want_column = [r["expected_proportion"] for r in table]

        # Two sites per label so same-label pairs are not self-links.
        labels = {}
        for row in table:
            for label in (row["src_label"], row["dst_label"]):
                labels[f"{label.lower()}-1"] = label
                labels[f"{label.lower()}-2"] = label
        links = []
        for row in table:
            src = f"{row['src_label'].lower()}-1"
            dst = f"{row['dst_label'].lower()}-2"
            links += [synthetic_link(src, dst, False)] * int(row["outside"])
            links += [synthetic_link(src, dst, True)] * int(row["inside"])

        rows = crosstab(links, labels)
        assert len(rows) == 16
        got_counts = {(r.src_label, r.dst_label): (r.outside, r.inside) for r in rows}
        assert got_counts == want_counts
        got_column = [f"{r.proportion:.2f}" for r in rows]
        assert got_column == want_column  # exact 2-decimal match, all 16 rows in order

        # Same table end to end: render the counts as an HTML corpus on disk,
        # run the crosstab subcommand, and compare its CSV output.
        pages = {}
        for k, row in enumerate(table):
            src = f"{row['src_label'].lower()}-1"
            dst = f"{row['dst_label'].lower()}-2"
            anchor = f'<a href="http://{dst}.example.org/">lien</a>'.encode()
            pages[(src, f"{src}/r{k}.html")] = page_bytes(
                main_before=b"<body>" + anchor * int(row["outside"]),
                fragments=[fragment(text="bruit") + anchor * int(row["inside"])],
            )
        root, manifest = write_corpus(
            tmp_path,
            sites={s: (label, [f"{s}.example.org"]) for s, label in labels.items()},
            pages=pages,
        )
        encoding = tmp_path / "encoding.csv"
        write_encoding_file({s: make_rule(site_id=s, label=l) for s, l in labels.items()}, encoding)
        out = tmp_path / "out"
        args = ["--corpus", str(root), "--manifest", str(manifest)]
        args += ["--encoding", str(encoding), "--out", str(out)]
        assert run(["crosstab"] + args) == 0
        with open(out / "crosstab.csv", newline="", encoding="utf-8") as fh:
            cli_rows = list(csv.DictReader(fh))
        cli_counts = {
            (r["src_label"], r["dst_label"]): (int(r["outside"]), int(r["inside"]))
            for r in cli_rows
        }
        assert cli_counts == want_counts
        assert [r["proportion"] for r in cli_rows] == want_column
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def random_ascii(rng: random.Random, lo: int, hi: int) -> bytes:
    return bytes(rng.randrange(32, 127) for _ in range(rng.randint(lo, hi)))


def test_criterion_2_partition_property_on_generated_pages():
    with criterion(2, "1,200 generated pages all strip and reassemble byte-exactly"):
        started = time.perf_counter()
        rng = random.Random(20_240_817)
        checked = 0
        for i in range(1_200):
            open_marker = b"<" + random_ascii(rng, 3, 10).replace(b">", b"-") + b">"
            close_marker = b"</" + random_ascii(rng, 3, 10).replace(b">", b"-") + b">"
            if close_marker in open_marker or open_marker in close_marker:
                close_marker += b"!"
            rule = make_rule(
                open_pattern=Pattern("literal", open_marker.decode()),
                close_pattern=Pattern("literal", close_marker.decode()),
            )
            kind = i % 4
            if kind == 0:  # no section at all
                raw = random_ascii(rng, 0, 400)
            elif kind == 1:  # one section
                raw = (
                    random_ascii(rng, 0, 200)
                    + open_marker + random_ascii(rng, 0, 150) + close_marker
                    + random_ascii(rng, 0, 200)
                )
            elif kind == 2:  # several sections
                raw = random_ascii(rng, 0, 80)
                for _ in range(rng.randint(2, 4)):
                    raw += open_marker + random_ascii(rng, 0, 60) + close_marker
                    raw += random_ascii(rng, 0, 80)
            else:  # opening that never closes
                raw = random_ascii(rng, 0, 200) + open_marker + random_ascii(rng, 0, 150)
                raw = raw.replace(close_marker, b"")
            sliced, _ = slice_page(raw, rule, f"p{i}.html")
            assert_partition(sliced)
            assert reassembled(sliced) == raw
            checked += 1
        assert checked >= 1_000
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def _single_site_report(pages: dict[str, bytes], rule=None):
    rule = rule or make_rule()
    corpus = corpus_in_memory(
        sites={"s1": ("blog", ["s1.org"])}, pages={("s1", p): b for p, b in pages.items()}
    )
    sliced, errors = slice_corpus(corpus.pages, {"s1": rule})
    return build_error_report(sliced, errors, {"s1": rule})


def test_criterion_3_error_report_classes():
    with criterion(3, "error classes fire exactly once each; uniform-size warning on/off"):
        clean = _single_site_report({"ok.html": page_bytes(fragments=[fragment(text="bien")])})
        assert clean == ([], [], [])

        no_open = _single_site_report({"p.html": page_bytes(fragments=None)})
        assert [(kind, page) for _, page, kind, _ in no_open[1]] == [(MISSING_OPENING, "p.html")]

        no_close = _single_site_report({"p.html": b"text" + OPEN + b"dangling tail"})
        assert [(kind, page) for _, page, kind, _ in no_close[1]] == [(MISSING_CLOSURE, "p.html")]

        multi = _single_site_report(
            {"p.html": OPEN + b"a" + CLOSE + b"mid" + OPEN + b"b" + CLOSE}
        )
        assert [(kind, page) for _, page, kind, _ in multi[1]] == [(MULTIPLE_OPENINGS, "p.html")]

        same = [fragment(text="toujours pareil")]
        uniform = _single_site_report(
            {f"p{i}.html": page_bytes(main_before=b"intro %d" % i, fragments=same) for i in range(5)}
        )
        assert [w.sections for w in uniform[2]] == [5]

        varied = _single_site_report(
            {f"p{i}.html": page_bytes(fragments=[fragment(text="x" * (i + 1))]) for i in range(5)}
        )
        assert varied[2] == []


def test_criterion_4_comment_links_bridge_components():
    with criterion(4, "comment-only bridge merges components; dropping comments is monotone"):
        labels = {s: "core" if s in "ab" else "fringe" for s in "abcd"}
        links = [
            synthetic_link("a", "b", False),
            synthetic_link("b", "a", False),
            synthetic_link("c", "d", False),
            synthetic_link("d", "c", False),
            synthetic_link("b", "c", True),  # the only bridge, comment-located
            synthetic_link("c", "b", True),
        ]
        merged = components(mutual_link_graph(links, labels, include_comments=True))
        split = components(mutual_link_graph(links, labels, include_comments=False))
        assert len(merged) == 1
        assert len(split) >= 2
        assert ["a", "b"] in split and ["c", "d"] in split

        rng = random.Random(41)
        site_ids = [*labels, "e", "f"]
        all_labels = dict.fromkeys(site_ids, "")
        for _ in range(120):
            sample = [
                synthetic_link(rng.choice(site_ids), rng.choice(site_ids), rng.random() < 0.5)
                for _ in range(rng.randint(0, 30))
            ]
            with_graph = mutual_link_graph(sample, all_labels, include_comments=True)
            without_graph = mutual_link_graph(sample, all_labels, include_comments=False)
            assert without_graph.edges <= with_graph.edges
            assert len(components(without_graph)) >= len(components(with_graph))


def test_criterion_5_spam_tokens_confined_to_comments():
    with criterion(5, "injected comment spam leaves the top-20 once sections are stripped"):
        rng = random.Random(5)
        letters = "abcdefghijklmnopqrstuvwxyz"
        spam = [f"zspam{letters[i]}" for i in range(12)]
        vocabulary = [f"mot{a}{b}" for a in letters[:6] for b in letters[:5]]
        pages = {}
        for i in range(25):
            main_words = " ".join(rng.choices(vocabulary, k=60))
            spam_words = " ".join(rng.choices(spam, k=40))
            pages[("s1", f"p{i}.html")] = page_bytes(
                main_before=f"<body><p>{main_words}</p>".encode(),
                fragments=[fragment(text=spam_words)],
            )
        corpus = corpus_in_memory(sites={"s1": ("blog", ["s1.org"])}, pages=pages)
        sliced, errors = slice_corpus(corpus.pages, {"s1": make_rule()})
        assert errors == []

        without, comment = corpus_token_counts(sliced)
        with_comments = without + comment
        top_with = {token for token, _ in top_k(with_comments, 20)}
        top_without = {token for token, _ in top_k(without, 20)}

        injected_in_top = {t for t in spam if t in top_with}
        assert len(injected_in_top) >= 10
        assert injected_in_top & top_without == set()

        # counts of main-content tokens are bit-identical with and without comments
        assert all(token not in spam for token in without)
        assert {t: c for t, c in with_comments.items() if t not in spam} == dict(without)
        assert corpus_token_counts(sliced) == (without, comment)


def reference_split(section: bytes, empty_size: int | None) -> list[tuple[int, int]]:
    """Brute-force splitter: scan every offset for the comment marker."""
    if empty_size is not None and len(section) == empty_size:
        return []
    starts = [
        i for i in range(len(section)) if section[i:i + len(COMMENT_SEP)] == COMMENT_SEP
    ]
    bounds = starts + [len(section)]
    return list(zip(starts, bounds[1:]))


def _until(data: bytes, marker: bytes, stop: bytes) -> str | None:
    """Scan-based field read: text after marker, up to the stop byte."""
    at = data.find(marker)
    if at == -1:
        return None
    tail = data[at + len(marker):]
    end = tail.find(stop)
    value = (tail if end == -1 else tail[:end]).strip()
    return value.decode("utf-8", errors="replace") if value else None


def reference_fields(frag: bytes, bare: bool) -> dict:
    if bare:
        return {"author": None, "date": None, "depth": None, "author_url": None, "text": None}
    depth_raw = _until(frag, b'class="depth-', b'"')
    digits = ""
    for ch in depth_raw or "":
        if ch.isdigit():
            digits += ch
        else:
            break
    return {
        "author": _until(frag, b'<span class="author">', b"<"),
        "date": _until(frag, b'<span class="date">', b"<"),
        "depth": int(digits) if digits else None,
        "author_url": _until(frag, b'<a class="url" href="', b'"'),
        "text": _until(frag, b"<p>", b"<"),
    }


def test_criterion_6_precise_slicing_matches_brute_force_reference():
    with criterion(6, "37 handcrafted sections: fields match an independent reference"):
        cases = []  # (section bytes, rule, bare)
        full_rule = make_precise_rule()
        for mask in range(32):
            frag = fragment(
                author=f"aut{mask}" if mask & 1 else None,
                date=f"2021-01-{mask:02d}" if mask & 2 else None,
                depth=mask if mask & 4 else None,
                url=f"http://u.example/{mask}" if mask & 8 else None,
                text=f"texte numero {mask}" if mask & 16 else None,
            )
            cases.append((OPEN + frag + CLOSE, full_rule, False))
        cases.append((OPEN + CLOSE, full_rule, False))  # empty by size
        cases.append((OPEN + fragment(text="") + CLOSE, full_rule, False))  # empty text
        bare_rule = make_precise_rule(
            author_pattern=None,
            date_pattern=None,
            depth_pattern=None,
            author_url_pattern=None,
            text_pattern=None,
        )
        for k in range(3):  # every metadata pattern coded absent
            frags = [fragment(author=f"ignored{k}", text="ignored")] * (k + 1)
            cases.append((OPEN + b"".join(frags) + CLOSE, bare_rule, True))
        assert len(cases) >= 20

        for page_index, (section, rule, bare) in enumerate(cases):
            raw = b"<body>" + section + b"</body>"
            sliced, slice_errors = slice_page(raw, rule, f"c{page_index}.html")
            assert slice_errors == []
            comments, errors = precise_slice(sliced, rule)
            assert errors == []

            expected_spans = reference_split(section, rule.empty_size)
            assert len(comments) == len(expected_spans)
            section_start = sliced.section_spans[0][0]
            for comment, (ref_start, ref_end) in zip(comments, expected_spans):
                assert comment.span_start == section_start + ref_start
                assert comment.span_end == section_start + ref_end
                want = reference_fields(section[ref_start:ref_end], bare)
                got = {
                    "author": comment.author,
                    "date": comment.date,
                    "depth": comment.depth,
                    "author_url": comment.author_url,
                    "text": comment.text,
                }
                assert got == want


def random_noise_corpus(rng: random.Random):
    site_ids = [f"s{k}" for k in range(4)]
    sites = {sid: (f"L{k % 2}", [f"{sid}.example.org"]) for k, sid in enumerate(site_ids)}

    def anchor(rng) -> bytes:
        roll = rng.random()
        if roll < 0.70:
            target = rng.choice(site_ids)
        elif roll < 0.85:
            return b'<a href="http://outside.net/x">ext</a>'
        else:
            return b'<a href="mailto:x@y">m</a>'
        return f'<a href="http://{target}.example.org/p{rng.randint(0, 9)}">l</a>'.encode()

    pages = {}
    for k, sid in enumerate(site_ids):
        for j in range(rng.randint(2, 4)):
            main = b"<body><p>texte principal</p>"
            if k == 0 and j == 0:  # guarantee one countable link per fixture
                main += b'<a href="http://s1.example.org/p0">sur</a>'
            for _ in range(rng.randint(0, 5)):
                main += anchor(rng)
            if rng.random() < 0.8:
                frag = fragment(text="remarque")
                for _ in range(rng.randint(0, 4)):
                    frag += anchor(rng)
                body = page_bytes(main_before=main, fragments=[frag])
            else:
                body = page_bytes(main_before=main, fragments=None)
            pages[(sid, f"{sid}/p{j}.html")] = body
    return corpus_in_memory(sites=sites, pages=pages)


def test_criterion_7_audit_link_noise_matches_crosstab():
    with criterion(7, "audit link_noise equals the crosstab ratio within 1e-12, 10 fixtures"):
        rng = random.Random(77)
        for trial in range(10):
            corpus = random_noise_corpus(rng)
            rules = {site.site_id: make_rule(site_id=site.site_id) for site in corpus.registry}
            result = run_audit(corpus, rules, sample_n=10_000, seed=trial)
            assert result.sample_size == len(corpus.pages)

            sliced, _ = slice_corpus(corpus.pages, rules)
            links = extract_all_links(sliced, corpus.site_index)
            labels = {site.site_id: site.label for site in corpus.registry}
            rows = crosstab(links, labels)
            inside = sum(r.inside for r in rows)
            total = sum(r.inside + r.outside for r in rows)
            assert total > 0
            assert abs(result.measurement.link_noise - inside / total) <= 1e-12


WORDS = [
    "vaccin", "liberté", "santé", "article", "preuve", "source", "journal",
    "enquête", "donnée", "analyse", "publique", "question", "réponse", "vérité",
]


def build_big_corpus(base: Path, n_pages: int) -> tuple[Path, Path, Path]:
    rng = random.Random(88)
    sentences = [
        ("<p>" + " ".join(rng.choices(WORDS, k=14)) + "</p>").encode() for _ in range(50)
    ]

    def filler(target: int) -> bytes:
        picked = []
        size = 0
        while size < target:
            s = rng.choice(sentences)
            picked.append(s)
            size += len(s)
        return b"".join(picked)

    site_ids = [f"site{k}" for k in range(5)]
    root = base / "corpus"
    manifest = base / "manifest.csv"
    encoding = base / "encoding.csv"
    rules = {}
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "label", "page_path", "url_prefixes"])
        for sid in site_ids:
            writer.writerow([sid, "blog", "", f"{sid}.example.org"])
            (root / sid).mkdir(parents=True, exist_ok=True)
            rules[sid] = make_rule(site_id=sid)
        for i in range(n_pages):
            sid = site_ids[i % len(site_ids)]
            path = f"{sid}/page{i:05d}.html"
            roll = rng.random()
            if roll < 0.85:
                body = filler(3_000) + OPEN + filler(1_200) + CLOSE + filler(500)
            elif roll < 0.95:
                body = filler(4_800)
            else:
                body = filler(3_000) + OPEN + filler(1_500)
            (root / path).write_bytes(body)
            writer.writerow([sid, "", path, ""])
    write_encoding_file(rules, encoding)
    return root, manifest, encoding


def test_criterion_8_throughput_and_parallel_parity(tmp_path):
    with criterion(8, "10,000-page slice-rough under 30s; parallel output byte-identical"):
        root, manifest, encoding = build_big_corpus(tmp_path, 10_000)

        serial_out = tmp_path / "serial"
        args = [
            "slice-rough",
            "--corpus", str(root),
            "--manifest", str(manifest),
            "--encoding", str(encoding),
        ]
        started = time.perf_counter()
        assert run(args + ["--out", str(serial_out), "--workers", "1"]) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"serial slice-rough took {elapsed:.1f}s"

        parallel_out = tmp_path / "parallel"
        assert run(args + ["--out", str(parallel_out), "--workers", "2"]) == 0

        serial_files = sorted(p.relative_to(serial_out) for p in serial_out.rglob("*") if p.is_file())
        parallel_files = sorted(
            p.relative_to(parallel_out) for p in parallel_out.rglob("*") if p.is_file()
        )
        assert serial_files == parallel_files and len(serial_files) > 10_000
        for rel in serial_files:
            assert (serial_out / rel).read_bytes() == (parallel_out / rel).read_bytes(), rel
