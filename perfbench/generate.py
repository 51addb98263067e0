"""Deterministic synthetic corpus generator with ground truth.

``generate(out_dir, params, seed, stopwords)`` writes a comslice corpus
(``corpus/`` pages, ``manifest.csv``, ``encoding.csv``) and
``truth.json``: what every subcommand must report, derived from how the
pages were built rather than from running comslice.

The truth stays valid under the README's documented semantics only, so
the generated pages avoid every construct whose handling is open to change:

- hrefs use only schemes ``http``/``https``, an optional ``www.``, host
  case changes, fragments, nested path prefixes and external hosts (no
  ports, userinfo, trailing dots, backslashes or relative URLs);
- sections never sit inside ``<script>`` and no word touches a section
  boundary, so stripping can never merge two words;
- visible text is made of known words separated by spaces, punctuation
  and tags, so token counts follow from the words placed.

Same seed and parameters give byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

ENCODING_HEADER = (
    "site_id", "label", "has_comments", "open_pattern", "close_pattern", "empty_size",
    "comment_pattern", "date_pattern", "author_pattern", "depth_pattern",
    "author_url_pattern", "text_pattern",
)

LABELS = ("press", "blog", "forum", "critical", "official", "science", "politics", "local")

NAMES = ("Marie", "Jean", "Lucie", "Paul", "Chloé", "Hugo", "Léa", "Louis", "Emma", "Nathan")

ANCHOR_TEXTS = ("lire la suite", "voir aussi", "source", "mon blog", "cet article", "ici")

# Stopwords sprinkled into sentences; each must be in the bundled list.
SPRINKLED_STOPWORDS = ("le", "la", "les", "et", "de", "des", "un", "une", "dans", "pour")

ERROR_KINDS = ("missing_opening", "missing_closure", "multiple_openings", "extraction_failure")

HEAD_SCRIPT = '<script>var tracker = "hidden script words never counted";</script>'


@dataclass(frozen=True)
class Params:
    """Shape of one generated corpus."""

    pages: int
    sites: int
    prefixes_per_site: int  # 1: host prefix only; 2: plus a path prefix nested in a neighbour's host
    labels: int
    anchors_per_page: int
    registered_share: float  # anchors pointing at a registered site
    comment_link_share: float  # anchors placed inside the comment section, when the page has one
    precise_share: float  # sites whose rule can split sections into comments
    none_share: float  # pages without a comment section (missing_opening)
    unclosed_share: float  # pages whose section never closes (missing_closure)
    page_bytes: int  # approximate size of one page


@dataclass(frozen=True)
class Style:
    layout: str  # how comments are marked up inside the section
    precise: bool
    open_html: str
    close_html: str
    chrome_html: str  # fixed content of every section, right after the opening
    chrome_words: str
    rule: dict[str, str]

    @property
    def empty_size(self) -> int | None:
        """Byte length of a section without comments, declared for precise rules only."""
        if not self.precise:
            return None
        return len((self.open_html + self.chrome_html + self.close_html).encode())


STYLES = (
    Style(
        layout="article",
        precise=True,
        open_html='<section class="comments">',
        close_html="<!-- /comments --></section>",
        chrome_html="<h3>Réactions</h3>\n",
        chrome_words="Réactions",
        rule={
            "open_pattern": '<section class="comments">',
            "close_pattern": "<!-- /comments --></section>",
            "comment_pattern": '<article class="comment"',
            "date_pattern": "<time>",
            "author_pattern": 're:<b class="author">([^<]*)</b>',
            "depth_pattern": 're:data-depth="(\\d+)"',
            "author_url_pattern": 're:<a class="url" href="([^"]*)"',
            "text_pattern": 're:<p class="ctext">([^<]*)',
        },
    ),
    Style(
        layout="respond",
        precise=False,
        open_html='<div id="respond">',
        close_html="<!-- #respond --></div>",
        chrome_html="<h4>Commentaires</h4>\n",
        chrome_words="Commentaires",
        rule={"open_pattern": '<div id="respond">', "close_pattern": "<!-- #respond --></div>"},
    ),
    Style(
        layout="commentlist",
        precise=True,
        open_html='<ol class="commentlist">',
        close_html="</ol><!-- end comments -->",
        chrome_html="",
        chrome_words="",
        rule={
            "open_pattern": '<ol class="commentlist">',
            "close_pattern": "</ol><!-- end comments -->",
            "comment_pattern": '<li class="c-item',
            "date_pattern": "<small>",
            "author_pattern": "<cite>",
            "depth_pattern": "re:depth-(\\d+)",
            "text_pattern": "<div>",
        },
    ),
    Style(
        layout="disqus",
        precise=False,
        open_html='<div class="disqus-thread">',
        close_html="<!-- end disqus --></div>",
        chrome_html="",
        chrome_words="",
        rule={
            "open_pattern": 're:<div class="disqus(?:-thread)?">',
            "close_pattern": "re:<!-- end disqus -->(?:</div>)?",
        },
    ),
)


def _style_of(k: int, params: Params) -> Style:
    """Even-indexed styles are precise; a site gets one while the precise quota lasts."""
    n_precise = round(params.precise_share * params.sites)
    if k % 2 == 0 and k // 2 < n_precise:
        return STYLES[0] if k % 4 == 0 else STYLES[2]
    return STYLES[1] if k % 4 in (0, 1) else STYLES[3]


def _site_id(k: int) -> str:
    return f"s{k:03d}"


def _host(k: int) -> str:
    return f"site{k}.example.org"


def _nested_path(k: int) -> str:
    return f"/p{k}/"


def _make_word(rng: random.Random) -> str:
    consonants, vowels = "bcdfglmnprstv", "aeiouéè"
    return "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(2, 4)))


class _Pieces:
    """Visible-text fragments, each with its token counts precomputed.

    A page is a sequence of fragments; the corpus token table is the sum
    of every fragment's counts weighted by how often it was placed, so it
    is known without tokenizing any page.
    """

    def __init__(self, stopwords: frozenset[str]) -> None:
        self.stopwords = stopwords
        self.counts: list[Counter[str]] = []
        self.sizes: list[int] = []
        self._ids: dict[str, int] = {}

    def add(self, words: str) -> int:
        """Register a text made of space-separated letter-only words; returns its id."""
        known = self._ids.get(words)
        if known is not None:
            return known
        tokens = [w.lower() for w in words.split()]
        self.counts.append(
            Counter(t for t in tokens if len(t) >= 2 and t not in self.stopwords)
        )
        self.sizes.append(sum(self.counts[-1].values()))
        self._ids[words] = len(self.counts) - 1
        return self._ids[words]

    def size(self, ids: Counter[int]) -> int:
        return sum(self.sizes[i] * n for i, n in ids.items())

    def total(self, ids: Counter[int]) -> Counter[str]:
        out: Counter[str] = Counter()
        for i, n in ids.items():
            for token, c in self.counts[i].items():
                out[token] += c * n
        return out


def _sentences(rng: random.Random, vocab: list[str], n: int) -> list[str]:
    out = []
    for _ in range(n):
        words = [rng.choice(vocab) for _ in range(rng.randint(8, 16))]
        for _ in range(rng.randint(0, 3)):
            words.insert(rng.randrange(len(words)), rng.choice(SPRINKLED_STOPWORDS))
        words[0] = words[0].capitalize()
        out.append(" ".join(words))
    return out


def _href(rng: random.Random, host: str, path_prefix: str = "/") -> str:
    scheme = rng.choice(("http://", "https://"))
    www = "www." if rng.random() < 0.3 else ""
    if rng.random() < 0.3:
        host = host.upper() if rng.random() < 0.5 else host.capitalize()
    tail = f"{rng.randint(2015, 2021)}/{rng.randint(1, 999)}.html"
    fragment = f"#c{rng.randint(1, 99)}" if rng.random() < 0.2 else ""
    return f"{scheme}{www}{host}{path_prefix}{tail}{fragment}"


def _pick_target(rng: random.Random, params: Params) -> tuple[str, int | None]:
    """An href and the site index it must resolve to (None: external)."""
    if rng.random() >= params.registered_share:
        return _href(rng, f"ext{rng.randint(0, 9999)}.example.net"), None
    k = rng.randrange(params.sites)
    if params.prefixes_per_site == 2 and rng.random() < 0.5:
        # site k's nested prefix lives inside site k+1's host: the longest prefix must win
        return _href(rng, _host((k + 1) % params.sites), _nested_path(k)), k
    return _href(rng, _host(k)), k


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(out_dir: Path, params: Params, seed: int, stopwords: frozenset[str]) -> dict:
    """Write the corpus and its truth under out_dir (replacing it); returns the truth."""
    missing = [w for w in SPRINKLED_STOPWORDS if w not in stopwords]
    if missing:
        raise ValueError(f"stopword list lacks {missing}")
    if out_dir.exists():
        shutil.rmtree(out_dir)
    root = out_dir / "corpus"
    rng = random.Random(seed)
    pieces = _Pieces(stopwords)

    main_vocab = [w for w in (_make_word(rng) for _ in range(800)) if w not in stopwords]
    spam_vocab = [w for w in (_make_word(rng) for _ in range(300)) if w not in stopwords]
    main_sentences = [(s, pieces.add(s)) for s in _sentences(rng, main_vocab, 300)]
    spam_sentences = [(s, pieces.add(s)) for s in _sentences(rng, spam_vocab + main_vocab[:100], 200)]
    anchor_texts = [(s, pieces.add(s)) for s in ANCHOR_TEXTS]
    names = [(s, pieces.add(s)) for s in NAMES]
    mars = pieces.add("mars")
    a_wrote = pieces.add("a écrit")

    site_ids = [_site_id(k) for k in range(params.sites)]
    labels = [LABELS[k % params.labels] for k in range(params.sites)]
    styles = [_style_of(k, params) for k in range(params.sites)]
    chrome_ids = [pieces.add(s.chrome_words) if s.chrome_words else None for s in styles]
    for sid in site_ids[: params.pages]:  # page i belongs to site i mod sites
        (root / sid).mkdir(parents=True, exist_ok=True)

    with open(out_dir / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "label", "page_path", "url_prefixes"])
        for k, sid in enumerate(site_ids):
            prefixes = [_host(k)]
            if params.prefixes_per_site == 2:
                prefixes.append(_host((k + 1) % params.sites) + _nested_path(k))
            writer.writerow([sid, labels[k], "", "|".join(prefixes)])
        page_paths = [f"{site_ids[i % params.sites]}/p{i:05d}.html" for i in range(params.pages)]
        for i, path in enumerate(page_paths):
            writer.writerow([site_ids[i % params.sites], "", path, ""])

    with open(out_dir / "encoding.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENCODING_HEADER)
        for k, sid in enumerate(site_ids):
            style = styles[k]
            cells = dict.fromkeys(ENCODING_HEADER, "False")
            cells.update(site_id=sid, label=labels[k], has_comments="True", **style.rule)
            if style.empty_size is not None:
                cells["empty_size"] = str(style.empty_size)
            writer.writerow([cells[c] for c in ENCODING_HEADER])

    main_ids: Counter[int] = Counter()  # fragments in main content (after stripping)
    section_ids: Counter[int] = Counter()  # fragments inside closed sections
    pages: list[dict] = []
    edge_digest = hashlib.sha256()
    edge_rows = {"main": 0, "comment": 0}
    crosstab_counts: dict[str, list[int]] = {}
    directed_main: set[tuple[int, int]] = set()
    section_sizes: dict[str, list[int]] = {}
    errors: Counter[str] = Counter()
    comments_total = 0

    def anchor_html(href: str, used: Counter[int]) -> str:
        text, tid = rng.choice(anchor_texts)
        used[tid] += 1
        return f'<a href="{href}">{text}</a>'

    def paragraphs(target_bytes: int, links: list, used: Counter[int]) -> list[str]:
        out, size, pending = [], 0, list(links)
        while size < target_bytes or pending:
            text, text_id = main_sentences[int(rng.random() * len(main_sentences))]
            used[text_id] += 1
            para = f"<p>{text}."
            if pending and (size >= target_bytes or rng.random() < 0.5):
                para += " " + anchor_html(pending.pop(0)[0], used)
            para += "</p>\n"
            out.append(para)
            size += len(para)
        return out

    for i, path in enumerate(page_paths):
        k = i % params.sites
        sid, style = site_ids[k], styles[k]
        roll = rng.random()
        kind = "none" if roll < params.none_share else (
            "unclosed" if roll < params.none_share + params.unclosed_share else "closed"
        )
        page_main: Counter[int] = Counter()
        page_section: Counter[int] = Counter()
        # anchors: (href, target site index or None, placed in the section part)
        anchors = []
        for _ in range(params.anchors_per_page):
            href, target = _pick_target(rng, params)
            in_section = kind != "none" and rng.random() < params.comment_link_share
            anchors.append((href, target, in_section))
        main_anchors = [a for a in anchors if not a[2]]
        section_anchors = [a for a in anchors if a[2]]

        title, title_id = rng.choice(main_sentences)
        page_main[title_id] += 1
        split = rng.randrange(len(main_anchors) + 1)
        head = (
            f"<!DOCTYPE html>\n<html><head><title>{title}</title>{HEAD_SCRIPT}</head>\n"
            '<body><div class="post">\n'
        )
        body_parts = paragraphs(int(params.page_bytes * 0.6), main_anchors[:split], page_main)
        tail_parts = paragraphs(int(params.page_bytes * 0.1), main_anchors[split:], page_main)
        main_before = head + "".join(body_parts) + "</div>\n"
        main_after = "<footer>\n" + "".join(tail_parts) + "</footer></body></html>\n"

        section = ""
        n_comments = 0
        if kind != "none":
            holder = page_section if kind == "closed" else page_main
            if chrome_ids[k] is not None:
                holder[chrome_ids[k]] += 1
            n_comments = max(len(section_anchors), rng.randint(0, 6))
            # slots ascend so anchors keep their document order
            if style.layout == "article":
                slots = list(range(len(section_anchors)))  # one profile link per comment
            else:
                slots = sorted(rng.randrange(n_comments) for _ in section_anchors)
            per_comment: list[list[str]] = [[] for _ in range(n_comments)]
            for slot, (href, _, _) in zip(slots, section_anchors):
                per_comment[slot].append(href)
            comment_html = []
            for c in range(n_comments):
                name, name_id = rng.choice(names)
                text, text_id = rng.choice(spam_sentences)
                holder[name_id] += 1
                holder[text_id] += 1
                links = per_comment[c]
                depth = rng.randint(1, 3)
                if style.layout == "article":
                    url = f' <a class="url" href="{links[0]}">{name}</a>' if links else ""
                    if links:
                        holder[name_id] += 1
                    comment_html.append(
                        f'<article class="comment" data-depth="{depth}"><b class="author">{name}</b>'
                        f" <time>2021-03-{c + 10}</time>{url}\n"
                        f'<p class="ctext">{text}.</p></article>\n'
                    )
                    continue
                inline = "".join(" " + anchor_html(h, holder) for h in links)
                if style.layout == "commentlist":
                    holder[mars] += 1
                    comment_html.append(
                        f'<li class="c-item depth-{depth}"><cite>{name}</cite> '
                        f"<small>{c + 1} mars 2021</small><div>{text}.{inline}</div></li>\n"
                    )
                elif style.layout == "respond":
                    holder[a_wrote] += 1
                    comment_html.append(
                        f'<div class="c"><span>{name}</span> a écrit : <p>{text} !{inline}</p></div>\n'
                    )
                else:
                    comment_html.append(f'<div class="post-msg">{name} : {text}.{inline}</div>\n')
            section = style.open_html + style.chrome_html + "".join(comment_html)
            if kind == "closed":
                section += style.close_html

        raw = (main_before + section + "\n" + main_after).encode("utf-8")
        (root / path).write_bytes(raw)

        # everything below derives from how the page was assembled
        main_ids.update(page_main)
        section_ids.update(page_section)
        if kind == "closed":
            stripped = (main_before + "\n" + main_after).encode("utf-8")
            section_bytes = section.encode("utf-8")
            section_sizes.setdefault(sid, []).append(len(section_bytes))
            if style.precise:
                comments_total += n_comments
        else:
            stripped, section_bytes = raw, None
            errors["missing_opening" if kind == "none" else "missing_closure"] += 1
        resolved = countable = comment_countable = in_comment = 0
        for href, target, placed_in_section in main_anchors[:split] + section_anchors + main_anchors[split:]:
            if target is None:
                continue
            located = placed_in_section and kind == "closed"
            resolved += 1
            in_comment += located
            location = "comment" if located else "main"
            edge_rows[location] += 1
            edge_digest.update(
                "\t".join((sid, site_ids[target], location, path, href)).encode() + b"\n"
            )
            if target == k:
                continue
            countable += 1
            comment_countable += located
            pair = crosstab_counts.setdefault(f"{labels[k]}\t{labels[target]}", [0, 0])
            pair[1 if located else 0] += 1
            if not located:
                directed_main.add((k, target))
        pages.append(
            {
                "path": path,
                "site": sid,
                "kind": kind,
                "stripped_sha256": _sha(stripped),
                "section_sha256": None if section_bytes is None else _sha(section_bytes),
                "comments": n_comments if kind == "closed" and style.precise else 0,
                "anchors": len(anchors),
                "resolved": resolved,
                "resolved_in_comment": in_comment,
                "countable_links": countable,
                "comment_countable_links": comment_countable,
                "main_tokens": pieces.size(page_main),
                "section_tokens": pieces.size(page_section),
                "bytes": len(raw),
            }
        )

    with_comments = pieces.total(main_ids + section_ids)
    without = pieces.total(main_ids)
    warnings = {}
    for k, sid in enumerate(site_ids):
        sizes = section_sizes.get(sid, [])
        if len(sizes) >= 2 and len(set(sizes)) == 1 and sizes[0] != styles[k].empty_size:
            warnings[sid] = {"size": sizes[0], "sections": len(sizes)}
    mutual = sorted(
        [site_ids[a], site_ids[b]] for a, b in directed_main if a < b and (b, a) in directed_main
    )

    def top(counts: Counter[str]) -> list[list]:
        return [[t, n] for t, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:100]]

    truth = {
        "params": asdict(params),
        "seed": seed,
        "sites": [{"id": s, "label": lab} for s, lab in zip(site_ids, labels)],
        "pages": pages,
        "totals": {
            "pages": len(pages),
            "bytes": sum(p["bytes"] for p in pages),
            "sections": sum(p["kind"] == "closed" for p in pages),
            "comments": comments_total,
            "anchors": sum(p["anchors"] for p in pages),
            "resolved": sum(p["resolved"] for p in pages),
            "resolved_in_comment": sum(p["resolved_in_comment"] for p in pages),
            "errors": {kind: errors[kind] for kind in ERROR_KINDS},
            "tokens_with_comments": sum(with_comments.values()),
            "tokens_without_comments": sum(without.values()),
            "mutual_edges": len(mutual),
        },
        "edges": {"rows": edge_rows, "sha256": edge_digest.hexdigest()},
        "crosstab": crosstab_counts,
        "mutual_edges": mutual,
        "uniform_size_warnings": warnings,
        "top_tokens_with_comments": top(with_comments),
        "top_tokens_without_comments": top(without),
    }
    (out_dir / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return truth


def load_stopwords(path: Path) -> frozenset[str]:
    """Read a stopword list in the format the README documents."""
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)
