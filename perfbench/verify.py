"""Check one subcommand's stdout and output files against the generator's truth.

``check(subcommand, out_dir, stdout, truth, sample_n)`` returns a list of
mismatch descriptions; an empty list means the invocation is correct.
Expected values come from ``truth.json`` and from the README's documented
semantics, never from running comslice.
"""

from __future__ import annotations

import csv
import hashlib
import random
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

GEXF_NS = "{http://www.gexf.net/1.2draft}"


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _error_counts(truth: dict) -> Counter[tuple[str, str]]:
    kinds = {"none": "missing_opening", "unclosed": "missing_closure"}
    return Counter((p["site"], kinds[p["kind"]]) for p in truth["pages"] if p["kind"] in kinds)


def _slice_summary(truth: dict) -> list[str]:
    totals = truth["totals"]
    lines = [f"sliced {totals['pages']} pages into {totals['sections']} comment sections"]
    for (site, kind), n in sorted(_error_counts(truth).items()):
        lines.append(f"  {site}: {n} x {kind}")
    for site, w in sorted(truth["uniform_size_warnings"].items()):
        lines.append(
            f"  warning: all {w['sections']} sections of {site} have the same size "
            f"({w['size']} bytes); check its delimiters"
        )
    return lines


def _check_slice(out: Path, stdout: str, truth: dict, precise: bool, problems: list[str]) -> None:
    want = _slice_summary(truth)
    if precise:
        want.append(f"extracted {truth['totals']['comments']} comments")
    _expect(problems, "stdout", stdout.splitlines(), want)
    want_sections = set()
    for page in truth["pages"]:
        stripped = out / "stripped" / page["path"]
        if not stripped.is_file() or _sha(stripped) != page["stripped_sha256"]:
            problems.append(f"stripped/{page['path']} differs from truth")
        if page["section_sha256"] is not None:
            rel = f"{page['path']}.section-0.html"
            want_sections.add(rel)
            section = out / "sections" / rel
            if not section.is_file() or _sha(section) != page["section_sha256"]:
                problems.append(f"sections/{rel} differs from truth")
    got_sections = {p.relative_to(out / "sections").as_posix() for p in (out / "sections").rglob("*") if p.is_file()}
    _expect(problems, "section files", len(got_sections), len(want_sections))
    error_counts = _error_counts(truth)
    _expect(
        problems,
        "error_report.csv kinds",
        Counter(row[2] for row in _rows(out / "error_report.csv")),
        Counter(kind for _, kind in error_counts.elements()),
    )
    want_summary = sorted([site, kind, str(n)] for (site, kind), n in error_counts.items())
    want_summary += [
        [site, "uniform_size_warning", str(w["sections"])]
        for site, w in sorted(truth["uniform_size_warnings"].items())
    ]
    _expect(problems, "error_summary.csv", _rows(out / "error_summary.csv"), want_summary)
    if precise:
        with open(out / "comments.jsonl", "rb") as fh:
            _expect(problems, "comments.jsonl lines", sum(1 for _ in fh), truth["totals"]["comments"])


def _check_links(out: Path, stdout: str, truth: dict, problems: list[str]) -> None:
    totals = truth["totals"]
    anchors, resolved = totals["anchors"], totals["resolved"]
    _expect(
        problems,
        "stdout",
        stdout.splitlines(),
        [f"found {anchors} anchors; {resolved} resolved to registered sites, {anchors - resolved} external"],
    )
    rows = _rows(out / "edges.csv")
    digest = hashlib.sha256()
    for row in rows:
        digest.update("\t".join(row).encode() + b"\n")
    _expect(problems, "edges.csv locations", dict(Counter(r[2] for r in rows)),
            {k: v for k, v in truth["edges"]["rows"].items() if v})
    _expect(problems, "edges.csv rows digest", digest.hexdigest(), truth["edges"]["sha256"])


def _check_crosstab(out: Path, stdout: str, truth: dict, problems: list[str]) -> None:
    want = truth["crosstab"]
    _expect(problems, "stdout", stdout.splitlines(), [f"crosstab: {len(want)} label pairs"])
    got = {f"{r[0]}\t{r[1]}": [int(r[2]), int(r[3])] for r in _rows(out / "crosstab.csv")}
    _expect(problems, "crosstab.csv outside/inside", got, want)


def _components(nodes: list[str], edges: list[list[str]]) -> list[int]:
    parent = {n: n for n in nodes}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for a, b in edges:
        parent[find(a)] = find(b)
    return sorted(Counter(find(n) for n in nodes).values(), reverse=True)


def _check_graph(out: Path, stdout: str, truth: dict, problems: list[str]) -> None:
    nodes = [s["id"] for s in truth["sites"]]
    edges = truth["mutual_edges"]
    sizes = _components(nodes, edges)
    _expect(
        problems,
        "stdout",
        stdout.splitlines(),
        [f"graph: {len(nodes)} nodes, {len(edges)} mutual edges, "
         f"{len(sizes)} components (largest: {sizes[0] if sizes else 0})"],
    )
    root = ET.parse(out / "graph.gexf").getroot()
    got_edges = sorted(
        sorted([e.get("source"), e.get("target")]) for e in root.iter(GEXF_NS + "edge")
    )
    _expect(problems, "graph.gexf nodes", len(list(root.iter(GEXF_NS + "node"))), len(nodes))
    _expect(problems, "graph.gexf edges", got_edges, edges)


def _check_tokens(out: Path, stdout: str, truth: dict, problems: list[str]) -> None:
    totals = truth["totals"]
    _expect(
        problems,
        "stdout",
        stdout.splitlines(),
        [f"tokens: {totals['tokens_with_comments']} with comments, "
         f"{totals['tokens_without_comments']} without"],
    )
    for table in ("with_comments", "without_comments"):
        got = [[t, int(n)] for t, n in _rows(out / f"tokens_{table}.csv")]
        _expect(problems, f"tokens_{table}.csv", got, truth[f"top_tokens_{table}"])


def audit_sample(truth: dict, n: int, seed: int = 0) -> list[dict]:
    """The pages the README's audit sampling picks: seeded per-site shuffle, then round-robin."""
    rng = random.Random(seed)
    per_site: dict[str, list[dict]] = {}
    for page in truth["pages"]:
        per_site.setdefault(page["site"], []).append(page)
    queues = []
    for site in sorted(per_site):
        pages = sorted(per_site[site], key=lambda p: p["path"])
        rng.shuffle(pages)
        queues.append(pages)
    picked: list[dict] = []
    target = min(n, len(truth["pages"]))
    depth = 0
    while len(picked) < target:
        for queue in queues:
            if depth < len(queue) and len(picked) < target:
                picked.append(queue[depth])
        depth += 1
    return picked


def _check_audit(out: Path, stdout: str, truth: dict, sample_n: int, problems: list[str]) -> None:
    sample = audit_sample(truth, sample_n)
    links = sum(p["countable_links"] for p in sample)
    comment_links = sum(p["comment_countable_links"] for p in sample)
    section_tokens = sum(p["section_tokens"] for p in sample)
    main_tokens = sum(p["main_tokens"] for p in sample)
    lines = stdout.splitlines()
    _expect(problems, "stdout sample line", lines[:1], [f"pages sampled: {len(sample)}"])
    for want in (
        f"[{comment_links}/{links} site-to-site links in comments]",
        f"[{section_tokens} comment tokens vs {main_tokens} main tokens]",
    ):
        if want not in stdout:
            problems.append(f"stdout lacks {want!r}")
    metrics = {row[0]: float(row[1]) for row in _rows(out / "audit.csv")}
    _expect(problems, "audit.csv link_noise", metrics.get("link_noise"), comment_links / links if links else 0.0)


def check(subcommand: str, out_dir: Path, stdout: str, truth: dict, sample_n: int = 100) -> list[str]:
    """Every way this invocation's output disagrees with the truth."""
    problems: list[str] = []
    try:
        if subcommand in ("slice-rough", "slice-precise"):
            _check_slice(out_dir, stdout, truth, subcommand == "slice-precise", problems)
        elif subcommand == "audit":
            _check_audit(out_dir, stdout, truth, sample_n, problems)
        else:
            _CHECKS[subcommand](out_dir, stdout, truth, problems)
    except (OSError, ValueError, IndexError, ET.ParseError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


_CHECKS = {
    "links": _check_links,
    "crosstab": _check_crosstab,
    "graph": _check_graph,
    "tokens": _check_tokens,
}


def digest_tree(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under out_dir, keyed by relative path."""
    return {p.relative_to(out_dir).as_posix(): _sha(p) for p in sorted(out_dir.rglob("*")) if p.is_file()}
