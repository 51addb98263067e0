"""Command line front end.

Every subcommand loads the corpus (directory + manifest) and the encoding
file, runs one processing step, and writes its results under --out.
Slicing problems on individual pages are reported, not fatal; broken
configuration (missing or unreadable files, bad manifest, bad encoding
file, an --out that cannot be a directory) exits with status 1 and an
``error:`` line, usage mistakes with status 2.
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import os
import re
import sys
from functools import partial
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import _lazy
from .corpus import Corpus, load_corpus, page_file
from .encoding import Rule, parse_encoding_file
from .errors import ComsliceError, clip
from .slicer import (
    SlicedPage,
    Thresholds,
    build_error_report,
    precise_slice,
    # the old name stays: perfbench/tracer.py patches comslice.cli.slice_corpus_parallel
    slice_corpus as slice_corpus_parallel,
)

if TYPE_CHECKING:
    from .linkgraph import Link

# each name the handlers call from a module that only some subcommands use -> that module.
# run binds the names of the modules a subcommand declares before its handler runs;
# __getattr__ binds one on first use from outside, as when perfbench's tracer patches it
_HOMES = {
    name: module
    for module, names in {
        "linkgraph": ("components", "crosstab", "extract_all_links", "iter_hrefs", "mutual_link_graph", "write_gexf"),
        "textstats": ("corpus_token_counts", "load_stopwords", "top_k"),
    }.items()
    for name in names
}
__getattr__ = _lazy(globals(), _HOMES)


def _bounded(kind: Callable[[str], float], low: float, high: float = math.inf):
    """An argparse type: parse with kind, then require low <= value <= high.

    NaN fails the range test, so a bad value always exits with status 2.
    """
    what = f"an integer >= {low}" if kind is int else f"a number in [{low}, {high}]"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # unparsable: fails the range test below
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {clip(text)!r}")
        return value

    return parse


_positive_int = _bounded(int, 1)
_fraction = _bounded(float, 0, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comslice",
        description="slice comment sections out of a crawled corpus and "
        "audit the bias they add to link and text analyses",
    )
    common = argparse.ArgumentParser(add_help=False)  # the options every subcommand takes first
    common.add_argument("--corpus", required=True, help="corpus root directory")
    common.add_argument("--manifest", required=True, help="manifest CSV path")
    common.add_argument("--encoding", required=True, help="encoding file CSV path")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for slicing (default: 1)",
    )
    text = argparse.ArgumentParser(add_help=False)  # the options of the subcommands that count tokens
    text.add_argument("--stopwords", help="stopword list path (default: bundled French list)")
    # each subcommand declares the handler that run calls, the modules in _HOMES whose
    # names it calls, the files it writes directly under --out, and whether it also
    # writes every page under stripped/ and its sections under sections/; the
    # overwrite guard reads the last two
    sub = parser.add_subparsers(dest="command", required=True)
    add_subcommand = partial(sub.add_parser, parents=[common])
    error_files = ("error_report.csv", "error_summary.csv")

    p = add_subcommand("slice-rough", help="split pages into stripped content and comment sections")
    p.set_defaults(handler=_cmd_slice_rough, modules=(), outputs=error_files, page_trees=True)

    p = add_subcommand("slice-precise", help="slice-rough plus per-comment field extraction")
    p.set_defaults(
        handler=_cmd_slice_precise, modules=(), outputs=("comments.jsonl", *error_files), page_trees=True
    )

    p = add_subcommand("links", help="extract every hyperlink with its location")
    p.set_defaults(handler=_cmd_links, modules=("linkgraph",), outputs=("edges.csv",), page_trees=False)

    p = add_subcommand("crosstab", help="count links between site labels, inside vs outside comments")
    p.set_defaults(handler=_cmd_crosstab, modules=("linkgraph",), outputs=("crosstab.csv",), page_trees=False)

    p = add_subcommand("graph", help="build the mutual-link site graph as GEXF")
    p.set_defaults(handler=_cmd_graph, modules=("linkgraph",), outputs=("graph.gexf",), page_trees=False)
    p.add_argument(
        "--include-comments",
        action="store_true",
        help="keep links located in comment sections (dropped by default)",
    )

    p = add_subcommand(
        "tokens", parents=[common, text], help="top token counts with and without comment sections"
    )
    p.set_defaults(
        handler=_cmd_tokens,
        modules=("textstats",),
        outputs=("tokens_with_comments.csv", "tokens_without_comments.csv"),
        page_trees=False,
    )
    p.add_argument(
        "--top-k", type=_positive_int, default=100, help="rows per table (default: 100)"
    )

    p = add_subcommand(
        "audit", parents=[common, text], help="sample the corpus and decide whether slicing is needed"
    )
    p.set_defaults(
        handler=_cmd_audit,
        modules=("textstats",),  # comslice.audit imports linkgraph too
        outputs=("audit.txt", "audit.csv", "audit_sites.csv"),
        page_trees=False,
    )
    p.add_argument(
        "--sample-n", type=_positive_int, default=100, help="pages to sample (default: 100)"
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    for option, metric in (("link", "link_noise"), ("token", "token_noise"), ("divergence", "text_divergence")):
        p.add_argument(
            f"--threshold-{option}",
            dest=metric,
            type=_fraction,
            default=Thresholds._field_defaults[metric],  # getattr(Thresholds, metric) is the field's accessor
            help=f"slice when {metric} exceeds this (default: %(default)s)",
        )

    return parser


_SECTION_NUMBER_RE = re.compile(r"(?:0|[1-9][0-9]*)\.html")
# O_BINARY (Windows) keeps the bytes untranslated
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _page_files(page_path: str) -> tuple[str, str]:
    """A page's file under stripped/, and the prefix its numbered files under sections/ extend.

    The first is also where the page is read under the corpus root.
    """
    return page_file(page_path), page_file(page_path + ".section-")


def _refuse_overwrite(args: argparse.Namespace, corpus: Corpus) -> None:
    """Raise ComsliceError if a file the subcommand may write is one of its inputs.

    The inputs are the manifest, the encoding file, the stopword list and
    every page file where load_corpus read it. Paths compare as strings under
    the realpaths of their roots (the corpus root, --out, and --out's stripped/
    and sections/, laid out by _page_files), so no page costs a stat.
    """
    real = os.path.realpath
    inputs = {
        real(path): f"{what} {clip(path)}"
        for what, path in (
            ("manifest", args.manifest),
            ("encoding file", args.encoding),
            ("stopword list", getattr(args, "stopwords", None)),
        )
        if path
    }
    root, out = real(args.corpus), real(args.out)
    outputs = [(real(f"{out}/{name}"), name) for name in args.outputs]
    stripped, sections = real(f"{out}/stripped"), real(f"{out}/sections")
    section_prefixes: dict[str, str] = {}  # sections/ prefix -> page_path
    for page in corpus.pages:
        file, prefix = _page_files(page.page_path)
        inputs.setdefault(
            f"{root}/{file}", f"page file {clip(page.page_path)} of --corpus {clip(args.corpus)}"
        )
        if args.page_trees:
            outputs.append((f"{stripped}/{file}", f"stripped/{clip(page.page_path)}"))
            section_prefixes[f"{sections}/{prefix}"] = page.page_path
    # a page's sections are numbered from 0: any number may be written
    for path in inputs:
        head, mark, number = path.rpartition(".section-")
        if head + mark in section_prefixes and _SECTION_NUMBER_RE.fullmatch(number):
            outputs.append((path, f"sections/{clip(section_prefixes[head + mark])}.section-{clip(number)}"))
    for path, name in outputs:
        if path in inputs:
            raise ComsliceError(
                f"--out {clip(args.out)} would overwrite the {inputs[path]} with its {name}"
            )


def _load(args: argparse.Namespace) -> tuple[Corpus, dict[str, Rule]]:
    corpus = load_corpus(args.corpus, args.manifest)
    rules = parse_encoding_file(args.encoding)
    for site_id, rule in rules.items():
        if site_id in corpus.labels and rule.label != corpus.labels[site_id]:
            raise ComsliceError(
                f"encoding file {clip(args.encoding)} labels site {clip(site_id)} {clip(rule.label)!r}, "
                f"but manifest {clip(args.manifest)} labels it {clip(corpus.labels[site_id])!r}"
            )
    _refuse_overwrite(args, corpus)
    return corpus, rules


def _slice(args: argparse.Namespace) -> tuple[Corpus, dict[str, Rule], list[SlicedPage], list]:
    corpus, rules = _load(args)
    sliced, errors = slice_corpus_parallel(corpus.pages, rules, workers=args.workers)
    return corpus, rules, sliced, errors


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_page_outputs(sliced: list[SlicedPage], out: Path) -> None:
    made: set[str] = set()  # directories known to exist

    def write(path: str, data: bytes) -> None:
        folder = path.rpartition("/")[0]
        if folder not in made:
            os.makedirs(folder, exist_ok=True)
            made.add(folder)
        fd = os.open(path, _WRITE_FLAGS, 0o666)  # rewrites a file in place
        try:
            done = 0
            while done < len(data):
                done += os.write(fd, data[done:])
        except OSError as exc:  # an error on a descriptor names no file
            exc.filename = path
            raise
        finally:
            os.close(fd)

    for page in sliced:
        file, prefix = _page_files(page.page_path)
        write(f"{out}/stripped/{file}", page.stripped_bytes)
        for i, section in enumerate(page.sections_bytes):
            write(f"{out}/sections/{prefix}{i}.html", section)
        for n in count(len(page.section_spans)):  # sections an earlier run wrote past this run's last
            try:
                os.unlink(f"{out}/sections/{prefix}{n}.html")  # any other OSError names the file
            except FileNotFoundError:
                break


def _report_slices(out: Path, sliced: list[SlicedPage], errors: list, rules: dict[str, Rule]) -> None:
    """Write error_report.csv and error_summary.csv under out, and print the slicing summary."""
    summary, details, warnings = build_error_report(sliced, errors, rules)
    _write_csv(out / "error_report.csv", ("site_id", "page_path", "kind", "detail"), details)
    _write_csv(
        out / "error_summary.csv",
        ("site_id", "kind", "count"),
        summary + [(w.site_id, "uniform_size_warning", w.sections) for w in warnings],
    )
    sections = sum(len(p.section_spans) for p in sliced)
    print(f"sliced {len(sliced)} pages into {sections} comment sections")
    for site_id, kind, count in summary:
        print(f"  {site_id}: {count} x {kind}")
    for warning in warnings:
        print(
            f"  warning: all {warning.sections} sections of {warning.site_id} "
            f"have the same size ({warning.size} bytes); check its delimiters"
        )


def _cmd_slice_rough(args: argparse.Namespace, out: Path) -> int:
    _, rules, sliced, errors = _slice(args)
    _write_page_outputs(sliced, out)
    _report_slices(out, sliced, errors, rules)
    return 0


def _cmd_slice_precise(args: argparse.Namespace, out: Path) -> int:
    import json  # here: only slice-precise writes JSON

    _, rules, sliced, errors = _slice(args)
    _write_page_outputs(sliced, out)
    encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps would build one per call
    total = 0
    with open(out / "comments.jsonl", "w", encoding="utf-8") as fh:
        for page in sliced:
            rule = rules[page.site_id]
            if not rule.is_precise:
                continue
            comments, errs = precise_slice(page, rule)
            errors.extend(errs)
            for c in comments:
                fh.write(encode(c._asdict()) + "\n")  # Comment's fields, in order
            total += len(comments)
    _report_slices(out, sliced, errors, rules)
    print(f"extracted {total} comments")
    return 0


def _links_of(args: argparse.Namespace) -> tuple[Corpus, dict[str, Rule], list[SlicedPage], list[Link]]:
    corpus, rules, sliced, _ = _slice(args)
    return corpus, rules, sliced, extract_all_links(sliced, corpus.site_index)


def _cmd_links(args: argparse.Namespace, out: Path) -> int:
    _, _, sliced, links = _links_of(args)
    _write_csv(
        out / "edges.csv",
        ("src_site", "dst_site", "location", "src_page", "url"),
        (
            (
                link.src_site_id,
                link.dst_site_id,
                "comment" if link.in_comment else "main",
                link.page_path,
                link.href,
            )
            for link in links
        ),
    )
    anchors = sum(1 for page in sliced for _ in iter_hrefs(page.raw_bytes))
    print(
        f"found {anchors} anchors; {len(links)} resolved to registered sites, "
        f"{anchors - len(links)} external"
    )
    return 0


def _cmd_crosstab(args: argparse.Namespace, out: Path) -> int:
    corpus, _, _, links = _links_of(args)
    rows = crosstab(links, corpus.labels)
    _write_csv(
        out / "crosstab.csv",
        ("src_label", "dst_label", "outside", "inside", "proportion"),
        ((r.src_label, r.dst_label, r.outside, r.inside, f"{r.proportion:.2f}") for r in rows),
    )
    print(f"crosstab: {len(rows)} label pairs")
    return 0


def _cmd_graph(args: argparse.Namespace, out: Path) -> int:
    corpus, _, _, links = _links_of(args)
    graph = mutual_link_graph(links, corpus.labels, include_comments=args.include_comments)
    write_gexf(graph, corpus.labels, out / "graph.gexf")
    parts = components(graph)
    print(
        f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} mutual edges, "
        f"{len(parts)} components (largest: {len(parts[0]) if parts else 0})"
    )
    return 0


def _cmd_tokens(args: argparse.Namespace, out: Path) -> int:
    stopwords = load_stopwords(args.stopwords)
    _, _, sliced, _ = _slice(args)
    without, comment = corpus_token_counts(sliced, stopwords)
    with_comments = without + comment
    for name, counts in (("with", with_comments), ("without", without)):
        rows = top_k(counts, args.top_k)
        _write_csv(out / f"tokens_{name}_comments.csv", ("token", "count"), rows)
    print(
        f"tokens: {sum(with_comments.values())} with comments, "
        f"{sum(without.values())} without"
    )
    return 0


def _cmd_audit(args: argparse.Namespace, out: Path) -> int:
    # imported here, so the other subcommands never load it; its names are read through
    # the module, where perfbench's tracer patches them
    from . import audit as audit_mod

    stopwords = load_stopwords(args.stopwords)
    corpus, rules = _load(args)
    metrics = Thresholds._fields
    result = audit_mod.run_audit(
        corpus,
        rules,
        sample_n=args.sample_n,
        seed=args.seed,
        thresholds=Thresholds(**{name: getattr(args, name) for name in metrics}),
        stopwords=stopwords,
        workers=args.workers,
    )
    report = audit_mod.format_report(result)
    (out / "audit.txt").write_text(report, encoding="utf-8")
    m, t = result.measurement, result.thresholds
    _write_csv(
        out / "audit.csv",
        ("metric", "value", "threshold", "exceeded"),
        (
            (name, repr(getattr(m, name)), repr(getattr(t, name)), str(name in result.exceeded).lower())
            for name in metrics
        ),
    )
    _write_csv(out / "audit_sites.csv", audit_mod.SiteDiagnostics._fields, result.sites)
    print(report, end="")
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for name, module in _HOMES.items():
        if module in args.modules and name not in globals():  # a name patched here stays patched
            __getattr__(name)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return args.handler(args, out)
    except (ComsliceError, OSError) as exc:  # OSError: e.g. --out names a file
        for attr in ("filename", "filename2"):  # an OSError's str quotes its file names whole
            if isinstance(getattr(exc, attr, None), str):
                setattr(exc, attr, clip(getattr(exc, attr)))
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    status = run()
    gc.freeze()  # shutdown's last collection skips frozen objects; the OS frees them at exit anyway
    sys.exit(status)


if __name__ == "__main__":
    main()
