"""Shared fixture builders: tiny corpora on disk, slicing rules in memory and on
disk (write_encoding_file), the partition oracle (assert_partition), the
descriptor-leak guard (no_fd_leak), and the import probes (modules_imported_by,
modules_logged_by)."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from comslice.corpus import Corpus, Page, load_corpus
from comslice.encoding import ABSENT, ENCODING_COLUMNS, REGEX_PREFIX, Pattern, Rule
from comslice.slicer import SlicedPage, SliceError, slice_corpus

# Standard delimiters used by most fixtures. Sections span from the start
# of OPEN to the end of CLOSE, so an empty section is exactly OPEN + CLOSE.
OPEN = b'<div id="comments">'
CLOSE = b'<!-- COMMENTS END -->'
COMMENT_SEP = b'<div class="comment">'
EMPTY_SIZE = len(OPEN) + len(CLOSE)


def make_rule(**overrides) -> Rule:
    """A rough-slicing rule with the standard delimiters; override freely."""
    fields = dict(
        site_id="s1",
        label="blog",
        has_comments=True,
        open_pattern=Pattern("literal", OPEN.decode()),
        close_pattern=Pattern("literal", CLOSE.decode()),
        empty_size=None,
        comment_pattern=None,
        date_pattern=None,
        author_pattern=None,
        depth_pattern=None,
        author_url_pattern=None,
        text_pattern=None,
    )
    fields.update(overrides)
    return Rule(**fields)


def make_precise_rule(**overrides) -> Rule:
    """The standard rule plus field extraction patterns for fixture comments."""
    fields = dict(
        empty_size=EMPTY_SIZE,
        comment_pattern=Pattern("literal", COMMENT_SEP.decode()),
        author_pattern=Pattern("literal", '<span class="author">'),
        date_pattern=Pattern("regex", r'<span class="date">([^<]*)</span>'),
        depth_pattern=Pattern("regex", r'class="depth-(\d+)"'),
        author_url_pattern=Pattern("regex", r'<a class="url" href="([^"]*)"'),
        text_pattern=Pattern("regex", r"<p>([^<]*)</p>"),
    )
    fields.update(overrides)
    return make_rule(**fields)


def _format_cell(value: object) -> str:
    if value is None:
        return ABSENT
    if not isinstance(value, Pattern):
        return str(value)
    if value.kind == "regex":
        return REGEX_PREFIX + value.source
    if value.source in ("", ABSENT) or value.source.startswith(REGEX_PREFIX):
        raise ValueError(f"literal pattern {value.source!r} cannot be written losslessly")
    return value.source


def write_encoding_file(rules: dict[str, Rule], path: str | Path) -> None:
    """Write rules out in the CSV layout parse_encoding_file reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENCODING_COLUMNS)
        for rule in rules.values():
            writer.writerow([_format_cell(getattr(rule, col)) for col in ENCODING_COLUMNS])


def fragment(
    author: str | None = None,
    date: str | None = None,
    depth: int | None = None,
    url: str | None = None,
    text: str | None = None,
) -> bytes:
    """One comment fragment in the layout make_precise_rule expects."""
    parts = [COMMENT_SEP]
    if author is not None:
        parts.append(f'<span class="author">{author}</span>'.encode())
    if date is not None:
        parts.append(f'<span class="date">{date}</span>'.encode())
    if depth is not None:
        parts.append(f'<i class="depth-{depth}"></i>'.encode())
    if url is not None:
        parts.append(f'<a class="url" href="{url}">profile</a>'.encode())
    if text is not None:
        parts.append(f"<p>{text}</p>".encode())
    return b"".join(parts)


def page_bytes(
    main_before: bytes = b"<html><body><p>article</p>",
    fragments: list[bytes] | None = None,
    main_after: bytes = b"<footer>fin</footer></body></html>",
) -> bytes:
    """A page holding one comment section (or none when fragments is None)."""
    if fragments is None:
        return main_before + main_after
    return main_before + OPEN + b"".join(fragments) + CLOSE + main_after


def write_corpus(
    base: Path,
    sites: dict[str, tuple[str, list[str]]],
    pages: dict[tuple[str, str], bytes],
) -> tuple[Path, Path]:
    """Write a corpus directory and manifest; returns (root, manifest path).

    sites maps site_id -> (label, url_prefixes); pages maps
    (site_id, page_path) -> raw bytes.
    """
    root = base / "corpus"
    root.mkdir(parents=True, exist_ok=True)
    manifest = base / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "label", "page_path", "url_prefixes"])
        for site_id, (label, prefixes) in sites.items():
            writer.writerow([site_id, label, "", "|".join(prefixes)])
        for (site_id, page_path), _ in pages.items():
            writer.writerow([site_id, "", page_path, ""])
    for (site_id, page_path), raw in pages.items():
        target = root / page_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(raw)
    return root, manifest


def corpus_in_memory(
    sites: dict[str, tuple[str, list[str]]],
    pages: dict[tuple[str, str], bytes],
) -> Corpus:
    """Build a Corpus without touching disk."""
    from comslice.corpus import Site

    registry = [
        Site(site_id=sid, label=label, url_prefixes=tuple(prefixes))
        for sid, (label, prefixes) in sites.items()
    ]
    page_list = [
        Page(site_id=sid, page_path=path, raw_bytes=raw)
        for (sid, path), raw in pages.items()
    ]
    return Corpus(registry=registry, pages=page_list)


def slice_page(
    raw: bytes, rule: Rule | None = None, path: str = "p.html"
) -> tuple[SlicedPage, list[SliceError]]:
    """One page of site s1 through slice_corpus: (SlicedPage, its errors)."""
    page = Page(site_id="s1", page_path=path, raw_bytes=raw)
    (sliced,), errors = slice_corpus([page], {"s1": rule or make_rule()})
    return sliced, errors


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, maps serially."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def reassembled(sliced: SlicedPage) -> bytes:
    """The bytes of every main and section span, joined in offset order."""
    spans = sorted(sliced.main_spans + sliced.section_spans)
    return b"".join(sliced.raw_bytes[s:e] for s, e in spans)


def assert_partition(sliced) -> None:
    """Spans must partition [0, len) exactly and reassemble the raw bytes."""
    spans = sorted(sliced.main_spans + sliced.section_spans)
    assert all(start < end for start, end in spans), "empty span"
    for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
        assert prev_end == next_start, "gap or overlap between spans"
    if spans:
        assert spans[0][0] == 0
        assert spans[-1][1] == len(sliced.raw_bytes)
    else:
        assert sliced.raw_bytes == b""
    assert not set(sliced.main_spans) & set(sliced.section_spans)
    assert reassembled(sliced) == sliced.raw_bytes


@pytest.fixture
def two_site_corpus(tmp_path):
    """Two sites linking to each other from main content and comments."""
    sites = {
        "alpha": ("blog", ["alpha.example.org"]),
        "beta": ("press", ["beta.example.org"]),
    }
    pages = {
        ("alpha", "alpha/a1.html"): page_bytes(
            main_before=b'<body><a href="http://beta.example.org/news">beta</a>',
            fragments=[
                fragment(author="zoe", text="lisez ceci")
                + b'<a href="https://beta.example.org/spam">spam</a>',
            ],
        ),
        ("beta", "beta/b1.html"): page_bytes(
            main_before=b'<body><a href="http://alpha.example.org/">alpha</a>'
            b'<a href="http://elsewhere.net/x">ext</a>',
            fragments=[fragment(author="ana", text="bonjour")],
        ),
    }
    root, manifest = write_corpus(tmp_path, sites, pages)
    return load_corpus(root, manifest)


def _open_fds(fd_dir: str) -> dict[str, str]:
    """Each descriptor listed in fd_dir that is still open, with what it points to."""
    fds = {}
    for fd in os.listdir(fd_dir):
        try:
            fds[fd] = os.readlink(f"{fd_dir}/{fd}")
        except OSError:  # the descriptor listdir read fd_dir through, closed by now
            pass
    return fds


@pytest.fixture
def no_fd_leak():
    """Fail the test if it ends with a file descriptor open that it did not start with.

    A leaked file object fails the suite through its ResourceWarning (see
    pyproject.toml), but a raw descriptor from os.open warns about nothing.
    Checks only where /proc/self/fd lists the process's descriptors.
    """
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        yield
        return
    before = _open_fds(fd_dir)
    yield
    after = _open_fds(fd_dir)
    left = {fd: after[fd] for fd in after.keys() - before.keys()}
    assert not left, f"file descriptors left open: {left}"


def modules_imported_by(statement: str) -> set[str]:
    """The modules that running statement in a fresh interpreter adds to sys.modules.

    Compared with the modules loaded before it, so what site loads does not count. The
    list goes to the process's own stdout, so statement may redirect sys.stdout.
    """
    code = (
        f"import sys; before = set(sys.modules); {statement}; "
        "print(*sorted(set(sys.modules) - before), file=sys.__stdout__)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def modules_logged_by(*args: str) -> set[str]:
    """The modules that python -X importtime logs in a child interpreter run with args.

    The log lists a module that __import__ or an import statement loads, but not one
    that importlib.import_module loads.
    """
    done = subprocess.run([sys.executable, "-X", "importtime", *args], env=src_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {line.rpartition("|")[2].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}


def src_env() -> dict[str, str]:
    """The environment for a child interpreter that imports comslice from this tree's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
