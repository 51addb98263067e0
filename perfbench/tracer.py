"""In-process spans and counters around comslice's public functions.

``Tracer.install()`` replaces each function in the module namespace where
its caller looks it up (``comslice.cli.slice_corpus_parallel``,
``comslice.linkgraph.resolve_url``, ...) with a wrapper, and
``uninstall()`` puts the originals back. Nothing inside comslice changes.

Spans and counters stay in memory until the pass ends. A function called
once per page or per anchor is a *leaf*: its calls under one parent span
merge into one record with a call count, which keeps the trace small and
the wrapper cheap. ``normalize_url`` runs millions of times, so it is
only counted.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

# (module where the caller looks the name up, attribute, span name, leaf)
SPANNED = (
    ("comslice.cli", "load_corpus", "corpus.load_corpus", False),
    ("comslice.cli", "parse_encoding_file", "encoding.parse_encoding_file", False),
    ("comslice.cli", "slice_corpus_parallel", "slicer.slice", False),
    ("comslice.audit", "slice_corpus", "slicer.slice", False),
    ("comslice.cli", "build_error_report", "slicer.build_error_report", False),
    ("comslice.cli", "precise_slice", "slicer.precise_slice", True),
    ("comslice.audit", "precise_slice", "slicer.precise_slice", True),
    ("comslice.cli", "extract_all_links", "linkgraph.extract_all_links", False),
    ("comslice.audit", "extract_all_links", "linkgraph.extract_all_links", False),
    ("comslice.cli", "iter_hrefs", "linkgraph.iter_hrefs", True),
    ("comslice.linkgraph", "iter_hrefs", "linkgraph.iter_hrefs", True),
    ("comslice.linkgraph", "resolve_url", "corpus.resolve_url", True),
    ("comslice.cli", "crosstab", "linkgraph.crosstab", False),
    ("comslice.cli", "mutual_link_graph", "linkgraph.mutual_link_graph", False),
    ("comslice.cli", "components", "linkgraph.components", False),
    ("comslice.cli", "write_gexf", "linkgraph.write_gexf", False),
    ("comslice.cli", "corpus_token_counts", "textstats.corpus_token_counts", False),
    ("comslice.audit", "corpus_token_counts", "textstats.corpus_token_counts", False),
    ("comslice.cli", "top_k", "textstats.top_k", False),
    ("comslice.textstats", "tokenize", "textstats.tokenize", True),
    ("comslice.audit", "tokenize", "textstats.tokenize", True),
    ("comslice.audit", "jsd", "textstats.jsd", False),
    ("comslice.audit", "run_audit", "audit.run_audit", False),
    ("comslice.audit", "sample_corpus", "audit.sample_corpus", False),
    ("comslice.audit", "measure_noise", "audit.measure_noise", False),
    ("comslice.audit", "site_diagnostics", "audit.site_diagnostics", False),
)

COUNTED = (("comslice.corpus", "normalize_url", "corpus.normalize_url.calls"),)


@dataclass
class Span:
    name: str
    subcommand: str
    parent: int | None
    start: float
    end: float = 0.0
    busy: float = 0.0  # summed call durations; end - start for a single call
    calls: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)  # keyed by (subcommand, name)
    missing: set[str] = field(default_factory=set)  # patch points the code no longer has
    _stack: list[int] = field(default_factory=list)
    _leaves: dict = field(default_factory=dict)  # (parent, name) -> span index
    _in_leaf: bool = False
    _subcommand: str = ""
    _saved: list = field(default_factory=list)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[(self._subcommand, name)] += n

    def root(self, subcommand: str, fn, *args):
        """Run fn as the root span ``cli.run`` of one subcommand."""
        self._subcommand = subcommand
        return self._span("cli.run", fn, args, {})

    def _span(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._subcommand, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.busy = span.end - span.start
            span.calls = 1
            self._stack.pop()

    def _leaf(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        self._in_leaf = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._in_leaf = False
            key = (parent, name)
            index = self._leaves.get(key)
            if index is None:
                index = self._leaves[key] = len(self.spans)
                self.spans.append(Span(name, self._subcommand, parent, start))
            span = self.spans[index]
            span.end = end
            span.busy += end - start
            span.calls += 1

    def _wrap(self, name: str, fn, leaf: bool):
        observe = _OBSERVERS.get(name)
        run = self._leaf if leaf else self._span
        if name in _MATERIALIZED:
            generator = fn

            def fn(*args, **kwargs):
                return list(generator(*args, **kwargs))

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                result = fn(*args, **kwargs)
            else:
                result = run(name, fn, args, kwargs)
            if observe is not None:
                result = observe(self, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counters[(self._subcommand, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, leaf in SPANNED:
            self._patch(module_name, attr, lambda fn, name=name, leaf=leaf: self._wrap(name, fn, leaf))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, lambda fn, name=name: self._counted(name, fn))

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's busy time minus the busy time of its direct children."""
        own = [s.busy for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.busy
        return own


def _observe_corpus(tracer: Tracer, args, corpus):
    tracer.count("corpus.load_corpus.bytes", sum(len(p.raw_bytes) for p in corpus.pages))
    return corpus


def _observe_slice(tracer: Tracer, args, result):
    sliced, errors = result
    tracer.count("slicer.pages", len(sliced))
    tracer.count("slicer.sections", sum(len(p.section_spans) for p in sliced))
    for error in errors:
        tracer.count(f"slicer.errors.{error.kind}")
    return result


def _observe_precise(tracer: Tracer, args, result):
    comments, errors = result
    tracer.count("slicer.comments", len(comments))
    for error in errors:
        tracer.count(f"slicer.errors.{error.kind}")
    return result


def _observe_links(tracer: Tracer, args, links):
    tracer.count("linkgraph.links", len(links))
    tracer.count("linkgraph.links.in_comment", sum(1 for link in links if link.in_comment))
    return links


def _observe_hrefs(tracer: Tracer, args, hrefs):
    tracer.count("linkgraph.iter_hrefs.anchors", len(hrefs))
    return iter(hrefs)


def _observe_resolve(tracer: Tracer, args, site_id):
    tracer.count("corpus.resolve_url.calls")
    tracer.count("corpus.resolve_url.resolved", site_id is not None)
    return site_id


def _observe_tokenize(tracer: Tracer, args, tokens):
    tracer.count("textstats.tokenize.calls")
    tracer.count("textstats.tokenize.bytes", len(args[0]))
    return tokens


# generators: drained inside the span so their work is timed
_MATERIALIZED = {"linkgraph.iter_hrefs"}

_OBSERVERS = {
    "corpus.load_corpus": _observe_corpus,
    "slicer.slice": _observe_slice,
    "slicer.precise_slice": _observe_precise,
    "linkgraph.extract_all_links": _observe_links,
    "linkgraph.iter_hrefs": _observe_hrefs,
    "corpus.resolve_url": _observe_resolve,
    "textstats.tokenize": _observe_tokenize,
}
