"""Every record comslice hands out is immutable, and survives pickling (the --workers pool pickles Rules)."""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from comslice.audit import AuditResult, NoiseMeasurement, SiteDiagnostics, Thresholds
from comslice.corpus import Page, Site, load_corpus
from comslice.encoding import Pattern, Rule
from comslice.linkgraph import CrosstabRow, Link, MutualGraph
from comslice.slicer import Comment, SlicedPage, SliceError, UniformSizeWarning

from conftest import CLOSE, COMMENT_SEP, OPEN, fragment, make_precise_rule, page_bytes, write_corpus

RECORDS = [
    Site, Page, Pattern, Rule, SliceError, UniformSizeWarning, SlicedPage, Comment,
    Link, CrosstabRow, MutualGraph, Thresholds, NoiseMeasurement, SiteDiagnostics, AuditResult,
]

_DIAGNOSTICS = SiteDiagnostics("s1", "blog", 2, 1, 40, 400, 3, 1)
_ERROR = SliceError("s1", "s1/p.html", "missing_closure")
_MEASUREMENT = NoiseMeasurement(0.5, 0.25, 0.125, 4, 2, 10, 30)
# one instance of each record, its fields of the types comslice fills them with
SAMPLES = [
    Site("s1", "blog", ("s1.org", "www.s1.org/blog")),
    Page("s1", "s1/p.html", b"<p>x</p>"),
    Pattern("regex", r"<p>([^<]*)</p>"),
    make_precise_rule(),
    _ERROR,
    UniformSizeWarning("s1", 40, 2),
    SlicedPage("s1", "s1/p.html", b"<p>x</p><div>c</div>", ((8, 20),)),
    Comment("s1", "s1/p.html", 0, 8, 20, "zoe", "2021-05-06", 1, "http://u.example/zoe", "salut"),
    Link("s1", "s1/p.html", 9, "http://s2.org/", "s2", True),
    CrosstabRow("blog", "press", 3, 1),
    MutualGraph(("s1", "s2"), frozenset({("s1", "s2")})),
    Thresholds(),
    _MEASUREMENT,
    _DIAGNOSTICS,
    AuditResult(2, _MEASUREMENT, Thresholds(link_noise=0.1), (_DIAGNOSTICS,), (_ERROR,)),
]


def test_there_is_one_sample_per_record():
    assert [type(sample) for sample in SAMPLES] == RECORDS


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_refuse_assignment(record):
    # AttributeError, of which the frozen dataclasses' FrozenInstanceError was a subclass
    instance = record(*(None for _ in record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)


@pytest.fixture
def loaded_page(tmp_path):
    root, manifest = write_corpus(
        tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages={("s1", "s1/p.html"): b"x"}
    )
    (page,) = load_corpus(root, manifest).pages
    return page


def test_a_loaded_page_refuses_assignment_before_and_after_reading_its_bytes(loaded_page):
    for _ in range(2):
        for name in (*Page._fields, "extra"):  # raw_bytes is read from the file, not a tuple slot
            with pytest.raises(AttributeError):
                setattr(loaded_page, name, b"y")
        assert loaded_page.raw_bytes == b"x"


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda sample: type(sample).__name__)
def test_records_survive_pickling(sample):
    copy = pickle.loads(pickle.dumps(sample))
    assert type(copy) is type(sample)
    assert copy == sample
    assert repr(copy) == repr(sample)


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_a_loaded_page_survives_pickling(loaded_page, read_first):
    if read_first:
        loaded_page.raw_bytes
    copy = pickle.loads(pickle.dumps(loaded_page))
    assert type(copy) is type(loaded_page)
    assert (repr(copy), hash(copy)) == (repr(loaded_page), hash(loaded_page))
    assert copy == loaded_page  # compares the fields, reading no file
    assert copy.raw_bytes == b"x"


_PAGE = page_bytes(
    fragments=[fragment(author="Zoe", date="2021-05-06", depth=2, url="http://u.example/zoe", text="salut")] * 2
)


def _matches(rule: Rule) -> dict[str, list[tuple[int, int]]]:
    """Where each of the rule's patterns matches _PAGE."""
    return {
        name: [m.span() for m in pattern.regex.finditer(_PAGE)]
        for name, pattern in rule._asdict().items()
        if isinstance(pattern, Pattern)
    }


def test_a_compiled_rule_matches_the_same_bytes_once_unpickled_here_and_in_a_worker():
    rule = make_precise_rule()
    here = _matches(rule)  # compiles every pattern
    assert len(here) == 8 and all(here.values())
    assert {OPEN, CLOSE, COMMENT_SEP} <= {_PAGE[s:e] for spans in here.values() for s, e in spans}
    assert _matches(pickle.loads(pickle.dumps(rule))) == here
    with ProcessPoolExecutor(max_workers=1) as pool:  # pickles the rule as --workers does
        assert pool.submit(_matches, rule).result() == here
