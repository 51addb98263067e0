"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
from comslice import cli  # noqa: E402
from generate import Params, generate, load_stopwords  # noqa: E402
from run import SUBCOMMANDS, WORKLOADS, cli_args, rewrite_in_place  # noqa: E402
from tracer import Tracer  # noqa: E402
from verify import check, digest_tree  # noqa: E402

STOPWORDS = load_stopwords(HERE.parent / "src" / "comslice" / "data" / "stopwords_fr.txt")

SMALL = Params(
    pages=40, sites=6, prefixes_per_site=2, labels=3, anchors_per_page=8,
    registered_share=0.6, comment_link_share=0.3, precise_share=0.5,
    none_share=0.1, unclosed_share=0.1, page_bytes=1500,
)
WORKLOAD = WORKLOADS["bulk-slice"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("bench") / "corpus"
    return corpus_dir, generate(corpus_dir, SMALL, 3, STOPWORDS)


def run_cli(subcommand: str, corpus_dir: Path, out: Path) -> str:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert cli.run(cli_args(subcommand, corpus_dir, out, WORKLOAD, 1)) == 0
    return captured.getvalue()


def test_same_seed_gives_identical_corpus_and_truth(tmp_path):
    generate(tmp_path / "a", SMALL, 7, STOPWORDS)
    generate(tmp_path / "b", SMALL, 7, STOPWORDS)
    generate(tmp_path / "c", SMALL, 8, STOPWORDS)
    first = digest_tree(tmp_path / "a")
    assert "truth.json" in first and len(first) == SMALL.pages + 3
    assert digest_tree(tmp_path / "b") == first
    assert digest_tree(tmp_path / "c") != first


def test_truth_covers_every_page_kind(corpus):
    _, truth = corpus
    totals = truth["totals"]
    assert {p["kind"] for p in truth["pages"]} == {"closed", "none", "unclosed"}
    assert totals["errors"]["missing_opening"] and totals["errors"]["missing_closure"]
    assert 0 < totals["resolved_in_comment"] < totals["resolved"] < totals["anchors"]
    assert totals["tokens_without_comments"] < totals["tokens_with_comments"]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_check_accepts_the_cli_output(corpus, tmp_path, subcommand):
    corpus_dir, truth = corpus
    stdout = run_cli(subcommand, corpus_dir, tmp_path)
    assert check(subcommand, tmp_path, stdout, truth, WORKLOAD.sample_n) == []


def test_flipped_byte_in_stripped_file_is_a_failure(corpus, tmp_path):
    corpus_dir, truth = corpus
    stdout = run_cli("slice-rough", corpus_dir, tmp_path / "out")
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "out", copy)
    victim = copy / "stripped" / truth["pages"][5]["path"]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    assert check("slice-rough", tmp_path / "out", stdout, truth) == []
    problems = check("slice-rough", copy, stdout, truth)
    assert problems == [f"stripped/{truth['pages'][5]['path']} differs from truth"]


def test_dropped_edge_row_is_a_failure(corpus, tmp_path):
    corpus_dir, truth = corpus
    stdout = run_cli("links", corpus_dir, tmp_path)
    edges = tmp_path / "edges.csv"
    lines = edges.read_bytes().splitlines(keepends=True)
    edges.write_bytes(b"".join(lines[:3] + lines[4:]))
    problems = check("links", tmp_path, stdout, truth)
    assert any("edges.csv rows digest" in p for p in problems)


def test_output_not_rewritten_in_place_is_a_failure(corpus, tmp_path):
    corpus_dir, truth = corpus
    leftover = tmp_path / "stripped" / "leftover.html"
    leftover.parent.mkdir(parents=True)
    leftover.write_bytes(b"from a run with another seed")
    stdout, problems = rewrite_in_place(tmp_path, True, lambda: run_cli("slice-rough", corpus_dir, tmp_path))
    assert problems == [] and not leftover.exists()
    assert check("slice-rough", tmp_path, stdout, truth) == []
    leftover.write_bytes(b"from an earlier invocation")
    stdout, problems = rewrite_in_place(tmp_path, False, lambda: run_cli("slice-rough", corpus_dir, tmp_path))
    assert problems == ["stripped/leftover.html was not rewritten"]


def test_self_times_add_up_to_the_root_span(corpus, tmp_path):
    corpus_dir, _ = corpus
    original = cli.slice_corpus_parallel
    tracer = Tracer()
    tracer.install()
    try:
        for sub in SUBCOMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert tracer.root(sub, cli.run, cli_args(sub, corpus_dir, tmp_path / sub, WORKLOAD, 1)) == 0
    finally:
        tracer.uninstall()
    assert cli.slice_corpus_parallel is original
    assert not tracer.missing
    own = tracer.self_times()
    roots = [i for i, span in enumerate(tracer.spans) if span.parent is None]
    assert [tracer.spans[i].subcommand for i in roots] == list(SUBCOMMANDS)
    for i in roots:
        subtree = {i}
        for j, span in enumerate(tracer.spans):
            if span.parent in subtree:
                subtree.add(j)
        assert sum(own[j] for j in subtree) == pytest.approx(tracer.spans[i].busy, rel=1e-9, abs=1e-9)
        assert all(own[j] > -1e-9 for j in subtree)
    names = {span.name for span in tracer.spans}
    assert {"corpus.resolve_url", "slicer.slice", "textstats.tokenize", "audit.measure_noise"} <= names


def test_calibration_repeats_the_same_work_without_comslice():
    first = calibrate.main()
    assert calibrate.main() == first
    result = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "calibrate.py")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == first
    assert "comslice" not in result.stderr


def test_benchmark_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-slice", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0 and result.stdout == ""
