"""End-to-end runs of every subcommand against a small on-disk corpus."""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import errno
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path, PurePosixPath

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from comslice import cli
from comslice import corpus as corpus_mod
from comslice.audit import Thresholds, sample_corpus
from comslice.cli import run
from comslice.corpus import load_corpus, page_file
from comslice.encoding import Pattern
from comslice.errors import ManifestError, clip

from conftest import (
    CLOSE,
    COMMENT_SEP,
    OPEN,
    RecordingPool,
    fragment,
    make_precise_rule,
    make_rule,
    modules_imported_by,
    modules_logged_by,
    page_bytes,
    src_env,
    write_corpus,
    write_encoding_file,
)

pytestmark = pytest.mark.usefixtures("no_fd_leak")  # every run here must close what it opens


@pytest.fixture
def workspace(tmp_path):
    """Corpus + encoding file on disk; returns paths and raw page bytes."""
    a1 = page_bytes(
        main_before=b'<body><h1>Article</h1><a href="http://beta.example.org/news">lire</a>',
        fragments=[
            fragment(
                author="Zoe",
                date="2021-05-06",
                depth=1,
                url="http://u.example/zoe",
                text="viagra viagra viagra",
            )
            + b'<a href="http://beta.example.org/spam">spam</a>',
            fragment(text="simple remarque"),
        ],
    )
    a2 = page_bytes(fragments=None)  # no comment section: triggers missing_opening
    b1 = page_bytes(
        main_before=b'<body><a href="http://alpha.example.org/">alpha</a>'
        b'<a href="http://nowhere.net/">ext</a><p>journal quotidien</p>',
        fragments=[],  # present but empty comment section
    )
    pages = {
        ("alpha", "alpha/a1.html"): a1,
        ("alpha", "alpha/a2.html"): a2,
        ("beta", "beta/b1.html"): b1,
    }
    root, manifest = write_corpus(
        tmp_path,
        sites={
            "alpha": ("blog", ["alpha.example.org"]),
            "beta": ("press", ["beta.example.org"]),
        },
        pages=pages,
    )
    encoding = tmp_path / "encoding.csv"
    write_encoding_file(
        {
            "alpha": make_precise_rule(site_id="alpha", label="blog"),
            "beta": make_precise_rule(site_id="beta", label="press"),
        },
        encoding,
    )
    out = tmp_path / "out"
    return {
        "root": root,
        "manifest": manifest,
        "encoding": encoding,
        "out": out,
        "pages": pages,
    }


def base_args(ws, command: str) -> list[str]:
    return [
        command,
        "--corpus",
        str(ws["root"]),
        "--manifest",
        str(ws["manifest"]),
        "--encoding",
        str(ws["encoding"]),
        "--out",
        str(ws["out"]),
    ]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_slice_rough_outputs(workspace, capsys):
    assert run(base_args(workspace, "slice-rough")) == 0
    out = workspace["out"]

    raw_a1 = workspace["pages"][("alpha", "alpha/a1.html")]
    stripped = (out / "stripped/alpha/a1.html").read_bytes()
    section = (out / "sections/alpha/a1.html.section-0.html").read_bytes()
    assert section.startswith(OPEN) and section.endswith(CLOSE)
    assert stripped == raw_a1.replace(section, b"")

    # a page that failed slicing is passed through whole
    raw_a2 = workspace["pages"][("alpha", "alpha/a2.html")]
    assert (out / "stripped/alpha/a2.html").read_bytes() == raw_a2

    details = read_csv(out / "error_report.csv")
    assert {(r["site_id"], r["page_path"], r["kind"], r["detail"]) for r in details} == {
        ("alpha", "alpha/a2.html", "missing_opening", "")
    }
    summary = read_csv(out / "error_summary.csv")
    assert {(r["site_id"], r["kind"], r["count"]) for r in summary} == {
        ("alpha", "missing_opening", "1")
    }
    assert "sliced 3 pages into 2 comment sections" in capsys.readouterr().out


def test_slice_precise_comments_jsonl(workspace):
    assert run(base_args(workspace, "slice-precise")) == 0
    lines = (workspace["out"] / "comments.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 2
    assert list(records[0]) == [
        "site_id",
        "page_path",
        "index",
        "span_start",
        "span_end",
        "author",
        "date",
        "depth",
        "author_url",
        "text",
    ]
    first, second = records
    assert first["author"] == "Zoe"
    assert first["date"] == "2021-05-06"
    assert first["depth"] == 1
    assert first["author_url"] == "http://u.example/zoe"
    assert first["text"] == "viagra viagra viagra"
    assert second["author"] is None and second["text"] == "simple remarque"
    assert [r["index"] for r in records] == [0, 1]

    raw = workspace["pages"][("alpha", "alpha/a1.html")]
    for record in records:
        assert raw[record["span_start"]:record["span_end"]].startswith(COMMENT_SEP)


def test_links_edge_table(workspace, capsys):
    assert run(base_args(workspace, "links")) == 0
    rows = read_csv(workspace["out"] / "edges.csv")
    assert [(r["src_site"], r["dst_site"], r["location"], r["src_page"], r["url"]) for r in rows] == [
        ("alpha", "beta", "main", "alpha/a1.html", "http://beta.example.org/news"),
        ("alpha", "beta", "comment", "alpha/a1.html", "http://beta.example.org/spam"),
        ("beta", "alpha", "main", "beta/b1.html", "http://alpha.example.org/"),
    ]
    # anchors pointing outside the registry (nowhere.net, the commenter
    # profile on u.example) are counted in the diagnostics but emit no row
    assert "found 5 anchors; 3 resolved to registered sites, 2 external" in capsys.readouterr().out


def test_crosstab_csv(workspace):
    assert run(base_args(workspace, "crosstab")) == 0
    rows = read_csv(workspace["out"] / "crosstab.csv")
    assert [(r["src_label"], r["dst_label"], r["outside"], r["inside"], r["proportion"]) for r in rows] == [
        ("blog", "press", "1", "1", "0.50"),
        ("press", "blog", "1", "0", "0.00"),
    ]


def test_graph_gexf(workspace, capsys):
    assert run(base_args(workspace, "graph")) == 0
    loaded = nx.read_gexf(workspace["out"] / "graph.gexf")
    assert set(loaded.nodes) == {"alpha", "beta"}
    assert loaded.nodes["alpha"]["label"] == "blog"
    assert set(map(frozenset, loaded.edges)) == {frozenset({"alpha", "beta"})}
    assert "2 nodes, 1 mutual edges, 1 components" in capsys.readouterr().out
    assert run(base_args(workspace, "graph") + ["--include-comments"]) == 0


@pytest.mark.parametrize(
    "row, column",
    [("gam\x01ma,press,,gamma.example.org", "site_id"), ("gamma,pr\x0bess,,gamma.example.org", "label")],
    ids=["site_id", "label"],
)
def test_manifest_character_that_xml_forbids_exits_1(workspace, capsys, row, column):
    # written into graph.gexf, such a character would make the file ill-formed
    with open(workspace["manifest"], "a", encoding="utf-8") as fh:
        fh.write(row + "\r\n")
    assert run(base_args(workspace, "graph")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and f"row 7: {column} holds" in err
    assert not (workspace["out"] / "graph.gexf").exists()


def test_tokens_tables(workspace):
    assert run(base_args(workspace, "tokens") + ["--top-k", "5"]) == 0
    with_rows = read_csv(workspace["out"] / "tokens_with_comments.csv")
    without_rows = read_csv(workspace["out"] / "tokens_without_comments.csv")
    assert len(with_rows) <= 5
    with_tokens = {r["token"]: int(r["count"]) for r in with_rows}
    without_tokens = {r["token"] for r in without_rows}
    assert with_tokens["viagra"] == 3
    assert "viagra" not in without_tokens


def test_audit_outputs(workspace, capsys):
    assert run(base_args(workspace, "audit") + ["--sample-n", "10", "--seed", "1"]) == 0
    out = workspace["out"]
    text = (out / "audit.txt").read_text(encoding="utf-8")
    assert "decision: SLICE" in text
    metrics = {r["metric"]: r for r in read_csv(out / "audit.csv")}
    assert set(metrics) == {"link_noise", "token_noise", "text_divergence"}
    assert metrics["link_noise"]["exceeded"] == "true"
    sites = {r["site_id"]: r for r in read_csv(out / "audit_sites.csv")}
    assert sites["alpha"]["pages"] == "2"
    assert sites["alpha"]["comments"] == "2"
    assert text == capsys.readouterr().out


def test_audit_token_counts_add_up_to_the_tokens_totals(tmp_path, capsys):
    pages = {
        # a section that touches words on both sides, and one inside <script>
        ("s1", "joined.html"): page_bytes(
            main_before=b"<p>bonjour", fragments=[b"salut"], main_after=b"monde</p>"
        ),
        ("s1", "script.html"): page_bytes(
            main_before=b"<p>texte</p><script>", fragments=[b"cache"], main_after=b"</script>"
        ),
    }
    root, manifest = write_corpus(tmp_path, sites={"s1": ("blog", ["s1.org"])}, pages=pages)
    encoding = tmp_path / "encoding.csv"
    write_encoding_file({"s1": make_rule()}, encoding)
    ws = {"root": root, "manifest": manifest, "encoding": encoding, "out": tmp_path / "out"}
    assert run(base_args(ws, "tokens")) == 0
    assert run(base_args(ws, "audit") + ["--sample-n", "10"]) == 0
    out = capsys.readouterr().out
    with_total, without_total = map(int, re.search(r"tokens: (\d+) with comments, (\d+) without", out).groups())
    section, main = map(int, re.search(r"\[(\d+) comment tokens vs (\d+) main tokens\]", out).groups())
    assert (section + main, main) == (with_total, without_total) == (4, 3)


def test_audit_respects_thresholds(workspace):
    args = base_args(workspace, "audit") + [
        "--threshold-link",
        "0.99",
        "--threshold-token",
        "0.99",
        "--threshold-divergence",
        "0.99",
    ]
    assert run(args) == 0
    assert "KEEP AS-IS" in (workspace["out"] / "audit.txt").read_text(encoding="utf-8")


def test_parallel_workers_give_identical_files(workspace, tmp_path):
    serial_out = tmp_path / "serial"
    parallel_out = tmp_path / "parallel"
    args = base_args(workspace, "slice-rough")
    assert run(args[:-1] + [str(serial_out), "--workers", "1"]) == 0
    assert run(args[:-1] + [str(parallel_out), "--workers", "3"]) == 0
    serial_files = sorted(p.relative_to(serial_out) for p in serial_out.rglob("*") if p.is_file())
    parallel_files = sorted(
        p.relative_to(parallel_out) for p in parallel_out.rglob("*") if p.is_file()
    )
    assert serial_files == parallel_files
    for rel in serial_files:
        assert (serial_out / rel).read_bytes() == (parallel_out / rel).read_bytes()


def test_audit_slices_its_sample_in_the_worker_pool(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    args = base_args(workspace, "audit")[:-1]
    assert run(args + [str(tmp_path / "serial"), "--workers", "1"]) == 0
    assert run(args + [str(tmp_path / "parallel"), "--workers", "2"]) == 0  # a real pool
    for name in ("audit.txt", "audit.csv", "audit_sites.csv"):
        serial = (tmp_path / "serial" / name).read_bytes()
        assert (tmp_path / "parallel" / name).read_bytes() == serial
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert run(args + [str(tmp_path / "recorded"), "--workers", "2"]) == 0
    assert RecordingPool.sizes == [2]  # the three sampled pages went through the pool
    capsys.readouterr()


def test_missing_manifest_exits_1(workspace, capsys):
    args = base_args(workspace, "slice-rough")
    args[args.index("--manifest") + 1] = str(workspace["root"] / "absent.csv")
    assert run(args) == 1
    assert "absent.csv" in capsys.readouterr().err


def test_missing_encoding_file_exits_1(workspace, capsys):
    args = base_args(workspace, "links")
    args[args.index("--encoding") + 1] = str(workspace["root"] / "noenc.csv")
    assert run(args) == 1
    assert "noenc.csv" in capsys.readouterr().err


def test_bad_encoding_file_exits_1(workspace, capsys):
    workspace["encoding"].write_text("site_id,oops\n", encoding="utf-8")
    assert run(base_args(workspace, "audit")) == 1
    assert "encoding" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["slice-rough", "audit"])
def test_encoding_label_that_disagrees_with_the_manifest_exits_1(workspace, capsys, command):
    write_encoding_file(
        {
            "alpha": make_precise_rule(site_id="alpha", label="blog"),
            "beta": make_precise_rule(site_id="beta", label="news"),  # the manifest says press
        },
        workspace["encoding"],
    )
    assert run(base_args(workspace, command)) == 1
    assert capsys.readouterr().err == (
        f"error: encoding file {workspace['encoding']} labels site beta 'news', "
        f"but manifest {workspace['manifest']} labels it 'press'\n"
    )
    assert list(workspace["out"].iterdir()) == []


LATIN1 = "café".encode("latin-1")


@pytest.mark.parametrize(
    "command, option, content",
    [
        ("links", "--out", b"a file, not a directory"),
        ("slice-rough", "--manifest", LATIN1),
        ("crosstab", "--encoding", LATIN1),
        ("tokens", "--stopwords", None),  # missing file
        ("audit", "--stopwords", None),
        ("tokens", "--stopwords", LATIN1),
        ("audit", "--stopwords", LATIN1),
        # a URL prefix with no host would own every root-relative href
        *(
            pytest.param(
                "links",
                "--manifest",
                b"site_id,label,page_path,url_prefixes\ns1,blog,," + prefix + b"\n",
                id=f"prefix {prefix.decode()}",
            )
            for prefix in (b"http://", b"#top", b"http:///x", b"?q")
        ),
    ],
)
def test_configuration_failures_exit_1(workspace, tmp_path, capsys, command, option, content):
    path = tmp_path / "config-file"
    if content is not None:
        path.write_bytes(content)
    args = base_args(workspace, command)
    if option in args:
        args[args.index(option) + 1] = str(path)
    else:
        args += [option, str(path)]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config-file" in err


@pytest.mark.parametrize("command", ["tokens", "audit"])
def test_empty_stopwords_path_exits_1(workspace, capsys, command):
    assert run(base_args(workspace, command) + ["--stopwords", ""]) == 1
    # the value given, not the "." that Path("") names
    assert capsys.readouterr().err == "error: stopword list not found: ''\n"


@pytest.mark.parametrize("option, what", [("--manifest", "manifest"), ("--encoding", "encoding file")])
def test_empty_config_path_is_named_as_given(workspace, capsys, option, what):
    args = base_args(workspace, "slice-rough")
    args[args.index(option) + 1] = ""
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {what} not found: ''\n"


def test_usage_errors_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["slice-rough"]) == 2  # missing required arguments
    capsys.readouterr()


@pytest.fixture
def golden_ws(tmp_path):
    """A precise site and a rough one, so every output column is exercised.

    The rough site (beta) has two empty sections of identical size and no
    empty_size, which raises a uniform_size_warning; its audit row keeps
    the comment columns empty.
    """
    pages = {
        ("alpha", "alpha/a1.html"): page_bytes(
            fragments=[fragment(author="Zoé", date="2021-05-06", depth=2, text="très bien")]
        ),
        ("alpha", "alpha/a2.html"): page_bytes(fragments=None),
        ("beta", "beta/b1.html"): page_bytes(fragments=[]),
        ("beta", "beta/b2.html"): page_bytes(fragments=[]),
    }
    root, manifest = write_corpus(
        tmp_path,
        sites={"alpha": ("blog", ["alpha.example.org"]), "beta": ("press", ["beta.example.org"])},
        pages=pages,
    )
    encoding = tmp_path / "encoding.csv"
    write_encoding_file(
        {
            "alpha": make_precise_rule(site_id="alpha", label="blog"),
            "beta": make_rule(site_id="beta", label="press"),
        },
        encoding,
    )
    return {"root": root, "manifest": manifest, "encoding": encoding, "out": tmp_path / "out"}


def test_golden_comments_jsonl_line(golden_ws):
    assert run(base_args(golden_ws, "slice-precise")) == 0
    assert (golden_ws["out"] / "comments.jsonl").read_bytes() == (
        '{"site_id": "alpha", "page_path": "alpha/a1.html", "index": 0, '
        '"span_start": 45, "span_end": 195, "author": "Zoé", "date": "2021-05-06", '
        '"depth": 2, "author_url": null, "text": "très bien"}\n'
    ).encode("utf-8")


def test_golden_error_summary_csv(golden_ws):
    assert run(base_args(golden_ws, "slice-rough")) == 0
    assert (golden_ws["out"] / "error_summary.csv").read_bytes() == (
        b"site_id,kind,count\r\n"
        b"alpha,missing_opening,1\r\n"
        b"beta,uniform_size_warning,2\r\n"
    )


def test_golden_audit_sites_csv(golden_ws):
    assert run(base_args(golden_ws, "audit")) == 0
    assert (golden_ws["out"] / "audit_sites.csv").read_bytes() == (
        b"site_id,label,pages,sections,comment_bytes,total_bytes,comments,commenter_urls\r\n"
        b"alpha,blog,2,1,169,289,1,0\r\n"
        b"beta,press,2,2,80,200,,\r\n"
    )


def test_golden_audit_csv(golden_ws):
    assert run(base_args(golden_ws, "audit")) == 0
    assert (golden_ws["out"] / "audit.csv").read_bytes() == (
        b"metric,value,threshold,exceeded\r\n"
        b"link_noise,0.0,0.05,false\r\n"
        b"token_noise,0.2727272727272727,0.05,true\r\n"
        b"text_divergence,0.1519602295264612,0.05,true\r\n"
    )


def test_golden_audit_txt(golden_ws):
    assert run(base_args(golden_ws, "audit")) == 0
    assert (golden_ws["out"] / "audit.txt").read_bytes() == (
        b"pages sampled: 4\n"
        b"link_noise: 0.0000 (threshold 0.05) [0/0 site-to-site links in comments]\n"
        b"token_noise: 0.2727 (threshold 0.05) [3 comment tokens vs 8 main tokens]\n"
        b"text_divergence: 0.1520 bits (threshold 0.05)\n"
        b"\n"
        b"decision: SLICE (exceeded: token_noise, text_divergence)\n"
        b"slicing errors in sample: missing_opening=1\n"
        b"\n"
        b"per-site footprint:\n"
        b"  alpha (blog): 2 pages, 1 sections, 58.5% of bytes in comments, 1 comments, 0 commenter urls\n"
        b"  beta (press): 2 pages, 2 sections, 40.0% of bytes in comments\n"
    )


@pytest.mark.parametrize(
    "command, option, value, status",
    [
        ("tokens", "--top-k", "0", 2),
        ("tokens", "--top-k", "-1", 2),
        ("tokens", "--top-k", "two", 2),
        ("tokens", "--top-k", "1", 0),
        ("audit", "--sample-n", "0", 2),
        ("audit", "--sample-n", "-5", 2),
        ("slice-rough", "--workers", "0", 2),
        ("links", "--workers", "-3", 2),
        ("audit", "--threshold-link", "-0.1", 2),
        ("audit", "--threshold-token", "1.5", 2),
        ("audit", "--threshold-divergence", "nan", 2),
        ("audit", "--threshold-link", "inf", 2),
        ("audit", "--threshold-link", "0", 0),
        ("audit", "--threshold-divergence", "1", 0),
    ],
)
def test_out_of_range_values_exit_2(workspace, capsys, command, option, value, status):
    assert run(base_args(workspace, command) + [option, value]) == status
    if status == 2:
        assert option in capsys.readouterr().err
        assert not workspace["out"].exists()


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_out_over_the_corpus_it_reads_exits_1_and_writes_nothing(workspace, capsys):
    ws = workspace["out"]
    assert run(base_args(workspace, "slice-rough")) == 0
    before = _tree(ws)
    # the stripped pages as a corpus, written back over themselves
    args = base_args(workspace, "slice-rough")
    args[args.index("--corpus") + 1] = str(ws / "stripped")
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {ws} would overwrite the page file ")
    assert f"of --corpus {ws / 'stripped'} with its stripped/" in err
    assert _tree(ws) == before


@pytest.mark.parametrize(
    "command, option, output",
    [
        ("links", "--manifest", "edges.csv"),
        ("slice-precise", "--encoding", "comments.jsonl"),
        ("tokens", "--stopwords", "tokens_without_comments.csv"),
        ("audit", "--stopwords", "audit.txt"),
    ],
)
def test_out_over_a_configuration_file_exits_1(workspace, capsys, command, option, output):
    args = base_args(workspace, command)
    config = workspace["out"] / output
    config.parent.mkdir()
    source = {"--manifest": workspace["manifest"], "--encoding": workspace["encoding"]}.get(option)
    config.write_bytes(source.read_bytes() if source else b"le\n")
    if option in args:
        args[args.index(option) + 1] = str(config)
    else:
        args += [option, str(config)]
    before = config.read_bytes()
    assert run(args) == 1
    assert capsys.readouterr().err.startswith(f"error: --out {workspace['out']} would overwrite the ")
    assert config.read_bytes() == before
    assert [p.name for p in workspace["out"].iterdir()] == [output]


def test_out_over_a_page_named_like_a_section_file_exits_1(workspace, capsys):
    # corpus root = out/sections: page a.html's first section would land on page a.html.section-0.html
    out = workspace["out"]
    sections = out / "sections"
    sections.mkdir(parents=True)
    raw = workspace["pages"][("alpha", "alpha/a1.html")]
    for name in ("a.html", "a.html.section-0.html"):
        (sections / name).write_bytes(raw)
    manifest = out.parent / "sections-manifest.csv"
    manifest.write_text(
        "site_id,label,page_path,url_prefixes\nalpha,blog,,alpha.example.org\n"
        "alpha,,a.html,\nalpha,,a.html.section-0.html,\n",
        encoding="utf-8",
    )
    args = base_args(workspace, "slice-rough")
    args[args.index("--corpus") + 1] = str(sections)
    args[args.index("--manifest") + 1] = str(manifest)
    assert run(args) == 1
    assert "with its sections/a.html.section-0.html" in capsys.readouterr().err
    assert sorted(p.name for p in sections.iterdir()) == ["a.html", "a.html.section-0.html"]


def test_out_whose_stripped_tree_links_to_the_corpus_exits_1(workspace, capsys):
    workspace["out"].mkdir()
    (workspace["out"] / "stripped").symlink_to(workspace["root"], target_is_directory=True)
    before = _tree(workspace["root"])
    assert run(base_args(workspace, "slice-precise")) == 1
    assert "would overwrite the page file alpha/a1.html" in capsys.readouterr().err
    assert _tree(workspace["root"]) == before


def _subcommands() -> list[str]:
    """Every subcommand build_parser() declares, sorted."""
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(subparsers.choices)


# each subcommand's options beyond the common ones, with their defaults
_EXTRA_OPTIONS = {
    "slice-rough": {},
    "slice-precise": {},
    "links": {},
    "crosstab": {},
    "graph": {"include_comments": False},
    "tokens": {"top_k": 100, "stopwords": None},
    "audit": {
        "sample_n": 100, "seed": 0, "link_noise": 0.05, "token_noise": 0.05, "text_divergence": 0.05,
        "stopwords": None,
    },
}
# what a subcommand declares for run and for the overwrite guard, not options
_DECLARATION = ("handler", "modules", "outputs", "page_trees")


@pytest.mark.parametrize("command", _subcommands())
def test_each_subcommand_parses_to_its_options_and_defaults(command):
    args = cli.build_parser().parse_args([command, "--corpus", "C", "--manifest", "M", "--encoding", "E"])
    options = {name: value for name, value in vars(args).items() if name not in _DECLARATION}
    common = {"corpus": "C", "manifest": "M", "encoding": "E", "out": "out", "workers": 1}
    assert options == {"command": command, **common, **_EXTRA_OPTIONS[command]}


@pytest.mark.parametrize("command", _subcommands())
def test_each_subcommand_writes_the_files_it_declares(workspace, command):
    args = base_args(workspace, command)
    declared = cli.build_parser().parse_args(args)
    assert run(args) == 0
    written = {p.name for p in workspace["out"].iterdir()}
    trees = {"stripped", "sections"} if declared.page_trees else set()
    assert written == set(declared.outputs) | trees


@pytest.mark.parametrize(
    "argv", [*([command] for command in _subcommands()), ["audit", "--sample-n", "1"]], ids=" ".join
)
def test_site_without_a_rule_exits_1_before_any_output(workspace, capsys, argv):
    # beta has pages but no rule; a one-page audit sample holds only an alpha page
    write_encoding_file({"alpha": make_precise_rule(site_id="alpha", label="blog")}, workspace["encoding"])
    assert run([*base_args(workspace, argv[0]), *argv[1:]]) == 1
    assert capsys.readouterr().err == "error: no slicing rule for site beta\n"
    assert list(workspace["out"].iterdir()) == []


# relative paths that name a file, not the corpus root
_page_paths = (
    st.lists(st.sampled_from(["a", "b.html", ".", "", "x.section-"]), min_size=1, max_size=4)
    .map("/".join)
    .filter(lambda path: not path.startswith("/") and str(PurePosixPath(path)) != ".")
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["alpha", "beta"]), _page_paths), min_size=1, max_size=4))
@example([("alpha", "alpha/./a.html"), ("alpha", "alpha//b.html"), ("alpha", "c.html/")])
@example([("alpha", "d/b.html"), ("alpha", "d//b.html"), ("beta", "./d/b.html/")])
def test_page_paths_are_written_where_pathlib_puts_them(pages):
    files = {str(PurePosixPath(path)) for _, path in pages}
    assume(not any(other.startswith(f"{name}/") for name in files for other in files))  # none in another
    with tempfile.TemporaryDirectory() as tmp:
        ws = {
            "root": Path(tmp, "corpus"), "manifest": Path(tmp, "manifest.csv"),
            "encoding": Path(tmp, "encoding.csv"), "out": Path(tmp, "out"),
        }
        rows = [("site_id", "label", "page_path", "url_prefixes"), ("alpha", "blog", "", "a.org")]
        rows += [("beta", "blog", "", "b.org"), *((site, "", path, "") for site, path in pages)]
        with open(ws["manifest"], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        write_encoding_file({s: make_rule(site_id=s, label="blog") for s in ("alpha", "beta")}, ws["encoding"])
        sections = [fragment(text=f"page{i}") for i in range(len(pages))]
        for (_, path), section in zip(pages, sections):
            Path(ws["root"], path).parent.mkdir(parents=True, exist_ok=True)
            Path(ws["root"], path).write_bytes(page_bytes(fragments=[section]))
        if len(files) < len(pages):  # two spellings of one page
            with pytest.raises(ManifestError, match="duplicate page|is declared under site"):
                load_corpus(ws["root"], ws["manifest"])
            return
        assert run(base_args(ws, "slice-rough")) == 0
        expected = {Path(ws["out"], "stripped", path): page_bytes() for _, path in pages}
        for (_, path), section in zip(pages, sections):
            expected[Path(ws["out"], "sections", path + ".section-0.html")] = OPEN + section + CLOSE
        written = {
            p: p.read_bytes() for tree in ("stripped", "sections") for p in Path(ws["out"], tree).rglob("*")
            if p.is_file()
        }
        assert written == expected


@given(st.lists(st.sampled_from(["a", "b.html", ".", "..x", "", ".section-"]), min_size=1, max_size=6))
def test_pathlib_spelling_matches_pathlib(parts):
    rel = "/".join(parts)
    if rel.startswith("/"):  # page paths are relative
        return
    assert page_file(rel) == str(PurePosixPath(rel))


@pytest.fixture
def twenty_pages(tmp_path):
    """20 pages over two sites, each with one comment section."""
    pages = {(f"s{i % 2}", f"p{i}.html"): page_bytes(fragments=[fragment(text=f"mot{i}")]) for i in range(20)}
    root, manifest = write_corpus(tmp_path, sites={"s0": ("blog", ["s0.org"]), "s1": ("press", ["s1.org"])}, pages=pages)
    encoding = tmp_path / "encoding.csv"
    write_encoding_file({s: make_rule(site_id=s, label=label) for s, label in (("s0", "blog"), ("s1", "press"))}, encoding)
    return {"root": root, "manifest": manifest, "encoding": encoding, "out": tmp_path / "out", "pages": pages}


def _count_reads(monkeypatch) -> list[str]:
    """Record the path of every page file read from now on."""
    reads = []
    read = corpus_mod._read_regular_file

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(corpus_mod, "_read_regular_file", counted)
    return reads


def test_audit_reads_only_the_pages_it_samples(twenty_pages, monkeypatch):
    reads = _count_reads(monkeypatch)
    assert run(base_args(twenty_pages, "audit") + ["--sample-n", "5"]) == 0
    sample = sample_corpus(load_corpus(twenty_pages["root"], twenty_pages["manifest"]).pages, 5, 0)
    assert sorted(reads) == sorted(f"{twenty_pages['root']}/{page.page_path}" for page in sample)


@pytest.mark.parametrize("command", ["slice-rough", "links", "tokens"])
def test_each_page_is_read_once(twenty_pages, monkeypatch, command):
    reads = _count_reads(monkeypatch)
    assert run(base_args(twenty_pages, command)) == 0
    assert sorted(reads) == sorted(f"{twenty_pages['root']}/{path}" for _, path in twenty_pages["pages"])


def test_a_page_gone_after_loading_fails_before_any_page_is_written(twenty_pages, monkeypatch, capsys):
    gone = twenty_pages["root"] / "p7.html"
    load = cli.load_corpus

    def load_then_remove(root, manifest):
        corpus = load(root, manifest)
        gone.unlink()
        return corpus

    monkeypatch.setattr(cli, "load_corpus", load_then_remove)
    assert run(base_args(twenty_pages, "slice-rough")) == 1
    assert capsys.readouterr().err == f"error: page file not readable: {gone}\n"
    assert not any((twenty_pages["out"] / tree).exists() for tree in ("stripped", "sections"))


def _page_outputs(out: Path) -> dict[Path, bytes]:
    """Every file under out's stripped/ and sections/, by its path below out."""
    return {
        p.relative_to(out): p.read_bytes() for tree in ("stripped", "sections") for p in (out / tree).rglob("*")
        if p.is_file()
    }


@pytest.mark.parametrize("command", ["slice-rough", "slice-precise"])
def test_a_rerun_over_longer_page_outputs_leaves_only_the_new_bytes(workspace, command):
    assert run(base_args(workspace, command)) == 0
    new = _page_outputs(workspace["out"])
    assert Path("sections/alpha/a1.html.section-0.html") in new
    for rel, data in new.items():  # as if an earlier run had sliced longer pages
        (workspace["out"] / rel).write_bytes(data + b"<p>left from a longer page</p>" * 40)
    assert run(base_args(workspace, command)) == 0
    assert _page_outputs(workspace["out"]) == new


@pytest.fixture
def two_sections(tmp_path):
    """Site a, its rule <c>...</c>, and two pages of two sections each."""
    pages = {("a", "a/p.html"): b"x<c>1</c>y<c>2</c>z", ("a", "q.html"): b"<c>q</c>r<c>s</c>"}
    root, manifest = write_corpus(tmp_path, sites={"a": ("blog", ["a.org"])}, pages=pages)
    rule = make_rule(site_id="a", open_pattern=Pattern("literal", "<c>"), close_pattern=Pattern("literal", "</c>"))
    write_encoding_file({"a": rule}, tmp_path / "encoding.csv")
    return {"root": root, "manifest": manifest, "encoding": tmp_path / "encoding.csv", "out": tmp_path / "out"}


@pytest.mark.parametrize(
    "options", [["slice-rough"], ["slice-precise"], ["slice-rough", "--workers", "2"]], ids=" ".join
)
@pytest.mark.parametrize("rewritten", [b"x<c>1</c>yz", b"x<c>1</c>y<c>2z"], ids=["one_section", "missing_closure"])
def test_a_rerun_removes_the_sections_a_page_no_longer_has(two_sections, monkeypatch, options, rewritten):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so --workers 2 starts a pool
    ws, out, fresh = two_sections, two_sections["out"], two_sections["out"].with_name("fresh")
    command, *extra = options
    assert run(base_args(ws, command) + extra) == 0
    assert (out / "sections/a/p.html.section-1.html").read_bytes() == b"<c>2</c>"
    (ws["root"] / "a/p.html").write_bytes(rewritten)
    assert run(base_args(ws, command) + extra) == 0
    stripped = (out / "stripped/a/p.html").read_bytes()
    sections = sorted((out / "sections/a").iterdir())  # the page's sections start after its first byte
    assert stripped[:1] + b"".join(path.read_bytes() for path in sections) + stripped[1:] == rewritten
    assert run(base_args({**ws, "out": fresh}, command) + extra) == 0
    assert _page_outputs(out) == _page_outputs(fresh)


def test_a_stale_section_that_cannot_be_removed_exits_1_naming_it(two_sections, capsys):
    blocker = two_sections["out"] / "sections/q.html.section-2.html"
    (blocker / "inside").mkdir(parents=True)  # a directory where a third section would be
    assert run(base_args(two_sections, "slice-rough")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{clip(str(blocker))!r}\n") and err.count("\n") == 1


def test_page_io_moves_every_byte_when_the_system_moves_three_at_a_time(twenty_pages, monkeypatch):
    read, write = os.read, os.write
    calls = []

    def short_read(fd, n):
        calls.append("read")
        return read(fd, min(n, 3))

    def short_write(fd, data):
        calls.append("write")
        return write(fd, data[:3])

    monkeypatch.setattr(os, "read", short_read)
    monkeypatch.setattr(os, "write", short_write)
    for size in range(8):  # every length around the 3-byte step; write_bytes does not call os.write
        (twenty_pages["root"] / "short").write_bytes(bytes(range(size)))
        assert corpus_mod._read_regular_file(f"{twenty_pages['root']}/short") == bytes(range(size))
    calls.clear()
    assert run(base_args(twenty_pages, "slice-rough")) == 0
    out = twenty_pages["out"]
    for (_, path), raw in twenty_pages["pages"].items():
        stripped = (out / "stripped" / path).read_bytes()
        section = (out / "sections" / f"{path}.section-0.html").read_bytes()
        start = raw.index(OPEN)
        assert stripped[:start] + section + stripped[start:] == raw
    floor = sum(len(raw) // 3 for raw in twenty_pages["pages"].values())
    assert calls.count("read") > floor and calls.count("write") >= floor


def test_a_full_disk_exits_1_with_one_error_line_and_no_descriptor_open(twenty_pages, monkeypatch, capsys, no_fd_leak):
    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", full)
    assert run(base_args(twenty_pages, "slice-rough")) == 1
    first = load_corpus(twenty_pages["root"], twenty_pages["manifest"]).pages[0].page_path
    path = clip(f"{twenty_pages['out']}/stripped/{page_file(first)}")  # the first file written, as run echoes it
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {path!r}\n"
    # after the test, no_fd_leak checks that the descriptor of the failed file was closed


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_a_page_no_longer_a_regular_file_when_read_exits_1_with_no_descriptor_open(
    twenty_pages, monkeypatch, capsys, no_fd_leak, kind
):
    page = twenty_pages["root"] / "p7.html"
    load = cli.load_corpus

    def load_then_replace(root, manifest):
        corpus = load(root, manifest)
        page.unlink()
        if kind == "directory":  # os.open opens both; fstat then refuses them
            page.mkdir()
        else:
            os.mkfifo(page)
        return corpus

    monkeypatch.setattr(cli, "load_corpus", load_then_replace)
    assert run(base_args(twenty_pages, "slice-rough")) == 1
    assert capsys.readouterr().err == f"error: page file not readable: {page}\n"


def test_importing_the_cli_loads_no_module_that_only_some_subcommands_use():
    # json: slice-precise; the XML writer: graph; comslice.audit: audit; concurrent.futures: --workers 2 and up;
    # comslice.linkgraph: links, crosstab, graph and audit; comslice.textstats: tokens and audit
    only_some = {
        "json",
        "xml.etree.ElementTree",
        "comslice.audit",
        "concurrent.futures",
        "comslice.linkgraph",
        "comslice.textstats",
    }
    assert modules_imported_by("import comslice.cli") & only_some == set()


ANALYSIS_MODULES = {
    "slice-rough": set(),
    "slice-precise": set(),
    "links": {"comslice.linkgraph"},
    "crosstab": {"comslice.linkgraph"},
    "graph": {"comslice.linkgraph"},
    "tokens": {"comslice.textstats"},
    "audit": {"comslice.audit", "comslice.linkgraph", "comslice.textstats"},  # comslice.audit imports both
}


@pytest.mark.parametrize("command", ANALYSIS_MODULES)
def test_run_as_a_module_each_subcommand_loads_only_the_analysis_modules_it_uses(workspace, command):
    # python -m runs cli.py as __main__, not as comslice.cli
    imported = modules_logged_by("-m", "comslice.cli", *base_args(workspace, command))
    assert "comslice.slicer" in imported  # every subcommand slices
    assert imported & {"comslice.audit", "comslice.linkgraph", "comslice.textstats"} == ANALYSIS_MODULES[command]


# runs cli.py as __main__, as python -m comslice.cli does, with an atexit hook registered
# first that writes the collector's freeze count to the file named by the first argument
EXIT_WRAPPER = """\
import atexit, gc, runpy, sys

record = sys.argv.pop(1)


def hook():
    with open(record, "w", encoding="utf-8") as fh:
        fh.write(str(gc.get_freeze_count()))


atexit.register(hook)
runpy.run_module("comslice.cli", run_name="__main__")
"""


@pytest.mark.parametrize("case, status", [("links", 0), ("missing manifest", 1), ("unknown option", 2)])
def test_main_exits_as_run_returns_after_freezing_the_collector(workspace, capsys, monkeypatch, tmp_path, case, status):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal; the child has none
    argv = base_args(workspace, "links")
    if case == "missing manifest":
        argv[argv.index("--manifest") + 1] = str(workspace["root"] / "absent.csv")
    elif case == "unknown option":
        argv.append("--no-such-option")
    assert run(argv) == status
    expected = capsys.readouterr()
    record = tmp_path / "freeze_count"
    done = subprocess.run(
        [sys.executable, "-c", EXIT_WRAPPER, str(record), *argv], env=src_env(), capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (status, expected.out, expected.err)
    assert int(record.read_text(encoding="utf-8")) > 0  # the hook ran, and main had frozen the collector


def test_a_profiler_run_of_the_cli_still_prints_its_table(workspace):
    # cProfile prints after main raises SystemExit; a hard exit (os._exit) would skip the table
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "comslice.cli", *base_args(workspace, "links")],
        env=src_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "found 5 anchors" in done.stdout
    assert "ncalls" in done.stdout


@pytest.mark.parametrize("module, name", [(module, name) for name, module in cli._HOMES.items()])
def test_each_lazy_name_is_its_home_modules_object(monkeypatch, module, name):
    home = getattr(importlib.import_module(f"comslice.{module}"), name)
    monkeypatch.delattr(cli, name)  # so the lookup below goes through cli's __getattr__
    assert getattr(cli, name) is home
    assert cli.__dict__[name] is home  # bound: the next lookup finds it


@pytest.mark.parametrize("command, name", [("crosstab", "crosstab"), ("tokens", "top_k")])
def test_a_lazy_name_patched_on_the_cli_stays_patched_when_its_subcommand_runs(workspace, monkeypatch, command, name):
    # perfbench's tracer wraps these names on the module before calling run
    original, calls = getattr(cli, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert run(base_args(workspace, command)) == 0
    assert calls  # top_k runs once per table


@pytest.mark.parametrize("name", ["nope", "resolve_url", "tokenize"])
def test_an_unknown_cli_name_raises_attribute_error(name):
    # resolve_url and tokenize are in linkgraph and textstats, but no handler calls them
    with pytest.raises(AttributeError, match=f"'comslice.cli' has no attribute '{name}'"):
        getattr(cli, name)


def test_no_subcommand_loads_dataclasses_or_inspect(workspace):
    # every record is a NamedTuple: importing dataclasses, which imports inspect, cost each run about 6 ms
    commands = ["slice-rough", "slice-precise", "links", "crosstab", "graph", "tokens", "audit"]
    runs = [base_args(workspace, command) for command in commands]
    loaded = modules_imported_by(
        f"import io; sys.stdout = io.StringIO(); from comslice.cli import run; "
        f"assert [run(argv) for argv in {runs!r}] == [0] * {len(runs)}"
    )
    assert {"comslice.audit", "json", "xml.etree.ElementTree"} <= loaded  # all seven ran
    assert loaded & {"dataclasses", "inspect"} == set()


def test_threshold_defaults_and_their_help_are_the_thresholds_fields(capsys):
    metrics = Thresholds()._asdict()
    args = cli.build_parser().parse_args(["audit", "--corpus", "C", "--manifest", "M", "--encoding", "E"])
    assert {name: getattr(args, name) for name in metrics} == metrics
    assert run(["audit", "--help"]) == 0
    shown = dict(re.findall(r"slice when (\w+) exceeds this \(default:\s+([^)]*)\)", capsys.readouterr().out))
    assert {name: float(value) for name, value in shown.items()} == metrics
