"""End-to-end runs of every subcommand against a small on-disk corpus."""

from __future__ import annotations

import csv
import json

import networkx as nx
import pytest

from comslice.cli import run
from comslice.encoding import write_encoding_file

from conftest import (
    CLOSE,
    COMMENT_SEP,
    OPEN,
    fragment,
    make_precise_rule,
    make_rule,
    page_bytes,
    write_corpus,
)


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


def test_workers_default_comes_from_environment(workspace, monkeypatch):
    monkeypatch.setenv("COMSLICE_WORKERS", "2")
    from comslice.cli import build_parser

    args = build_parser().parse_args(base_args(workspace, "slice-rough"))
    assert args.workers == 2
    monkeypatch.setenv("COMSLICE_WORKERS", "not-a-number")
    args = build_parser().parse_args(base_args(workspace, "slice-rough"))
    assert args.workers == 1


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
