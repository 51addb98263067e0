"""The CSV rules the manifest and the encoding file share, and what they refuse."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comslice.cli import run
from comslice.corpus import MANIFEST_COLUMNS, load_corpus
from comslice.encoding import ENCODING_COLUMNS, parse_encoding_file
from comslice.errors import ComsliceError

# CLI option name -> (what the messages call the file, its columns, a valid data row)
FILES = {
    "manifest": ("manifest", MANIFEST_COLUMNS, ["s1", "blog", "", "s1.org"]),
    "encoding": ("encoding file", ENCODING_COLUMNS, ["s1", "blog", "True", "<div>", "</div>"] + ["False"] * 7),
}

FAULTS = ["empty", "wrong-header", "wrong-cell-count", "cell-over-csv-limit", "nul-in-a-cell"]


@pytest.mark.parametrize("which", sorted(FILES))
@pytest.mark.parametrize("fault", FAULTS)
def test_each_csv_fault_is_one_error_line_for_either_file(tmp_path, capsys, which, fault):
    paths = {}
    for name, (_, columns, row) in FILES.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(",".join(columns) + "\n" + ",".join(row) + "\n", encoding="utf-8")
    what, columns, row = FILES[which]

    def row_4(*cells: str) -> str:  # after the header, a valid row and a blank row 3
        return "\n".join([",".join(columns), ",".join(row), "", ",".join(cells)]) + "\n"

    text, message = {
        "empty": ("", "is empty: {path}"),
        "wrong-header": ("site_id,oops\n", f"{{path}} has header ['site_id', 'oops'], expected {list(columns)}"),
        "wrong-cell-count": (row_4(*row[:2]), f"{{path}} row 4: expected {len(columns)} cells, got 2"),
        "cell-over-csv-limit": (
            row_4(row[0], "x" * 200_000, *row[2:]), "{path} row 4: field larger than field limit (131072)"
        ),
        "nul-in-a-cell": (row_4(row[0], "bl\0og", *row[2:]), "{path} row 4: line contains NUL"),
    }[fault]
    paths[which].write_text(text, encoding="utf-8")
    args = ["links", "--corpus", str(tmp_path), "--out", str(tmp_path / "out")]
    args += [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {what} " + message.format(path=paths[which]) + "\n"


# pieces of cells: CSV syntax, text that fields give meaning to, and what Python refuses
_PIECES = [",", '"', "\n", "\0", " ", "|", "re:", "re:x{4294967296}", "(", "9" * 5000, "True", "False", "7",
           "s1", "a.org", "/", "..", "\ufeff", "é"]


def _text(columns: tuple[str, ...], valid_row: list[str]):
    """The right header, a wrong one or none, then up to four rows: each cell valid or built from _PIECES."""
    junk = st.lists(st.sampled_from(_PIECES), max_size=3).map("".join)
    row = st.one_of(
        st.tuples(*(st.one_of(st.just(valid), junk) for valid in valid_row)),
        st.lists(junk, max_size=len(columns) + 1),
    )
    header = st.sampled_from([",".join(columns) + "\n", "site_id\n", ""])
    return st.tuples(header, st.lists(row, max_size=4).map(lambda rows: "\n".join(map(",".join, rows)))).map("".join)


_HEADERS = {name: ",".join(columns) + "\n" for name, (_, columns, _) in FILES.items()}


@settings(max_examples=150, deadline=None)
@given(manifest=_text(*FILES["manifest"][1:3]), encoding=_text(*FILES["encoding"][1:3]))
@example(  # a NUL that csv reads on Python 3.11+ used to reach open()
    manifest=_HEADERS["manifest"] + "s1,blog,\0,s1.org", encoding=_HEADERS["encoding"]
)
@example(
    manifest=_HEADERS["manifest"],
    encoding=_HEADERS["encoding"] + "s1,blog,True,<div>,</div>,False,False,False,False,False,False,re:x{4294967296}",
)
def test_readers_return_or_raise_comslice_error(manifest, encoding):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")  # empty: every page named is missing
        root.mkdir()
        for text, read in ((manifest, lambda path: load_corpus(root, path)), (encoding, parse_encoding_file)):
            path = Path(tmp, "config.csv")
            path.write_text(text, encoding="utf-8", newline="")
            try:
                read(path)
            except ComsliceError:
                pass


def _write_configs(base: Path, manifest: str, encoding: str) -> dict[str, Path]:
    """The manifest and the encoding file under base, holding the given texts; returns their paths."""
    paths = {"manifest": base / "manifest.csv", "encoding": base / "encoding.csv"}
    paths["manifest"].write_text(manifest, encoding="utf-8")
    paths["encoding"].write_text(encoding, encoding="utf-8")
    return paths


# each file's header and one valid row
_VALID = {name: f"{_HEADERS[name]}{','.join(row)}\n" for name, (_, _, row) in FILES.items()}


@pytest.mark.parametrize(
    "manifest, encoding, length",
    [
        pytest.param(_VALID["manifest"], _HEADERS["encoding"] + "s1,blog,True,<div>,</div>," + "9" * 5000
                     + ",False" * 6 + "\n", 5000, id="empty_size-of-5000-digits"),
        pytest.param("site_id,label,page_path," + "u" * 100_000 + "\n", _VALID["encoding"], 100_000,
                     id="header-cell"),
        pytest.param(_HEADERS["manifest"] + "s1,blog,,?" + "q" * 99_999 + "\n", _VALID["encoding"], 100_000,
                     id="hostless-prefix"),
        pytest.param(_VALID["manifest"] + "s" * 100_000 + ",blog,p.html,\n", _VALID["encoding"], 100_000,
                     id="page-under-unknown-site_id"),
    ],
)
def test_a_long_value_is_cut_in_its_error_line(tmp_path, capsys, manifest, encoding, length):
    paths = _write_configs(tmp_path, manifest, encoding)
    args = ["links", "--corpus", str(tmp_path), "--out", str(tmp_path / "out")]
    assert run(args + ["--manifest", str(paths["manifest"]), "--encoding", str(paths["encoding"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"... ({length} characters)" in err
    assert len(err.encode()) < 400


@pytest.mark.parametrize("which", sorted(FILES))
@pytest.mark.parametrize("fault", ["not-utf-8", "wrong-header", "bad-row"])
def test_a_config_file_is_named_as_given(tmp_path, monkeypatch, capsys, which, fault):
    paths = _write_configs(tmp_path, _VALID["manifest"], _VALID["encoding"])
    what, columns, _ = FILES[which]
    bad_row, row_message = {
        "manifest": (b",blog,,s2.org\n", "row 3: empty site_id"),
        "encoding": (b"s2,blog,maybe" + b",False" * 9 + b"\n", "row 3: has_comments must be True or False, got 'maybe'"),
    }[which]
    text, message = {
        "not-utf-8": (b"\xff", "is not UTF-8 text: invalid start byte at byte 0"),
        "wrong-header": (b"site_id,oops\n", f"has header ['site_id', 'oops'], expected {list(columns)}"),
        "bad-row": (paths[which].read_bytes() + bad_row, row_message),
    }[fault]
    paths[which].write_bytes(text)
    monkeypatch.chdir(tmp_path)
    args = ["links", "--corpus", ".", "--out", "out", "--manifest", "./manifest.csv", "--encoding", "./encoding.csv"]
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {what} ./{which}.csv {message}\n"
