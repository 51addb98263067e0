"""README "Library use" and the package agree: its list of public names is
``comslice.__all__``, and its example runs.

The check needs only the standard library and comslice, so any interpreter
can run it without pytest:

    PYTHONPATH=src python -W error tests/test_readme.py
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import os
import re
import tempfile
from pathlib import Path

import comslice
from comslice.corpus import MANIFEST_COLUMNS
from comslice.encoding import ENCODING_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"

OPEN, CLOSE, COMMENT = '<div id="comments">', "<!-- END -->", '<div class="comment">'


def _page(link: str, commenter_link: str) -> str:
    return (
        f'<html><body><p>article</p><a href="{link}">x</a>{OPEN}'
        f'{COMMENT}<span class="author">zoe</span><p>lisez ceci</p><a href="{commenter_link}">y</a>'
        f"{CLOSE}<footer>fin</footer></body></html>"
    )


def write_workspace(base: Path) -> None:
    """crawl/, manifest.csv and rules.csv under base: two sites linking both ways, from main and comments."""
    pages = {
        ("alpha", "alpha/a1.html"): _page("http://beta.example.org/news", "https://beta.example.org/spam"),
        ("beta", "beta/b1.html"): _page("http://alpha.example.org/", "http://elsewhere.net/x"),
    }
    for (_, page_path), text in pages.items():
        file = base / "crawl" / page_path
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(text, encoding="utf-8")
    labels = {"alpha": "blog", "beta": "press"}
    with open(base / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows([site, label, "", f"{site}.example.org"] for site, label in labels.items())
        writer.writerows([site, labels[site], page_path, ""] for site, page_path in pages)
    with open(base / "rules.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENCODING_COLUMNS)
        for site, label in labels.items():
            writer.writerow(
                [site, label, "True", OPEN, CLOSE, "False", COMMENT, "False", '<span class="author">', "False",
                 "False", "re:<p>([^<]*)</p>"]
            )


def library_use() -> str:
    """The text of README's "Library use" section."""
    return README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def check_readme(workdir: Path) -> None:
    """Compare the section's public names with comslice.__all__, then run its example in workdir."""
    section = library_use()
    public = comslice.__all__
    assert len(set(public)) == len(public), f"__all__ repeats a name: {public}"
    items = re.findall(r"^- .*?(?=^\S|\Z)", section, re.M | re.S)  # each list item, continuation lines included
    listed = [name for item in items for name in re.findall(r"`(\w+)`", item)]
    assert sorted(listed) == sorted(public), f"README lists {sorted(listed)}, __all__ is {sorted(public)}"

    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "comslice"
        for alias in node.names
    ]
    assert imported and set(imported) <= set(public), f"the example imports {sorted(set(imported) - set(public))}"

    write_workspace(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(example, f"{README} (Library use)", "exec"), {})
    finally:
        os.chdir(cwd)


def test_readme_library_use_matches_the_package(tmp_path):
    check_readme(tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        check_readme(Path(tmp))
    print("README Library use matches comslice.__all__, and its example runs")
