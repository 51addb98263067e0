"""Per-site slicing rules and the CSV encoding file that stores them.

Each site gets one row describing how its comment sections are delimited
and, optionally, how individual comments inside a section are laid out.
Cells hold either a literal byte substring, a regex (prefixed ``re:``),
or the word ``False`` meaning the field is absent for that site. All
matching is case-sensitive and byte-oriented.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Literal, NamedTuple

from .errors import EncodingFileError, clip, read_rows

ABSENT = "False"
REGEX_PREFIX = "re:"


@functools.cache  # each distinct pattern compiles once, in each process, whichever Pattern asks
def _compile(kind: str, source: str) -> re.Pattern[bytes]:
    data = source.encode("utf-8")
    return re.compile(re.escape(data) if kind == "literal" else data)


class Pattern(NamedTuple):
    """A literal byte substring or a byte-level regex, matched case-sensitively."""

    kind: Literal["literal", "regex"]
    source: str

    @property
    def regex(self) -> re.Pattern[bytes]:
        """The compiled matcher; a literal compiles to its escaped bytes."""
        return _compile(self.kind, self.source)

    def extract(self, data: bytes) -> str | None:
        """Pull one field value out of a comment fragment, as text.

        Regexes return their first group when they have one, otherwise the
        whole match. Literals act as markers: the value is whatever follows
        the marker up to the next ``<``. Values are stripped of ASCII
        whitespace, then decoded as UTF-8 with invalid bytes replaced
        (U+FFFD); an empty result counts as absent.
        """
        m = self.regex.search(data)
        if m is None:
            return None
        if self.kind == "regex":
            value = m.group(1) if m.re.groups else m.group(0)
            if value is None:
                return None
        else:
            end = data.find(b"<", m.end())
            value = data[m.end():] if end == -1 else data[m.end():end]
        value = value.strip()
        return value.decode("utf-8", errors="replace") if value else None


class Rule(NamedTuple):
    """Slicing rule for one site.

    ``has_comments`` False means the site never shows comments and every
    other field must be absent. ``open_pattern``/``close_pattern`` delimit
    comment sections (matches included in the section). ``empty_size`` is
    the exact byte length of a section holding zero comments. The six
    fragment patterns drive per-comment extraction.
    """

    site_id: str
    label: str
    has_comments: bool
    open_pattern: Pattern | None
    close_pattern: Pattern | None
    empty_size: int | None
    comment_pattern: Pattern | None
    date_pattern: Pattern | None
    author_pattern: Pattern | None
    depth_pattern: Pattern | None
    author_url_pattern: Pattern | None
    text_pattern: Pattern | None

    @property
    def is_precise(self) -> bool:
        """True when the rule can split sections into individual comments."""
        return self.comment_pattern is not None


# The file's columns are Rule's fields, in order.
ENCODING_COLUMNS = Rule._fields
PATTERN_COLUMNS = ENCODING_COLUMNS[3:5] + ENCODING_COLUMNS[6:]
EXTRACTOR_COLUMNS = ENCODING_COLUMNS[7:]  # per-comment fields, need comment_pattern


def _parse_pattern(cell: str, where: str) -> Pattern | None:
    if cell == ABSENT or cell == "":
        return None
    if cell.startswith(REGEX_PREFIX):
        pattern = Pattern(kind="regex", source=cell[len(REGEX_PREFIX):])
        try:
            pattern.regex  # compile now, so a bad regex fails at load time
        except (re.error, OverflowError, RecursionError) as exc:  # a repeat count or nesting too large
            raise EncodingFileError(f"{where}: bad regex {clip(pattern.source)!r}: {exc}") from None
        return pattern
    return Pattern(kind="literal", source=cell)


def _parse_row(row: list[str], where: str) -> Rule:
    cells = dict(zip(ENCODING_COLUMNS, row))
    if not cells["site_id"]:
        raise EncodingFileError(f"{where}: empty site_id")

    flag = cells["has_comments"]
    if flag not in ("True", "False"):
        raise EncodingFileError(f"{where}: has_comments must be True or False, got {clip(flag)!r}")
    has_comments = flag == "True"

    size_cell = cells["empty_size"]
    if size_cell == ABSENT or size_cell == "":
        empty_size = None
    else:
        try:
            empty_size = int(size_cell)
        except ValueError:
            raise EncodingFileError(
                f"{where}: empty_size must be an integer or False, got {clip(size_cell)!r}"
            ) from None
        if empty_size < 0:
            raise EncodingFileError(f"{where}: empty_size must be >= 0, got {clip(empty_size)}")

    patterns = {
        name: _parse_pattern(cells[name], f"{where} column {name}") for name in PATTERN_COLUMNS
    }

    if has_comments:
        if patterns["open_pattern"] is None:
            raise EncodingFileError(
                f"{where}: has_comments is True but open_pattern is absent"
            )
        if patterns["comment_pattern"] is None and any(
            patterns[name] is not None for name in EXTRACTOR_COLUMNS
        ):
            raise EncodingFileError(
                f"{where}: extraction patterns set but comment_pattern is absent"
            )
    elif empty_size is not None or any(p is not None for p in patterns.values()):
        raise EncodingFileError(
            f"{where}: has_comments is False, all other fields must be False"
        )
    return Rule(
        site_id=cells["site_id"],
        label=cells["label"],
        has_comments=has_comments,
        empty_size=empty_size,
        **patterns,
    )


def parse_encoding_file(path: str | Path) -> dict[str, Rule]:
    """Parse and fully validate an encoding file; returns rules keyed by site_id.

    Every fault, in the CSV (see errors.read_rows) or in a rule, is fatal and names
    the file and the row, so a bad rule can never silently pass through to slicing.
    """
    rules: dict[str, Rule] = {}
    for lineno, row in read_rows(path, ENCODING_COLUMNS, EncodingFileError, "encoding file"):
        where = f"encoding file {clip(path)} row {lineno}"
        rule = _parse_row(row, where)
        if rule.site_id in rules:
            raise EncodingFileError(f"{where}: duplicate site_id {clip(rule.site_id)}")
        rules[rule.site_id] = rule
    return rules

