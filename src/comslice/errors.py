"""Fatal configuration errors shared across the package."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from pathlib import Path


class ComsliceError(Exception):
    """Base class for fatal errors in the configuration: input files, stopword lists."""


class ManifestError(ComsliceError):
    """The corpus manifest or one of its page files is unusable."""


class EncodingFileError(ComsliceError):
    """The encoding file is missing, malformed, or fails validation."""


def read_text(path: str | Path, error: type[ComsliceError], what: str) -> str:
    """The text of a UTF-8 configuration file (a leading BOM is dropped).

    A missing file or bytes that are not UTF-8 raise error, naming the path
    as given (an empty one as ``''``, not as the ``.`` that ``Path("")`` is).
    The stopword list is read with it, the two CSV files through read_rows.
    """
    file = Path(path)
    if not file.is_file():
        raise error(f"{what} not found: {str(path) or repr('')}")
    try:
        return file.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_rows(
    path: str | Path, columns: tuple[str, ...], error: type[ComsliceError], what: str
) -> Iterator[tuple[int, list[str]]]:
    """Yield (row number, stripped cells) for each data row of a CSV configuration file, lazily.

    Row 1 is the header, blank rows are skipped, every other row holds one
    cell per column. Any fault (among them a NUL, or a cell over csv's field
    limit) raises error naming the file and the row.
    """
    text = read_text(path, error, what)
    read = 0  # rows read so far; a csv.Error is in the next one
    try:
        for read, row in enumerate(csv.reader(_lines_without_nul(text)), start=1):
            if read == 1:
                if tuple(h.strip() for h in row) != columns:
                    raise error(f"{what} {path} has header {list(map(clip, row))}, expected {list(columns)}")
            elif row:
                if len(row) != len(columns):
                    raise error(f"{what} {path} row {read}: expected {len(columns)} cells, got {len(row)}")
                yield read, [cell.strip() for cell in row]
    except csv.Error as exc:
        raise error(f"{what} {path} row {read + 1}: {exc}") from None
    if read == 0:
        raise error(f"{what} is empty: {path}")


def clip(value: object) -> str:
    """value as an error line echoes it: whole up to 80 characters, else cut there, with its length."""
    text = str(value)
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def _lines_without_nul(text: str) -> Iterator[str]:
    """text's lines as csv reads them; a NUL fails on every Python as csv fails on it before 3.11."""
    for line in io.StringIO(text, newline=""):
        if "\0" in line:
            raise csv.Error("line contains NUL")
        yield line
