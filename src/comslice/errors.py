"""Fatal configuration errors shared across the package."""

from __future__ import annotations

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
    """
    file = Path(path)
    if not file.is_file():
        raise error(f"{what} not found: {str(path) or repr('')}")
    try:
        return file.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
