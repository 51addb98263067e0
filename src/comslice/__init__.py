"""comslice: cut comment sections out of crawled web pages, byte-exactly,
and measure how much bias those comments add to link and text analyses.

The public names load lazily (PEP 562): ``import comslice`` imports none
of the submodules, and the first use of a name imports only its module.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "load_corpus",
    "parse_encoding_file",
    "slice_corpus",
    "rough_slice",
    "precise_slice",
    "extract_all_links",
    "crosstab",
    "mutual_link_graph",
    "corpus_token_counts",
    "top_k",
    "run_audit",
    "Corpus",
    "Page",
    "PageFile",
    "Site",
    "Rule",
    "Pattern",
    "SlicedPage",
    "SliceError",
    "Comment",
    "Link",
    "CrosstabRow",
    "MutualGraph",
    "AuditResult",
    "NoiseMeasurement",
    "SiteDiagnostics",
    "Thresholds",
    "ComsliceError",
    "ManifestError",
    "EncodingFileError",
]

# each public name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in {
        "corpus": ("Corpus", "Page", "PageFile", "Site", "load_corpus"),
        "encoding": ("Pattern", "Rule", "parse_encoding_file"),
        "errors": ("ComsliceError", "EncodingFileError", "ManifestError"),
        "linkgraph": ("CrosstabRow", "Link", "MutualGraph", "crosstab", "extract_all_links", "mutual_link_graph"),
        "slicer": ("Comment", "SliceError", "SlicedPage", "precise_slice", "rough_slice", "slice_corpus"),
        "textstats": ("corpus_token_counts", "top_k"),
        "audit": ("AuditResult", "NoiseMeasurement", "SiteDiagnostics", "Thresholds", "run_audit"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    """Import a public name's module on first use; later uses find the name bound here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
