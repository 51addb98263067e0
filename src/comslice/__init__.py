"""comslice: cut comment sections out of crawled web pages, byte-exactly,
and measure how much bias those comments add to link and text analyses.

The public names load lazily (PEP 562): ``import comslice`` imports none
of the submodules, and the first use of a name imports only its module.
"""

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
        "slicer": (
            "Comment", "SliceError", "SlicedPage", "Thresholds", "precise_slice", "rough_slice", "slice_corpus"
        ),
        "textstats": ("corpus_token_counts", "top_k"),
        "audit": ("AuditResult", "NoiseMeasurement", "SiteDiagnostics", "run_audit"),
    }.items()
    for name in names
}


def _lazy(namespace: dict, homes: dict[str, str]):
    """A module __getattr__ (PEP 562) for the module whose globals are namespace.

    On a name's first use it imports the name's submodule, homes[name], and
    binds the name in namespace, where later uses find it.
    """

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        # __import__, unlike importlib.import_module, is logged by python -X importtime
        home = __import__(f"{__name__}.{homes[name]}", fromlist=[name])
        value = namespace[name] = getattr(home, name)
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _HOMES)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
