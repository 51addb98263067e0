"""comslice: cut comment sections out of crawled web pages, byte-exactly,
and measure how much bias those comments add to link and text analyses."""

from .corpus import Corpus, Page, Site, load_corpus
from .encoding import Pattern, Rule, parse_encoding_file
from .errors import ComsliceError, EncodingFileError, ManifestError
from .linkgraph import CrosstabRow, Link, MutualGraph, crosstab, extract_all_links, mutual_link_graph
from .slicer import Comment, SliceError, SlicedPage, precise_slice, rough_slice, slice_corpus
from .textstats import corpus_token_counts, top_k
from .audit import AuditResult, NoiseMeasurement, SiteDiagnostics, Thresholds, run_audit

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
