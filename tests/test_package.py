"""The package namespace: every public name resolves lazily to its home module's object."""

from __future__ import annotations

import importlib

import pytest

import comslice

from conftest import modules_imported_by, modules_logged_by

# each public name's home module, written out here so the test does not read the package's own map
HOMES = {
    "corpus": ["Corpus", "Page", "PageFile", "Site", "load_corpus"],
    "encoding": ["Pattern", "Rule", "parse_encoding_file"],
    "errors": ["ComsliceError", "EncodingFileError", "ManifestError"],
    "linkgraph": ["CrosstabRow", "Link", "MutualGraph", "crosstab", "extract_all_links", "mutual_link_graph"],
    "slicer": ["Comment", "SliceError", "SlicedPage", "Thresholds", "precise_slice", "rough_slice", "slice_corpus"],
    "textstats": ["corpus_token_counts", "top_k"],
    "audit": ["AuditResult", "NoiseMeasurement", "SiteDiagnostics", "run_audit"],
}


def test_importing_the_package_and_listing_it_loads_no_submodule():
    # in a fresh interpreter, where no test has used a name yet
    loaded = modules_imported_by("import comslice; assert set(comslice.__all__) <= set(dir(comslice))")
    assert {name for name in loaded if name.startswith("comslice.")} == set()


def test_the_home_map_covers_exactly_the_public_names():
    names = [name for names in HOMES.values() for name in names]
    assert sorted(names) == sorted(comslice.__all__)


@pytest.mark.parametrize("module, name", [(module, name) for module, names in HOMES.items() for name in names])
def test_each_public_name_is_its_home_modules_object(module, name):
    home = getattr(importlib.import_module(f"comslice.{module}"), name)
    assert getattr(comslice, name) is home
    namespace: dict = {}
    exec(f"from comslice import {name}", namespace)
    assert namespace[name] is home


def test_thresholds_still_imports_from_the_audit_module():
    # Thresholds is defined in comslice.slicer; code that imports it from comslice.audit gets the same class
    from comslice import audit, slicer

    assert audit.Thresholds is slicer.Thresholds


def test_importtime_logs_the_module_a_public_name_loads():
    assert "comslice.linkgraph" in modules_logged_by("-c", "import comslice; comslice.extract_all_links")


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from comslice import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(comslice.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'comslice' has no attribute 'nope'"):
        comslice.nope
    assert not hasattr(comslice, "nope")


def test_from_the_package_a_submodule_still_imports():
    # in a fresh interpreter the package's __getattr__ answers first, and must raise AttributeError
    assert "comslice.cli" in modules_imported_by("from comslice import cli; cli.build_parser()")
