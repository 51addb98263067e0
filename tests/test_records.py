"""Every record comslice hands out is immutable."""

from __future__ import annotations

import dataclasses

import pytest

from comslice.audit import AuditResult, NoiseMeasurement, SiteDiagnostics, Thresholds
from comslice.corpus import Page, Site
from comslice.encoding import Pattern, Rule
from comslice.linkgraph import CrosstabRow, Link, MutualGraph
from comslice.slicer import Comment, SlicedPage, SliceError, UniformSizeWarning

RECORDS = [
    Site, Page, Pattern, Rule, SliceError, UniformSizeWarning, SlicedPage, Comment,
    Link, CrosstabRow, MutualGraph, Thresholds, NoiseMeasurement, SiteDiagnostics, AuditResult,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_refuse_assignment(record):
    # a frozen dataclass refuses every field assignment, before or after __init__
    instance = object.__new__(record)
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field.name, None)
