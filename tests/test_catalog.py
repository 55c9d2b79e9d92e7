"""Every catalog entry must hold up under its own checks."""

from collections import Counter

import pytest

from flatpencil import catalog
from flatpencil import geometry_core as geo
from flatpencil import pencil_checker as pc
from flatpencil.errors import SchemaError

from conftest import count_calls

REQUIRED = {
    "euclidean", "polar", "sphere", "diag-u",
    "s4-log-pencil", "s4-constant-curvature",
    "tc-log-unit", "tc-separable", "tc-linear-exp",
    "tc-product-bad", "tc-log-wrong-b",
    "dubrovin-quadratic", "potentials-quadratic",
    "dressing-gaussian", "dressing-separable", "dressing-reduced",
}


def test_names_are_stable():
    names = catalog.names()
    assert len(names) == len(set(names))
    assert REQUIRED <= set(names)
    assert tuple(names) == tuple(e.name for e in catalog.ENTRIES)


def test_unknown_entry_raises_schema_error():
    with pytest.raises(SchemaError, match="polar"):
        catalog.get("no-such-entry")


@pytest.mark.parametrize("name", [e.name for e in catalog.ENTRIES])
def test_entry_passes_its_checks(name):
    rows = catalog.run_entry(name)
    assert rows, name
    for row in rows:
        d = row.as_dict()
        assert set(d) == {"check", "residual", "bound", "comparison", "verdict"}
        assert d["comparison"] in ("le", "ge")
        assert d["verdict"] in ("pass", "fail")
        assert row.passed, f"{name}/{row.name}: {row.residual!r} vs {row.bound!r}"


@pytest.mark.parametrize("comparison", ["le", "ge"])
def test_nan_residual_fails_the_row(comparison):
    """CheckRow is the only verdict, so a NaN must fail it either way."""
    row = catalog.CheckRow("probe", float("nan"), 1e-6, comparison)
    assert not row.passed
    assert row.as_dict()["verdict"] == "fail"


def test_two_component_case_partition():
    for name in catalog.TWO_COMPONENT_POSITIVE:
        _, _, positive = catalog.two_component_case(name)
        assert positive
    for name in catalog.TWO_COMPONENT_NEGATIVE:
        _, _, positive = catalog.two_component_case(name)
        assert not positive


def test_metric_names_cover_diagonal_catalog():
    assert set(catalog.metric_names()) == {"euclidean", "polar", "sphere",
                                           "diag-u"}


@pytest.mark.parametrize("name, expected", [
    ("sphere", 1),  # one metric, reduced against K = 1 and against 0
    ("s4-constant-curvature", 5),  # g1, g2 and the 3 samples besides (1, 0), (0, 1)
    # the pencil check measures the candidate's flatness: 5 metrics as above
    ("potentials-quadratic", 5),
])
def test_entry_computes_each_curvature_once(name, expected, monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, ("curvature", "connection"), geo, pc)
    assert all(row.passed for row in catalog.run_entry(name))
    assert calls["curvature"] == expected
    assert calls["connection"] == expected


def test_dubrovin_construction_builds_each_connection_once(monkeypatch):
    """The flat-coordinates gate builds the connection of g2; the pencil check
    builds those of g1, g2 and the 3 other samples, and the construction takes
    g1's from its report: 6 connections and 5 curvatures for 5 metrics."""
    calls = Counter()
    count_calls(monkeypatch, calls, ("curvature", "connection"), geo, pc)
    assert all(row.passed for row in catalog.run_entry("dubrovin-quadratic"))
    assert calls == {"connection": 6, "curvature": 5}
