"""Every catalog entry must hold up under its own checks."""

from collections import Counter

import numpy as np
import pytest

from flatpencil import catalog, cli
from flatpencil import geometry_core as geo
from flatpencil import grid_calculus as gc
from flatpencil import pencil_checker as pc
from flatpencil import two_component as tc
from flatpencil.errors import SchemaError
from flatpencil.grid_calculus import GridChart

from conftest import SAFE_LAMS, count_calls

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


def _poison_the_centre(monkeypatch):
    """Every grid derivative of a tensor of rank two or more comes back with
    a NaN at the chart's centre node, so each connection and curvature
    derived from it carries one, and so do the derivatives of a frame's
    rotation coefficients, though not the coefficients themselves (the
    derivatives of ``H_i``), which the frame scans."""
    original = gc.differentiate_array

    def poisoned(values, chart, axis, out=None):
        d = original(values, chart, axis, out)
        if np.ndim(values) - chart.dim >= 2:
            centre = tuple(n // 2 for n in chart.shape)
            d[(Ellipsis, *centre)] = np.nan
        return d

    monkeypatch.setattr(gc, "differentiate_array", poisoned)


def test_a_nan_in_a_derived_field_cannot_pass(monkeypatch):
    """Derived fields are not scanned for NaN: the reductions carry it into
    the residual, and the residual fails its row under either comparison."""
    _poison_the_centre(monkeypatch)
    settings = {"tolerance": 1e-6, "order": 4, "seed": 0}
    report, _ = cli.run_scenario({"kind": "check-flat", "metric": {"catalog": "polar"}}, settings)
    [flat] = report["checks"]
    assert np.isnan(flat["residual"]) and flat["verdict"] == report["verdict"] == "fail"

    chart = GridChart((0.5, 2.0), (1.5, 3.0), (17, 17))
    g1 = geo.build_metric(lambda u: [[u[0], 0.0], [0.0, u[1]]], chart)
    g2 = geo.build_metric(lambda u: np.eye(2), chart)
    pencil = pc.check_compatible(pc.PencilSpec(g1, g2, SAFE_LAMS), "flat").max_curvature
    assert np.isnan(pencil)
    for residual in (flat["residual"], pencil):
        for comparison in ("le", "ge"):
            assert not catalog.CheckRow("probe", residual, 1e-6, comparison).passed

    # the sphere's rows compare both ways on one curvature
    rows = catalog.run_entry("sphere")
    assert sorted(row.comparison for row in rows) == ["ge", "le"]
    assert all(np.isnan(row.residual) and not row.passed for row in rows)

    # polar's lame row is the worst of the kind's 0.0 (no off-diagonal
    # family in 2-D) and a NaN, where Python's max would return the 0.0
    rows = catalog.run_entry("polar")
    assert [row.name for row in rows] == ["flatness", "lame"]
    assert all(np.isnan(row.residual) and not row.passed for row in rows)


def test_two_component_case_partition():
    for name in catalog.TWO_COMPONENT_POSITIVE:
        _, _, positive = catalog.two_component_case(name)
        assert positive
    for name in catalog.TWO_COMPONENT_NEGATIVE:
        _, _, positive = catalog.two_component_case(name)
        assert not positive


#: every entry as (name, kind, summary, rows), each row as (name, bound,
#: comparison), in catalog order: the published bounds, pinned
PINNED_ROWS = [
    ("euclidean", "metric",
     "Identity metric on a square box; the flatness baseline.",
     [("flatness", 1e-12, "le")]),
    ("polar", "metric",
     "Flat plane metric written in polar coordinates (r, theta).",
     [("flatness", 1e-06, "le"), ("lame", 1e-06, "le")]),
    ("sphere", "metric",
     "Round unit-sphere metric; curvature is constantly one.",
     [("constant_curvature_k1", 1e-05, "le"), ("not_flat", 0.01, "ge")]),
    ("diag-u", "metric",
     "Diagonal metric g^{ii} = u^i; flat despite coordinate-dependent entries.",
     [("flatness", 1e-10, "le"), ("lame", 1e-10, "le")]),
    ("s4-log-pencil", "pencil",
     "Ladder of diagonal metrics from the logarithmic closed form; "
     "consecutive members form flat pairs.",
     [("pair_g1_g0_flat", 1e-05, "le"), ("pair_g2_g1_flat", 1e-05, "le"),
      ("pair_g2_g0_flat", 1e-05, "le"), ("g3_not_flat", 0.01, "ge")]),
    ("s4-constant-curvature", "pencil",
     "Curvature-normalized top of the logarithmic ladder: constant "
     "curvature 1/4, compatible with its flat neighbour.",
     [("g3_constant_curvature", 1e-05, "le"), ("pencil_constant_curvature", 1e-05, "le")]),
    ("tc-log-unit", "two-component",
     "Log potential with unit coefficient and b = u1 - u2; compatible pair.",
     [("lequa", 1e-10, "le"), ("system", 1e-08, "le"), ("pair_flat", 1e-05, "le")]),
    ("tc-separable", "two-component",
     "Constant potential with axis-separable b; compatible by construction.",
     [("lequa", 1e-10, "le"), ("system", 1e-08, "le"), ("pair_flat", 1e-05, "le")]),
    ("tc-linear-exp", "two-component",
     "Linear potential with exponential b; closed-form compatible pair.",
     [("lequa", 1e-10, "le"), ("system", 1e-08, "le"), ("pair_flat", 1e-05, "le")]),
    ("tc-product-bad", "two-component",
     "Product potential whose b solves the first-order system yet fails "
     "the mixed equation; the pair must fail geometrically.",
     [("system", 1e-06, "le"), ("lequa_fails", 0.1, "ge"), ("pair_not_flat", 0.01, "ge")]),
    ("tc-log-wrong-b", "two-component",
     "Log potential with a wrong b field; first-order system and pair both fail.",
     [("system_fails", 0.01, "ge"), ("pair_not_flat", 0.01, "ge")]),
    ("dubrovin-quadratic", "construction",
     "Flat partner metric from a quadratic covector potential over the identity.",
     [("quadratic_relation", 1e-10, "le"), ("bracket", 1e-10, "le"),
      ("delta_consistency", 1e-06, "le"), ("cross_check_flat", 1e-06, "le")]),
    ("potentials-quadratic", "construction",
     "Candidate pair generated from per-coordinate quadratic potentials.",
     [("candidate_flat", 1e-10, "le"), ("compatibility", 1e-06, "le")]),
    ("dressing-gaussian", "dressing",
     "Three-component Gaussian scattering data: integral-equation solve "
     "plus kernel translation identities.",
     [("collocation_residual", 1e-10, "le"), ("translation_identity", 1e-08, "le"),
      ("conditioning", 1000.0, "le")]),
    ("dressing-separable", "dressing",
     "Rank-one separable kernel against its closed-form resolvent, with "
     "separable-potential reduction identities.",
     [("rank1_resolvent", 1e-09, "le"), ("separable_reduction_pde", 1e-10, "le"),
      ("product_reduction_pde", 0.1, "ge")]),
    ("dressing-reduced", "dressing",
     "Windowed two-component data with a constant reduction profile, "
     "carried through to a compatible flat pair.",
     [("quadrature_error", 1e-10, "le"), ("lame", 1e-05, "le"), ("reduction", 1e-05, "le"),
      ("pair_flat", 0.0001, "le"), ("tilde_kernel", 1e-08, "le"), ("tilde_beta", 1e-08, "le")]),
]


def test_every_row_keeps_its_published_bound():
    """Order, kinds and summaries of the entries, and the name, bound and
    comparison of each row: 16 entries, 45 rows."""
    got = [
        (e.name, e.kind, e.summary, [(r.name, r.bound, r.comparison) for r in e.run()])
        for e in catalog.ENTRIES
    ]
    assert got == PINNED_ROWS
    assert len(got) == 16 and sum(len(rows) for *_, rows in got) == 45


@pytest.mark.parametrize("n", range(4))
def test_ladder_scenarios_sample_the_closed_form(n):
    """The ladder's scenario metrics are ``two_component.g_family`` bit for bit."""
    chart = catalog.s4_chart()
    source = cli._metric_source(catalog._ladder(n)["contravariant"], "metric", chart.dim)
    metric = geo.build_metric(source, chart)
    family = tc.g_family(tc.log_family_spec(chart), n)
    assert np.array_equal(metric.contra.values, family.contra.values)
    assert np.array_equal(metric.cov.values, family.cov.values)


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
