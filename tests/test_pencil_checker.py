import dataclasses
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from flatpencil.errors import (
    DegenerateCombination,
    DegenerateMetric,
    NotDiagonal,
    NotFlatCoordinates,
)
from flatpencil.grid_calculus import GridChart, TensorField
from flatpencil import cli
from flatpencil import geometry_core as geo
from flatpencil import grid_calculus as gc
from flatpencil import pencil_checker as pc

from conftest import SAFE_LAMS, count_calls, full_curvature, planes_of, record_results

LAMS_UNIT = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (3.0, -1.0), (1.0, 2.0))


def _identity(chart):
    return geo.build_metric(lambda u: np.eye(chart.dim), chart)


def _diag_pencil(points=65):
    """g1 = diag(u), g2 = id on a chart where the eigenvalue gap stays 0.5."""
    chart = GridChart((0.5, 2.0), (1.5, 3.0), (points, points))
    g1 = geo.build_metric(lambda u: [[u[0], 0.0], [0.0, u[1]]], chart)
    return pc.PencilSpec(g1, _identity(chart), lambda_samples=SAFE_LAMS)


def _counter_pencil():
    """Not almost compatible: g1 depends on the coordinate it does not carry."""
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (65, 65))
    g1 = geo.build_metric(lambda u: [[1.0 + u[1] ** 2, 0.0], [0.0, 1.0]], chart)
    return pc.PencilSpec(g1, _identity(chart), lambda_samples=SAFE_LAMS)


def test_combine_is_exactly_bilinear():
    pen = _diag_pencil()
    comb = pc.combine(pen, 2.0, 3.0)
    manual = 2.0 * pen.g1.contra.values + 3.0 * pen.g2.contra.values
    npt.assert_array_equal(comb.contra.values, manual)


def _nonsingular_pencil():
    """g1 = diag(u1, 2), g2 = id with the default samples: the eigenvalues
    u1 and 2 stay 0.5 apart, yet g1 - g2 = diag(u1 - 1, 1) is singular at
    u1 = 1."""
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (17, 17))
    g1 = geo.build_metric(lambda u: [[u[0], 0.0], [0.0, 2.0]], chart)
    return pc.PencilSpec(g1, _identity(chart))


def test_degenerate_combination_is_rejected_by_the_check():
    pen = _nonsingular_pencil()
    aff = pc.affinor(pen)
    spectrum = pc.nonsingularity(aff)
    assert spectrum.min_gap == 0.5 and spectrum.min_gap >= spectrum.threshold
    assert pc.nijenhuis(aff) <= 1e-10
    assert pc.check_diagonal_form(pen).residual <= 1e-10
    for check in (pc.check_compatible, pc.check_almost_compatible):
        with pytest.raises(DegenerateCombination, match=r"combination \(1\.0, -1\.0\)") as exc:
            check(pen)
        assert exc.value.lam == (1.0, -1.0)


def test_a_pencil_is_built_without_its_combinations(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, ("build_metric",), pc)
    pen = _nonsingular_pencil()  # builds g1 and g2 through geometry_core, uncounted
    assert [f.name for f in dataclasses.fields(pen)] == ["g1", "g2", "lambda_samples"]
    assert calls["build_metric"] == 0


def test_charts_differing_only_in_extent_are_rejected():
    chart = GridChart((0.5, 2.0), (1.5, 3.0), (17, 17))
    chart2 = GridChart(chart.lower, (1.5, 3.5), chart.points)
    g1 = geo.build_metric(lambda u: [[u[0], 0.0], [0.0, u[1]]], chart)
    with pytest.raises(ValueError, match="share one chart"):
        pc.PencilSpec(g1, _identity(chart2), lambda_samples=SAFE_LAMS)


def test_diagonal_pencil_is_flat_compatible():
    pen = _diag_pencil()
    rep = pc.check_compatible(pen, "flat")
    for name in ("g1", "g2"):
        own = geo.connection(getattr(pen, name))
        npt.assert_array_equal(rep.endpoint_connection[name].mixed.values, own.mixed.values)
        npt.assert_array_equal(rep.endpoint_connection[name].contra.values, own.contra.values)
    assert rep.max_residual <= 1e-5
    assert set(rep.endpoint_residuals) == {"g1_flatness", "g2_flatness"}
    assert set(rep.connection_by_sample) == set(SAFE_LAMS)
    assert set(rep.curvature_by_sample) == set(SAFE_LAMS)
    # the pure endpoints are exact; mixtures carry stencil truncation
    assert rep.connection_by_sample[(1.0, 0.0)] == 0.0
    assert rep.connection_by_sample[(0.0, 1.0)] == 0.0
    assert rep.max_curvature <= 1e-10


@pytest.mark.parametrize("mode", ["flat", "constant_curvature", "general"])
def test_raised_curvature_is_formed_only_when_read(monkeypatch, mode):
    """Flat mode reads R^i_{jkl} only; the other two modes read R^{ij}_{kl},
    and their residuals are those of the eager raised formula."""
    made, k1, k2 = [], 0.5, 0.25
    record_results(monkeypatch, made, ("curvature",), pc)
    pen = _diag_pencil(17)
    rep = pc.check_compatible(pen, mode, k1, k2)
    assert len(made) == len(SAFE_LAMS)
    assert ["contra" in vars(curv) for curv in made] == [mode != "flat"] * len(made)
    if mode == "flat":
        return
    # made follows the samples: SAFE_LAMS starts with g1 = (1, 0) and g2 = (0, 1)
    raised = {}
    for lam, curv in zip(SAFE_LAMS, made):
        # the eager formula is a matmul over grid-first copies
        g = np.moveaxis(curv.metric.contra.values, (0, 1), (-2, -1))
        r = np.moveaxis(curv.planes, (0, 1, 2), (-3, -2, -1))
        eager = g[..., None, :, :] @ np.ascontiguousarray(r)
        raised[lam] = np.moveaxis(np.swapaxes(eager, -3, -2), (-3, -2, -1), (0, 1, 2))
    eye = np.eye(2)
    unit = np.einsum("ik,jl->ijkl", eye, eye)
    unit = planes_of(unit - np.swapaxes(unit, -1, -2))[..., None, None]
    for (l1, l2), residual in rep.curvature_by_sample.items():
        if mode == "general":
            expected = raised[(l1, l2)] - l1 * raised[(1.0, 0.0)] - l2 * raised[(0.0, 1.0)]
        else:
            expected = raised[(l1, l2)] - (l1 * k1 + l2 * k2) * unit
        assert residual == gc.interior_max(expected, pen.chart)


@pytest.mark.parametrize("mode", ["flat", "constant_curvature", "general", None])
def test_check_visits_each_member_once(monkeypatch, mode):
    chart = GridChart((0.5, 2.0), (1.5, 3.0), (17, 17))
    g1 = geo.build_metric(lambda u: [[u[0], 0.0], [0.0, u[1]]], chart)
    g2 = _identity(chart)
    calls = Counter()
    count_calls(monkeypatch, calls, ("build_metric", "connection", "curvature"), pc)
    pen = pc.PencilSpec(g1, g2, lambda_samples=SAFE_LAMS)
    if mode is None:
        pc.check_almost_compatible(pen)
    else:
        pc.check_compatible(pen, mode)
    # the samples (1, 0) and (0, 1) are g1 and g2: never built, measured once
    s = len(SAFE_LAMS)
    assert calls == {"build_metric": s - 2, "connection": s,
                     **({"curvature": s} if mode else {})}


def test_endpoint_curvature_is_the_pointwise_maximum():
    pen = _counter_pencil()
    rep = pc.check_compatible(pen, "general")
    assert set(rep.endpoint_curvature) == {"g1", "g2"}
    for name, metric in (("g1", pen.g1), ("g2", pen.g2)):
        full = full_curvature(geo.curvature(metric).planes)
        npt.assert_array_equal(
            rep.endpoint_curvature[name], np.max(np.abs(full), axis=(0, 1, 2, 3)))


def test_almost_compatible_pass_and_fail():
    ok = pc.check_almost_compatible(_diag_pencil())
    assert max(ok.connection_by_sample.values()) <= 1e-5
    bad = pc.check_almost_compatible(_counter_pencil())
    assert max(bad.connection_by_sample.values()) >= 1e-1


def test_the_affinor_is_stored_component_major():
    """The affinor's field is one C-contiguous component-major array, the
    grid-first product's values, and ``nijenhuis`` reads on it what it reads
    on that product's strided view."""
    pen = _counter_pencil()
    aff = pc.affinor(pen)
    assert aff.field.values.flags.c_contiguous
    g1, g2 = (np.moveaxis(v, (0, 1), (-2, -1)) for v in (pen.g1.contra.values, pen.g2.cov.values))
    view = np.moveaxis(g1 @ g2, (-2, -1), (0, 1))
    npt.assert_array_equal(aff.field.values, view)
    strided = dataclasses.replace(aff, field=TensorField.owning(pen.chart, "ud", view))
    assert pc.nijenhuis(aff) == pc.nijenhuis(strided) >= 1e-1


def test_nijenhuis_vanishes_for_diagonal_affinor():
    assert pc.nijenhuis(pc.affinor(_diag_pencil())) <= 1e-10


def test_nijenhuis_detects_incompatible_pair():
    val = pc.nijenhuis(pc.affinor(_counter_pencil()))
    assert val >= 1e-2
    assert val == pytest.approx(5.94091796875, rel=1e-6)


def test_nonsingularity_gap_and_scale():
    rep = pc.nonsingularity(pc.affinor(_diag_pencil()))
    assert rep.min_gap == pytest.approx(0.5, abs=1e-12)
    assert not rep.has_complex_pairs
    assert rep.eigen_scale == pytest.approx(3.0)
    assert rep.threshold == pytest.approx(1e-6 * rep.eigen_scale)


def test_nonsingularity_flags_complex_spectrum():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (17, 17))
    g1 = geo.build_metric(lambda u: np.array([[0.0, 1.0], [1.0, 0.0]]), chart)
    g2 = geo.build_metric(lambda u: np.diag([1.0, -1.0]), chart)
    lams = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0))
    rep = pc.nonsingularity(pc.affinor(pc.PencilSpec(g1, g2, lambda_samples=lams)))
    assert rep.has_complex_pairs
    assert rep.min_gap == pytest.approx(2.0, abs=1e-12)


def test_diagonal_form_recovers_eigen_fields():
    pen = _diag_pencil()
    rep = pc.check_diagonal_form(pen)
    U1, U2 = pen.chart.meshgrid()
    npt.assert_allclose(rep.f_values[0], U1, atol=1e-12)
    npt.assert_allclose(rep.f_values[1], U2, atol=1e-12)
    assert rep.residual <= 1e-10
    assert rep.off_diagonal_max <= 1e-12


def test_diagonal_form_requires_diagonal_affinor():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (17, 17))
    g1 = geo.build_metric(lambda u: np.array([[2.0, 0.3], [0.3, 1.0]]), chart)
    with pytest.raises(NotDiagonal):
        pc.check_diagonal_form(pc.PencilSpec(g1, _identity(chart),
                                             lambda_samples=SAFE_LAMS))


def _mixed_scale_pencil(k1=0, k2=0, off=0.5):
    """g1 = diag(1e6 u1, 1e6) and g2 = 1e-3 [[1, off], [off, 1]] on [1, 2]^2
    at 17^2, scaled by 10^k1 and 10^k2."""
    chart = GridChart((1.0, 1.0), (2.0, 2.0), (17, 17))
    s1, s2 = 1e6 * 10.0 ** k1, 1e-3 * 10.0 ** k2
    g1 = geo.build_metric(lambda u: [[s1 * u[0], 0.0], [0.0, s1]], chart)
    g2 = geo.build_metric(lambda u: s2 * np.array([[1.0, off], [off, 1.0]]), chart)
    return pc.PencilSpec(g1, g2)


def test_each_metric_is_judged_diagonal_at_its_own_scale():
    """g2's off-diagonal entry is half its diagonal: measured against g1's
    scale, 1e9 times its own, it would read as rounding."""
    with pytest.raises(NotDiagonal) as info:
        pc.check_diagonal_form(_mixed_scale_pencil())
    assert info.value.offdiag == 5e-4 and info.value.tol == pytest.approx(1e-11)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-9, 9), off=st.sampled_from([0.0, 0.5]),
       rescaled=st.sampled_from(["g1", "g2"]))
def test_rescaling_one_metric_keeps_the_diagonality_verdict(k, off, rescaled):
    def diagonal(k1, k2):
        try:
            pc.check_diagonal_form(_mixed_scale_pencil(k1, k2, off))
        except NotDiagonal:
            return False
        return True

    assert diagonal(0, 0) == (off == 0.0)
    assert diagonal(*((k, 0) if rescaled == "g1" else (0, k))) == (off == 0.0)


# --- quadratic construction from a covector potential ------------------------

def _unit_eta(points=65, lo=1.0, hi=2.0):
    chart = GridChart((lo, lo), (hi, hi), (points, points))
    return chart, _identity(chart)


def test_quadratic_construction_passes_for_commuting_hessians():
    chart, eta = _unit_eta()
    f = lambda u: np.array([0.5 * u[0] ** 2, 0.5 * u[1] ** 2])
    rep = pc.dubrovin_construct(eta, f, c=0.0, lambda_samples=LAMS_UNIT)
    assert rep.quadratic_residual == 0.0
    assert rep.bracket_residual == 0.0
    assert rep.lowering_defect == 0.0
    assert rep.delta_consistency <= 1e-6
    assert rep.compatibility.max_residual <= 1e-6


def test_quadratic_construction_offset_term():
    chart, eta = _unit_eta()
    f = lambda u: np.array([0.5 * u[0] ** 2, 0.5 * u[1] ** 2])
    rep = pc.dubrovin_construct(eta, f, c=1.0, lambda_samples=LAMS_UNIT)
    # g1 = diag(2 u^i) + 1
    U1, _ = chart.meshgrid()
    npt.assert_allclose(rep.g1.contra.values[0, 0], 2 * U1 + 1.0, atol=1e-10)
    assert max(rep.quadratic_residual, rep.bracket_residual,
               rep.compatibility.max_residual) <= 1e-6


def test_quadratic_construction_rejects_noncommuting_potential():
    chart, eta = _unit_eta(lo=1.5, hi=2.5)
    f = lambda u: np.array([0.5 * u[0] ** 2, u[0] * u[1]])
    rep = pc.dubrovin_construct(eta, f, c=0.0, lambda_samples=LAMS_UNIT)
    assert rep.quadratic_residual >= 1e-2
    assert rep.bracket_residual >= 1e-2


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-9])
def test_curvilinear_reference_is_not_flat_coordinates(scale):
    """Polar coordinates are flat but not flat coordinates at every scale:
    the gate is relative to the metric, whose raised connection scales with it."""
    chart = GridChart((1.0, 0.5), (2.0, 1.5), (33, 33))
    polar = geo.build_metric(lambda u: [[scale, 0.0], [0.0, scale / u[0] ** 2]], chart)
    f = lambda u: np.array([0.5 * u[0] ** 2, 0.5 * u[1] ** 2])
    with pytest.raises(NotFlatCoordinates):
        pc.dubrovin_construct(polar, f, lambda_samples=LAMS_UNIT)


def test_scaled_constant_reference_is_flat_coordinates():
    chart = GridChart((1.0, 1.0), (2.0, 2.0), (33, 33))
    eta = geo.build_metric(lambda u: 1e-9 * np.eye(2), chart)
    f = lambda u: np.array([0.5 * u[0] ** 2, 0.5 * u[1] ** 2])
    rep = pc.dubrovin_construct(eta, f, lambda_samples=LAMS_UNIT)
    assert rep.quadratic_residual <= 1e-10 and rep.compatibility.max_residual <= 1e-6


# --- the potentials route: the same candidate at c = 0 over a constant eta ---

def _potentials(h, lower=1.0, upper=2.0, points=65, eta=((1, 0), (0, 1))):
    """Checks by name, and the degenerate flag, of a ``potentials`` scenario."""
    scenario = {
        "kind": "potentials",
        "chart": {"lower": [lower] * 2, "upper": [upper] * 2, "points": [points] * 2},
        "eta": [list(row) for row in eta],
        "potentials": list(h),
        "lambda_samples": [list(lam) for lam in SAFE_LAMS],
    }
    report, _ = cli.run_scenario(scenario, {"tolerance": 1e-6, "seed": 0})
    checks = {row["check"]: row["residual"] for row in report["checks"]}
    return checks, report["metadata"]["degenerate"]


def test_potentials_route_builds_flat_pair():
    checks, degenerate = _potentials(("0.5*u1*u1", "0.5*u2*u2"))
    assert not degenerate
    assert checks["candidate_flat"] <= 1e-10
    assert checks["compatibility"] <= 1e-6


def test_potentials_route_is_dubrovins_candidate_at_zero_offset():
    chart, eta = _unit_eta()
    g1 = pc.partner_metric(eta, lambda u: [0.5 * u[0] ** 2, 0.5 * u[1] ** 2])[0]
    U1, U2 = chart.meshgrid()
    npt.assert_allclose(g1.contra.values[0, 0], 2 * U1, atol=1e-10)
    npt.assert_allclose(g1.contra.values[1, 1], 2 * U2, atol=1e-10)


def test_potentials_route_gates_eta_relative_to_its_scale():
    """A small eta is a metric like any other; only the relative floor gates it."""
    checks, degenerate = _potentials(("0.5*u1*u1", "0.5*u2*u2"),
                                     eta=((1e-7, 0), (0, 1e-7)))
    assert not degenerate
    assert checks["candidate_flat"] <= 1e-10
    assert checks["compatibility"] <= 1e-6


def test_potentials_route_reports_degenerate_candidate():
    checks, degenerate = _potentials(("u1 + 2*u2", "u2"), points=17)
    assert degenerate
    assert checks == {"candidate_flat": float("inf")}


def test_potentials_route_skips_compat_for_nonflat_candidate():
    checks, degenerate = _potentials(("u1*u1*u2", "u2"), upper=1.8, points=33)
    assert not degenerate
    assert checks["candidate_flat"] > 1.0
    assert "compatibility" not in checks


def test_report_maxima_keep_a_nan_in_any_position():
    nan = float("nan")
    almost = pc.CompatibilityReport(None, {(1.0, 0.0): 1e-12, (0.0, 1.0): nan}, {}, {})
    assert np.isnan(almost.max_residual)
    flat = pc.CompatibilityReport(
        "flat", {(1.0, 0.0): 1e-12, (0.0, 1.0): 1e-13},
        {(1.0, 0.0): 1e-12, (0.0, 1.0): nan}, {"g1": 1e-12},
    )
    assert np.isnan(flat.max_curvature) and np.isnan(flat.max_residual)
    flat = pc.CompatibilityReport(
        "flat", {(1.0, 0.0): 1e-12, (0.0, 1.0): nan}, {}, {},
    )
    assert np.isnan(flat.max_residual)


def test_potentials_may_return_scalars():
    """h^2 is constant: the candidate diag(2 u1, 0) is degenerate."""
    chart = GridChart((1.0, 1.0), (2.0, 2.0), (33, 33))
    with pytest.raises(DegenerateMetric):
        pc.partner_metric(_identity(chart), lambda u: [0.5 * u[0] ** 2, 3.0])
    checks, degenerate = _potentials(("0.5*u1*u1", 3.0), points=33)
    assert degenerate and checks == {"candidate_flat": float("inf")}
