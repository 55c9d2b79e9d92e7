"""Connection / curvature residuals against closed-form geometry."""

import numpy as np
import numpy.testing as npt
import pytest

from flatpencil.errors import DegenerateMetric
from flatpencil.grid_calculus import GridChart
from flatpencil import geometry_core as geo


def _sphere_metric(points=65):
    chart = GridChart((0.6, 0.4), (1.2, 1.2), (points, points))
    return geo.build_metric(
        lambda u: [[1.0, 0.0], [0.0, 1.0 / np.sin(u[0]) ** 2]], chart)


def test_euclidean_connection_and_flatness_vanish(euclidean_metric):
    conn = geo.connection(euclidean_metric)
    assert np.max(np.abs(conn.mixed.values)) == 0.0
    assert np.max(np.abs(conn.contra.values)) == 0.0
    assert geo.flatness_residual(euclidean_metric) <= 1e-12


def test_polar_plane_is_flat(polar_metric):
    res = geo.flatness_residual(polar_metric)
    assert res <= 1e-6
    assert res > 1e-10  # truncation-limited, not an identically-zero fluke


def test_second_order_stencils_are_less_accurate(polar_metric):
    res2 = geo.flatness_residual(polar_metric, order=2)
    res4 = geo.flatness_residual(polar_metric, order=4)
    assert res2 > 1e-5
    assert res2 > 100 * res4


def test_sphere_has_unit_curvature():
    m = _sphere_metric()
    assert geo.flatness_residual(m) >= 0.5
    assert geo.constant_curvature_residual(m, 1.0) <= 1e-5
    # a wrong curvature constant must be visibly rejected
    assert geo.constant_curvature_residual(m, 2.0) >= 1e-2


def test_zero_curvature_matches_flatness():
    m = _sphere_metric(33)
    assert geo.constant_curvature_residual(m, 0.0) == pytest.approx(
        geo.flatness_residual(m), rel=1e-5)


def test_flatness_residual_is_scale_invariant(polar_metric):
    chart = polar_metric.contra.chart
    scaled = geo.build_metric(7.0 * polar_metric.contra.values.copy(), chart)
    r1 = geo.flatness_residual(polar_metric)
    r2 = geo.flatness_residual(scaled)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_array_source_matches_callable_source():
    chart = GridChart((1.0, 0.5), (2.0, 1.5), (33, 33))
    from_call = geo.build_metric(lambda u: [[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]], chart)
    from_array = geo.build_metric(from_call.contra.values.copy(), chart)
    npt.assert_array_equal(from_call.contra.values, from_array.contra.values)
    npt.assert_array_equal(from_call.cov.values, from_array.cov.values)


def test_cov_is_pointwise_inverse(polar_metric):
    prod = np.einsum("...is,...sj->...ij",
                     polar_metric.contra.values, polar_metric.cov.values)
    eye = np.broadcast_to(np.eye(2), prod.shape)
    npt.assert_allclose(prod, eye, atol=1e-13)


def test_degenerate_metric_is_rejected():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (17, 17))
    with pytest.raises(DegenerateMetric):
        geo.build_metric(lambda u: [[u[0] - 1.0, 0.0], [0.0, 1.0]], chart)


def test_degenerate_metric_names_node_and_coordinates():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (9, 5))
    with pytest.raises(DegenerateMetric) as err:
        geo.build_metric(lambda u: [[u[0] - 1.0, 0.0], [0.0, 1.0]], chart)
    assert err.value.node == (4, 0)
    assert all(type(i) is int for i in err.value.node)
    message = str(err.value)
    assert "np.int64" not in message
    assert "node (4, 0) (u = (1, 0.5))" in message


def test_array_source_passes_the_symmetry_gate():
    chart = GridChart((1.0, 0.5), (2.0, 1.5), (9, 9))
    U1, _ = chart.meshgrid()
    vals = np.zeros(chart.shape + (2, 2))
    vals[..., 0, 0] = vals[..., 1, 1] = 2.0
    vals[..., 0, 1] = 0.1 * U1
    vals[..., 1, 0] = 0.1 * U1 * (1.0 + 1e-12)  # rounding-level asymmetry
    m = geo.build_metric(vals, chart)
    npt.assert_array_equal(m.contra.values, np.swapaxes(m.contra.values, -1, -2))
    vals[..., 1, 0] = 0.0  # a real asymmetry is not repaired silently
    with pytest.raises(ValueError, match="symmetry"):
        geo.build_metric(vals, chart)


def test_curvature_antisymmetric_in_last_index_pair(polar_metric):
    R = geo.curvature(polar_metric).mixed.values
    assert np.max(np.abs(R + np.swapaxes(R, -2, -1))) <= 1e-20


def test_first_curvature_identity(polar_metric):
    """Cyclic sum over the three lower slots vanishes identically."""
    R = geo.curvature(polar_metric).mixed.values
    cyc = (R
           + np.transpose(R, (0, 1, 2, 4, 5, 3))
           + np.transpose(R, (0, 1, 2, 5, 3, 4)))
    assert np.max(np.abs(cyc)) <= 1e-20


def test_raised_curvature_antisymmetry_is_truncation_limited():
    """R with both upper indices is antisymmetric in them analytically; the
    numerical defect is pure stencil truncation and shrinks at fourth order."""
    defects = {}
    for n in (41, 81):
        chart = GridChart((1.0, 0.5), (2.0, 1.5), (n, n))
        m = geo.build_metric(lambda u: [[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]], chart)
        Rc = geo.curvature(m).contra.values
        defects[n] = np.max(np.abs(Rc + np.swapaxes(Rc, -4, -3)))
    assert defects[41] <= 1e-4
    assert defects[41] / defects[81] > 8.0


def test_connection_shapes(polar_metric):
    conn = geo.connection(polar_metric)
    assert conn.mixed.values.shape == (101, 101, 2, 2, 2)
    assert conn.contra.values.shape == (101, 101, 2, 2, 2)
    # mixed symmetric in the last two (lower) slots
    g = conn.mixed.values
    npt.assert_allclose(g, np.swapaxes(g, -2, -1), atol=1e-20)
