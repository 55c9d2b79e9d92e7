import numpy as np
import numpy.testing as npt
import pytest

from flatpencil.errors import DegenerateCombination, NonFiniteSample, VanishingB
from flatpencil.grid_calculus import GridChart
from flatpencil import geometry_core as geo
from flatpencil import pencil_checker as pc
from flatpencil import two_component as tc

# chart with u1 > u2 everywhere, used by the closed-form family
CHART = GridChart((2.0, 0.5), (3.0, 1.0), (97, 65))
LAMS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0), (2.0, -3.0))


def _w():
    U1, U2 = CHART.meshgrid()
    return U1 - U2


def test_log_potential_solves_the_linearized_equation():
    spec = tc.log_family_spec(CHART)
    assert tc.lequa_residual(spec) <= 1e-12


def test_linear_potential_linearized_residual_is_analytic():
    # with identity eigen-fields the residual reduces to |b - a|
    spec = tc.TwoComponentSpec(CHART, tc.linear_potential(0.3, 0.5))
    assert tc.lequa_residual(spec) == pytest.approx(0.2, abs=1e-9)


def test_product_potential_fails_linearized_equation():
    spec = tc.TwoComponentSpec(CHART, tc.product_potential())
    val = tc.lequa_residual(spec)
    # residual is 3(u1 - u2); the maximum sits at the interior corner
    h1, h2 = CHART.spacing
    expected = 3.0 * ((3.0 - 4 * h1) - (0.5 + 4 * h2))
    assert val == pytest.approx(expected, rel=1e-12)


def test_log_family_b_field_and_coupled_system():
    spec = tc.log_family_spec(CHART)
    npt.assert_array_equal(spec.b1, np.sqrt(_w()))
    npt.assert_array_equal(spec.b2, np.sqrt(_w()))
    assert tc.system_residual(spec) <= 1e-8


def test_power_law_family_solves_system_for_any_exponent():
    for c in (1.0, 0.37, -0.8):
        b = _w() ** c
        spec = tc.TwoComponentSpec(CHART, tc.log_potential(c), b1=b.copy(),
                                   b2=b.copy())
        assert tc.system_residual(spec) <= 1e-7, c


def test_wrong_b_fails_the_system():
    U1, U2 = CHART.meshgrid()
    b = np.exp(U1 * U2)
    spec = tc.TwoComponentSpec(CHART, tc.log_potential(1.0), b1=b.copy(),
                               b2=b.copy())
    assert tc.system_residual(spec) >= 1e-2


def test_family_metrics_have_closed_form():
    spec = tc.log_family_spec(CHART)
    w = _w()
    for n in (0, 1, 2):
        g = tc.g_family(spec, n)
        U1, U2 = CHART.meshgrid()
        npt.assert_allclose(g.contra.values[0, 0], -(U1**n) / w, atol=1e-12)
        npt.assert_allclose(g.contra.values[1, 1], (U2**n) / w, atol=1e-12)
        assert np.max(np.abs(g.contra.values[0, 1])) == 0.0


def test_vanishing_b_is_rejected():
    with pytest.raises(VanishingB):
        tc.TwoComponentSpec(CHART, tc.log_potential(1.0), b1=_w() - 1.0,
                            b2=_w())


def test_log_family_requires_ordered_chart():
    with pytest.raises(ValueError, match="u1 > u2"):
        tc.log_family_spec(GridChart((0.0, 0.0), (1.0, 1.0), (17, 17)))


def test_build_pair_default_samples_can_degenerate():
    pen = tc.build_pair(tc.log_family_spec(CHART))
    with pytest.raises(DegenerateCombination):
        pc.check_compatible(pen)  # default samples include (1, -1); f - 1 = 0 here


def test_build_pair_is_flat_compatible():
    spec = tc.log_family_spec(CHART)
    pen = tc.build_pair(spec, lambda_samples=LAMS)
    assert isinstance(pen, pc.PencilSpec)
    rep = pc.check_compatible(pen, "flat")
    assert rep.max_residual <= 1e-5


def test_integrate_b_reproduces_closed_form():
    """Two-edge integration of the coupled system recovers sqrt(u1 - u2)."""
    spec = tc.log_family_spec(CHART)
    out = tc.integrate_b(spec,
                         b1_edge=lambda u1: np.sqrt(u1 - 0.5),
                         b2_edge=lambda u2: np.sqrt(2.0 - u2))
    w = _w()
    assert np.max(np.abs(out.b1 - np.sqrt(w))) <= 1e-6
    assert np.max(np.abs(out.b2 - np.sqrt(w))) <= 1e-6
    assert max(out.consistency.values()) <= 1e-6


def test_integrated_b_passes_downstream_checks():
    spec = tc.log_family_spec(CHART)
    out = tc.integrate_b(spec,
                         b1_edge=lambda u1: np.sqrt(u1 - 0.5),
                         b2_edge=lambda u2: np.sqrt(2.0 - u2))
    spec2 = tc.TwoComponentSpec(CHART, tc.log_potential(0.5), b1=out.b1,
                                b2=out.b2)
    pen = tc.build_pair(spec2, lambda_samples=LAMS)
    assert pc.check_compatible(pen, "flat").max_residual <= 1e-5


def test_constant_curvature_member():
    """With b^2 = (u1 - u2)/(4K) the n=3 metric has constant curvature K and
    pairs with the flat n=2 metric into a constant-curvature pencil."""
    k = 0.25
    spec = tc.log_family_spec(CHART, k=k)
    g3 = tc.g_family(spec, 3)
    assert geo.constant_curvature_residual(g3, k) <= 1e-5
    assert geo.flatness_residual(g3) >= 1e-2
    g2 = tc.g_family(spec, 2)
    pen = pc.PencilSpec(g3, g2, lambda_samples=LAMS)
    rep = pc.check_compatible(pen, "constant_curvature", k1=k, k2=0.0)
    assert rep.max_residual <= 1e-5


def test_integrate_b_accepts_scalar_edge_data():
    spec = tc.TwoComponentSpec(CHART, tc.linear_potential(0.0, 0.0))
    out = tc.integrate_b(spec, b1_edge=lambda u1: 2.0, b2_edge=lambda u2: 3.0)
    npt.assert_array_equal(out.b1, 2.0)
    npt.assert_array_equal(out.b2, 3.0)


def test_vanishing_b_names_plain_nodes_and_rejects_nan():
    b = np.ones(CHART.shape)
    b[3, 4] = 0.0
    with pytest.raises(VanishingB) as err:
        tc.TwoComponentSpec(CHART, tc.log_potential(0.5), b1=b, b2=np.ones(CHART.shape))
    assert err.value.node == (3, 4)
    assert "np.int64" not in str(err.value)
    assert err.value.name == "b1" and str(err.value).startswith("|b1| = ")
    assert err.value.coords == (2.03125, 0.53125)  # CHART.node((3, 4))
    assert "(3, 4) (u = (2.03125, 0.53125))" in str(err.value)
    b[3, 4] = np.nan  # NaN is not finite, so it never reaches the floor
    with pytest.raises(NonFiniteSample) as err:
        tc.TwoComponentSpec(CHART, tc.log_potential(0.5), b1=np.ones(CHART.shape), b2=b)
    assert str(err.value) == "non-finite sample at grid node (3, 4) (u = (2.03125, 0.53125))"
    assert err.value.node == (3, 4) and err.value.coords == (2.03125, 0.53125)
