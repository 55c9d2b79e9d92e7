"""Orthogonal-frame residuals, the scaled frame, and pencil recovery."""

import numpy as np
import numpy.testing as npt
import pytest

from flatpencil.errors import (
    NonFiniteProfile,
    NonFiniteSample,
    NotDiagonal,
    ResidualsTooLarge,
    SignChange,
    SignMismatch,
)
from flatpencil.grid_calculus import GridChart
from flatpencil import geometry_core as geo
from flatpencil import lame_system as ls
from flatpencil import pencil_checker as pc

from conftest import SAFE_LAMS


def _sphere():
    chart = GridChart((0.6, 0.4), (1.2, 1.2), (65, 65))
    return geo.build_metric(
        lambda u: [[1.0, 0.0], [0.0, 1.0 / np.sin(u[0]) ** 2]], chart)


def _diag_u():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (65, 65))
    return geo.build_metric(lambda u: [[u[0], 0.0], [0.0, u[1]]], chart)


def test_polar_frame_coefficients(polar_metric):
    fr = ls.frame_from_metric(polar_metric)
    assert fr.eps == (1, 1)
    chart = fr.chart
    i = chart.points[0] // 2
    r = chart.axis_coordinates(0)[i]
    # H = (1, r) and the only nonzero rotation coefficient is d_r H_theta = 1
    npt.assert_allclose(fr.h[:, i, i], [1.0, r], atol=1e-12)
    assert fr.beta[0, 1, i, i] == pytest.approx(1.0, abs=1e-10)
    assert fr.beta[1, 0, i, i] == pytest.approx(0.0, abs=1e-10)


def test_frame_metric_roundtrip(polar_metric):
    fr = ls.frame_from_metric(polar_metric)
    back = ls.frame_metric(fr)
    npt.assert_allclose(back.contra.values, polar_metric.contra.values,
                        atol=1e-14)


def test_indefinite_signature_is_detected():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (17, 17))
    m = geo.build_metric(lambda u: np.diag([-1.0, 1.0]), chart)
    fr = ls.frame_from_metric(m)
    assert fr.eps == (-1, 1)
    npt.assert_allclose(fr.h, np.ones_like(fr.h))


def test_wrong_eps_declaration_raises(polar_metric):
    with pytest.raises(SignMismatch) as err:
        ls.frame_from_metric(polar_metric, eps=(1, -1))
    assert err.value.node == (0, 0) and err.value.axis == 1
    assert "np.int64" not in str(err.value)
    assert "(0, 0) (u = (1, 0.5))" in str(err.value)


@pytest.mark.parametrize("eps", [(1, 1, 1), (1,), (1, 2), (0, 1), (1.5, 1)])
def test_frame_refuses_eps_of_the_wrong_length_or_sign(monkeypatch, polar_metric, eps):
    """eps is checked before any arithmetic, so no derivative is taken."""
    monkeypatch.setattr(ls.gc, "stacked_partials", None)
    with pytest.raises(ValueError, match="eps must be 2 signs, each"):
        ls.frame_from_metric(polar_metric, eps=eps)


def test_frame_requires_diagonal_metric():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (17, 17))
    m = geo.build_metric(lambda u: np.array([[2.0, 0.3], [0.3, 1.0]]), chart)
    with pytest.raises(NotDiagonal):
        ls.frame_from_metric(m)


@pytest.mark.parametrize("field", ["h", "beta"])
def test_frame_names_its_non_finite_node(field):
    """A NaN in a frame raises the package's own error, naming the node."""
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (5, 5))
    values = {"h": np.ones((2, 5, 5)), "beta": np.zeros((2, 2, 5, 5))}
    values[field][(0, 1, 2, 3)[-values[field].ndim:]] = np.nan
    with pytest.raises(NonFiniteSample, match=r"\(2, 3\) \(u = \(1, 1.25\)\)"):
        ls.LameFrame(chart, values["h"], values["beta"], (1, 1))


def test_flat_frames_satisfy_the_system(polar_metric):
    rep = ls.lame_residuals(ls.frame_from_metric(polar_metric))
    assert rep.off_diagonal == {}  # no triples in two dimensions
    assert max(rep.diagonal.values()) <= 1e-10

    rep2 = ls.lame_residuals(ls.frame_from_metric(_diag_u()))
    assert max(rep2.diagonal.values()) <= 1e-12


def test_curved_frame_fails_the_system():
    rep = ls.lame_residuals(ls.frame_from_metric(_sphere()))
    assert max(rep.diagonal.values()) >= 0.5


def test_three_dimensional_triples_exist():
    chart = GridChart((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (9, 9, 9))
    m = geo.build_metric(lambda u: np.eye(3), chart)
    rep = ls.lame_residuals(ls.frame_from_metric(m))
    assert len(rep.off_diagonal) == 6  # (i,j,k) with all distinct, i<j
    assert max(rep.off_diagonal.values()) == 0.0


def test_unit_profile_reduction_matches_diagonal_rows(polar_metric):
    """With every profile component equal to 1 the reduced equations coincide
    with the plain diagonal equations, row by row."""
    fr = ls.frame_from_metric(polar_metric)
    lame = ls.lame_residuals(fr)
    red = ls.reduction_residual(fr, ls.constant_profile((1.0, 1.0)))
    for key, val in red.pairs.items():
        assert val == pytest.approx(lame.diagonal[key], rel=1e-12)


def test_scaled_frame_involution(polar_metric):
    fr = ls.frame_from_metric(polar_metric)
    fwd = ls.tilde_frame(fr, ls.identity_profile(2))
    inv = ls.ReductionProfile((lambda t: 1.0 / t, lambda t: 1.0 / t))
    back = ls.tilde_frame(fwd, inv)
    npt.assert_allclose(back.h, fr.h, atol=1e-13)
    npt.assert_allclose(back.beta, fr.beta, atol=1e-13)
    assert back.eps == fr.eps


def test_scaled_frame_flips_signature_with_profile_sign(polar_metric):
    fr = ls.frame_from_metric(polar_metric)
    prof = ls.constant_profile((-2.0, 3.0))
    assert ls.tilde_frame(fr, prof).eps == (-1, 1)


def test_metric_pair_from_frame_recovers_compatible_pair():
    fr = ls.frame_from_metric(_diag_u())
    pen = ls.metric_pair_from_frame(fr, ls.identity_profile(2), tol=1e-4,
                                    lambda_samples=SAFE_LAMS)
    # identity profile turns diag(u) into diag(u^2)
    U1, U2 = fr.chart.meshgrid()
    npt.assert_allclose(pen.g1.contra.values[0, 0], U1**2, atol=1e-10)
    npt.assert_allclose(pen.g2.contra.values[1, 1], U2, atol=1e-12)
    assert pc.check_compatible(pen, "flat").max_residual <= 1e-5


def test_metric_pair_gate_rejects_curved_frame():
    fr = ls.frame_from_metric(_sphere())
    with pytest.raises(ResidualsTooLarge):
        ls.metric_pair_from_frame(fr, ls.constant_profile((1.0, 1.0)))


def test_profile_vanishing_on_chart_is_rejected(polar_metric):
    fr = ls.frame_from_metric(polar_metric)
    crossing = ls.ReductionProfile((lambda t: t - 1.2, lambda t: t - 1.2))
    with pytest.raises(SignChange):
        ls.metric_pair_from_frame(fr, crossing, tol=1e-4,
                                  lambda_samples=SAFE_LAMS)


def test_partly_nan_profile_is_rejected_with_its_coordinate():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (11, 11))
    with np.errstate(invalid="ignore"):
        half = ls.ReductionProfile((lambda t: 2.0, lambda t: np.sqrt(t - 1.2)))
        with pytest.raises(NonFiniteProfile) as err:
            half.signs_on(chart)
    assert err.value.component == 1 and err.value.t == 0.5
    assert str(err.value) == "profile component 1 is not finite at t = 0.5"


def test_profile_functions_may_return_scalars():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (5, 7))
    prof = ls.ReductionProfile((lambda t: -2.0, lambda t: t))
    assert prof.signs_on(chart) == (-1, 1)
    vals = prof.values_on(chart)
    npt.assert_array_equal(vals[0], -2.0)
    npt.assert_array_equal(vals[1], chart.meshgrid()[1])


def test_report_maxima_keep_a_nan_in_any_position():
    nan = float("nan")
    lame = ls.LameResidualReport({(0, 1, 2): 1e-12, (1, 0, 2): nan},
                                 {(0, 1): 1e-12, (1, 0): 1e-13})
    assert np.isnan(lame.max_residual)
    lame = ls.LameResidualReport({}, {(0, 1): 1e-12, (1, 0): nan})
    assert np.isnan(lame.max_residual)
    red = ls.ReductionReport({(0, 1): 1e-12, (1, 0): nan})
    assert np.isnan(red.residual)
