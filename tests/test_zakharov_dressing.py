"""Integral-equation solver: closed forms, convergence, and reduction gates."""

import dataclasses
import math
from collections import namedtuple

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from flatpencil.errors import (FactorMismatch, IllConditioned, NonFiniteProfile,
                               NonFiniteSample, QuadratureUnresolved, SignChange,
                               TruncationInsufficient)
from flatpencil.grid_calculus import GridChart
from flatpencil import lame_system as ls
from flatpencil import two_component as tc
from flatpencil import zakharov_dressing as zd

U2 = (0.1, -0.2)
PROBES = np.array([[0.2, 0.9], [-0.4, 0.3], [0.1, 1.4], [0.5, 2.0]])


def _identity_f(t):
    return np.asarray(t, dtype=float)


def _const_f(value):
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def test_zero_kernel_has_zero_solution():
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.0), u=U2)
    sol = zd.solve_marchenko(prob)
    assert np.max(np.abs(sol.k_nodes)) == 0.0
    assert np.max(np.abs(sol.beta())) == 0.0


def test_rank_one_kernel_matches_resolvent():
    from flatpencil.catalog import rank1_case
    kernel, exact = rank1_case()
    prob = zd.DressingProblem(zd.PotentialSet(1, {}, {}, envelope=6.0),
                              u=(0.0,), length=10.0, panels=16,
                              nodes_per_panel=6)
    sol = zd.solve_marchenko(prob, kernel=kernel)
    for sp in (0.2, 0.9, 1.7, 2.6):
        assert abs(sol.k_at(sp)[0, 0] - exact(0.0, sp)) <= 1e-12


def test_small_kernel_matches_two_term_expansion():
    """For a small-norm kernel the solution agrees with the truncated series
    K = F + F*F up to a cubic remainder."""
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.005), u=U2,
                              panels=24, nodes_per_panel=6)
    sol = zd.solve_marchenko(prob)
    F, s = sol.kernel, sol.s
    x, w = np.polynomial.legendre.leggauss(120)
    qs, ws = [], []
    edges = np.linspace(s, s + 12.0, 13)
    for a, b in zip(edges[:-1], edges[1:]):
        qs.append(0.5 * (b - a) * x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    qs, ws = np.concatenate(qs), np.concatenate(ws)
    worst = 0.0
    for sp in (0.3, 1.0, 2.2):
        K = sol.k_at(sp)
        for i in range(2):
            for j in range(2):
                series = float(F.eval(i, j, s, sp)) + sum(
                    np.sum(ws * F.eval(i, l, np.full_like(qs, s), qs)
                           * F.eval(l, j, qs, np.full_like(qs, sp)))
                    for l in range(2))
                worst = max(worst, abs(K[i, j] - series))
    assert worst <= 1e-8


def test_collocation_residual_and_conditioning():
    prob = zd.DressingProblem(zd.gaussian_set(3, amplitude=0.4,
                                              include_diagonal=True),
                              u=(0.1, -0.2, 0.25))
    sol = zd.solve_marchenko(prob)
    assert sol.residual <= 1e-10
    assert sol.cond is not None and sol.cond < 1e3


def test_solution_is_grid_independent():
    """Collocation on refined panels moves point values at the quadrature
    convergence rate, far below the kernel scale."""
    vals = []
    for panels in (16, 32):
        prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.4), u=U2,
                                  panels=panels, nodes_per_panel=6)
        sol = zd.solve_marchenko(prob)
        vals.append(sol.k_at(0.7))
    assert np.max(np.abs(vals[0] - vals[1])) <= 1e-10


def test_nonskew_diagonal_entry_is_rejected():
    with pytest.raises(ValueError, match="skew"):
        zd.PotentialSet(2, {}, {0: zd.gaussian_pair(0.3, 1.0)}, envelope=8.0)
    # and the built-in skew profile is accepted
    zd.PotentialSet(2, {}, {0: zd.skew_gaussian_pair(0.3, 1.0)}, envelope=8.0)


@pytest.mark.parametrize("envelope", [0.0, -1.0, math.inf, math.nan])
def test_an_envelope_must_be_positive_and_finite(envelope):
    """The probe points are drawn across the envelope, which must bound a range."""
    with pytest.raises(ValueError, match="envelope must be a positive finite number"):
        zd.PotentialSet(1, {}, {}, envelope=envelope)


def test_an_amplitude_without_a_finite_envelope_is_refused():
    """``max(|a|, 1) / DECAY_THRESHOLD`` overflows past about 1.8e296."""
    with pytest.raises(ValueError, match=r"amplitude 1e\+300 at width 1.0"):
        zd.gaussian_set(2, amplitude=1e300)
    assert math.isfinite(zd.gaussian_set(2, amplitude=1e290).envelope)


def test_nan_diagonal_entry_fails_the_skew_probe():
    pots = zd.gaussian_set(2, include_diagonal=True)
    skew = pots.diagonal[0]
    bad = dataclasses.replace(
        skew, value=lambda x, y: np.where(x > 0, np.nan, skew.value(x, y)))
    with pytest.raises(NonFiniteSample, match="skew probe of diagonal potential 0") as err:
        zd.PotentialSet(2, pots.off_diagonal, {**pots.diagonal, 0: bad}, pots.envelope)
    x, y = err.value.node  # the probe point: value(x, y) or value(y, x) is NaN there
    assert x > 0 or y > 0


def test_declared_truncation_is_probed():
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.4), u=U2,
                              length=2.0)
    with pytest.raises(TruncationInsufficient):
        zd.solve_marchenko(prob)


def test_conditioning_cap_is_enforced(monkeypatch):
    """The cap is read at call time, so lowering it makes any solve fail."""
    monkeypatch.setattr(zd, "COND_CAP", 1.0)
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.4), u=U2)
    with pytest.raises(IllConditioned):
        zd.solve_marchenko(prob)


def test_translation_identity_of_displaced_kernels():
    pots = zd.PotentialSet(2, {(0, 1): zd.gaussian_pair(0.25, 1.3)}, {},
                           envelope=8.0)
    kernel = zd.DressingProblem(pots, u=(0.05, -0.3)).base_kernel()
    val = zd.reduction_identity_residual(kernel, seed=3)
    assert val <= 1e-8
    # seeded probe points are reproducible
    assert zd.reduction_identity_residual(kernel, seed=3) == val
    assert zd.reduction_identity_residual(kernel, seed=4) <= 1e-8


def test_reduction_pde_report_for_matched_profile():
    """Equal constant profile components annihilate the off-diagonal reduction
    equation for every kernel shape."""
    rep = zd.reduction_pde_residual(
        zd.gaussian_set(3, amplitude=0.4, include_diagonal=True),
        ls.constant_profile((2.0, 2.0, 2.0)))
    assert rep.max_residual <= 1e-10
    assert set(rep.off_diagonal) == {(0, 1), (0, 2), (1, 2)}
    assert set(rep.diagonal) == {0, 1, 2}


def test_reduction_pde_report_for_mismatched_profile():
    rep = zd.reduction_pde_residual(zd.gaussian_set(2, amplitude=0.4),
                                    ls.constant_profile((4.0, 1.0)))
    assert rep.max_residual >= 1e-2


def test_offdiagonal_pde_closed_forms():
    sep = zd.separable_sum_pair(0.3, 0.2, 1.0)
    assert zd.pair_pde_residual(sep, _const_f(4.0), _const_f(1.0),
                                PROBES) == 0.0
    # c ln(x - y), at the mirrored probes, which keep x > y
    log = tc.log_potential(0.7)
    assert zd.pair_pde_residual(log, _identity_f, _identity_f, PROBES[:, ::-1]) <= 1e-10
    # product kernel with distinct constants: residual is 2 c (f1 - f2) = 6
    assert zd.pair_pde_residual(tc.product_potential(), _const_f(4.0),
                                _const_f(1.0), PROBES) == pytest.approx(6.0)


def test_diagonal_pde_closed_forms():
    """The diagonal equation is the pair equation with one profile twice."""
    log = tc.log_potential(0.7)
    assert zd.pair_pde_residual(log, _identity_f, _identity_f, PROBES[:, ::-1]) <= 1e-10
    # product kernel with the identity profile: residual is 3 (y - x)
    val = zd.pair_pde_residual(tc.product_potential(), _identity_f, _identity_f, PROBES)
    assert val == pytest.approx(4.5, rel=1e-10)


#: unequal and t-dependent, so the scaled kernel differs from the base one
LINEAR_PROFILE = ls.ReductionProfile((lambda t: 2.0 + 0.2 * t, lambda t: 3.0 - 0.1 * t))


def test_scaled_kernel_consistency_for_linear_profile():
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.4), u=U2,
                              profile=LINEAR_PROFILE)
    rep = zd.verify_tilde_consistency(prob, zd.solve_marchenko(prob))
    assert rep.kernel_deviation <= 1e-12
    assert rep.beta_deviation <= 1e-12


class _SwappedRatioKernel:
    """The scaled kernel with its ratio the wrong way round,
    ``r_i(s') / r_j(s)`` for ``r_l(t) = sqrt|f^l(u^l - t)|``."""

    def __init__(self, problem):
        self.base, self.n = problem.base_kernel(), problem.potentials.n
        self.u, self.funcs = problem.u, problem.profile.funcs

    def _root(self, l, t):
        return np.sqrt(np.abs(self.funcs[l](self.u[l] - np.asarray(t, dtype=float))))

    def eval(self, i, j, s, sp):
        return self.base.eval(i, j, s, sp) * self._root(i, sp) / self._root(j, s)

    def factors(self, t):
        rows, cols, left, right = self.base.factors(t)
        roots = np.array([np.broadcast_to(self._root(l, t), np.shape(t)) for l in range(self.n)])
        return rows, cols, left / roots[cols], right * roots[rows]


def test_tilde_rows_catch_a_swapped_ratio(monkeypatch):
    """Equal constants make every ratio 1, so a wrongly scaled kernel shows
    only under an unequal profile, such as the catalog row's."""
    from flatpencil import catalog
    monkeypatch.setattr(zd.DressingProblem, "tilde_kernel",
                        lambda self: _SwappedRatioKernel(self))
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.4), u=(0.1, -0.1),
                              profile=ls.constant_profile((2.0, 2.0)))
    rep = zd.verify_tilde_consistency(prob, zd.solve_marchenko(prob))
    assert max(rep.kernel_deviation, rep.beta_deviation) <= 1e-8
    rows = {row.name: row for row in catalog.run_entry("dressing-reduced")}
    assert rows["tilde_kernel"].residual > 1e-3 and not rows["tilde_kernel"].passed
    assert rows["tilde_beta"].residual > 1e-3 and not rows["tilde_beta"].passed


def test_scaled_kernel_requires_signed_profile():
    crossing = zd.ReductionProfile((lambda t: t, lambda t: t))
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.3), u=U2,
                              profile=crossing)
    with pytest.raises(SignChange):
        zd.verify_tilde_consistency(prob, zd.solve_marchenko(prob))


def test_dressing_gate_holds_each_point_to_its_own_range():
    """Each point's ``f^l(u^l - t)`` keeps one sign; points may differ."""
    pots = zd.gaussian_set(2, amplitude=0.3)
    linear = ls.ReductionProfile((lambda t: t, lambda t: 2.0))
    # t = u^0 - s' for s' in [0, 1]: [4, 5] and [-1.5, -0.5]
    points = np.array([[5.0, 0.1], [-0.5, 0.1]])
    signs = linear.signs([points[:, l, None] - np.linspace(0.0, 1.0, 201) for l in range(2)])
    npt.assert_array_equal(signs[0], [1, -1])
    kernel = zd.PotentialKernel(pots, points, ratio_profile=linear, t_range=(0.0, 1.0))
    assert np.all(np.isfinite(kernel.eval(0, 1, 0.2, 0.3)))
    # the second point's range [-0.5, 0.5] crosses zero
    with pytest.raises(SignChange) as err:
        zd.PotentialKernel(pots, [[5.0, 0.1], [0.5, 0.1]], ratio_profile=linear,
                           t_range=(0.0, 1.0))
    assert err.value.component == 0
    assert "component 0 changes sign or vanishes for t in [-0.5, 0.5]" in str(err.value)


@pytest.mark.parametrize("path", ["chart", "dressing"])
def test_chart_and_dressing_gates_raise_the_same_class(path):
    crossing = ls.ReductionProfile((lambda t: t - 0.05, lambda t: t - 0.05))
    chart = GridChart((-0.2, -0.2), (0.2, 0.2), (5, 5))
    with pytest.raises(SignChange):
        if path == "chart":
            crossing.signs_on(chart)
        else:
            zd.extract_beta(zd.gaussian_set(2, amplitude=0.3), chart, profile=crossing,
                            panels=4, use_tilde=True)


def test_partly_nan_profile_is_rejected_with_its_coordinate():
    half = zd.ReductionProfile((lambda t: 2.0, lambda t: np.sqrt(t + 2.0)))
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteProfile) as err:
        zd.PotentialKernel(zd.gaussian_set(2, amplitude=0.3), (0.1, -0.1),
                           ratio_profile=half, t_range=(0.0, 2.0))
    # t = u^2 - s runs from -0.1 down to -2.1; the first NaN is past -2
    assert err.value.component == 1
    assert err.value.t == pytest.approx(-2.01, abs=1e-12)
    assert "profile component 1 is not finite at t = -2.01" in str(err.value)


def test_extracted_frame_satisfies_lame_system():
    chart = GridChart((-0.2, -0.2), (0.2, 0.2), (5, 5))
    field = zd.extract_beta(zd.gaussian_set(2, amplitude=0.3), chart,
                            profile=ls.constant_profile((2.0, 2.0)))
    frame = field.frame()
    assert frame.chart is chart
    rep = ls.lame_residuals(frame)
    assert max(rep.diagonal.values()) <= 1e-5


def test_dressed_seeds_are_positive():
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.4), u=U2)
    sol = zd.solve_marchenko(prob)
    psi = sol.psi()
    assert psi.shape == (2,)
    assert np.all(psi > 0)


# ---------------------------------------------------------------------------
# the batched window against pointwise solves


def _pointwise(pots, chart, panels, profile=None, use_tilde=False):
    """Per-node ``solve_marchenko`` with the window's truncation length and
    panel count."""
    reach = max(max(abs(lo), abs(hi)) for lo, hi in zip(chart.lower, chart.upper))
    length = pots.envelope + reach + 1.0
    beta = np.empty((pots.n, pots.n) + chart.shape)
    psi = np.empty((pots.n,) + chart.shape)
    residuals = []
    for idx in np.ndindex(chart.shape):
        u = chart.node(idx)
        prob = zd.DressingProblem(pots, u, profile=profile, length=length, panels=panels)
        kernel = prob.tilde_kernel() if use_tilde else prob.base_kernel()
        sol = zd.solve_marchenko(prob, kernel=kernel, estimate_cond=False)
        beta[(..., *idx)], psi[(..., *idx)] = sol.beta(), sol.psi()
        residuals.append(sol.residual)
    return beta, psi, max(residuals)


def _gaussian2():
    return zd.gaussian_set(2, amplitude=0.4, include_diagonal=True)


WINDOWS = {
    "2c-7x4": (_gaussian2, GridChart((-0.3, -0.2), (0.3, 0.2), (7, 4)), {}),
    # 45 nodes: not a multiple of the 7-node batches of the test below
    "2c-9x5": (_gaussian2, GridChart((-0.3, -0.2), (0.3, 0.2), (9, 5)), {}),
    "2c-2x7": (_gaussian2, GridChart((-0.1, -0.3), (0.1, 0.3), (2, 7)), {}),
    "3c-3x3x3": (lambda: zd.gaussian_set(3, amplitude=0.4, include_diagonal=True),
                 GridChart((-0.2,) * 3, (0.2,) * 3, (3, 3, 3)), {}),
    "1c-5": (lambda: zd.gaussian_set(1, amplitude=0.4, include_diagonal=True),
             GridChart((-0.2,), (0.2,), (5,)), {}),
    # the third component has no terms, so no column block reads u^3
    "3c-uncoupled": (lambda: zd.PotentialSet(3, {(0, 1): zd.gaussian_pair(0.4, 1.0)}, {}, 8.5),
                     GridChart((-0.2,) * 3, (0.2,) * 3, (3, 3, 3)), {}),
    "2c-tilde": (_gaussian2, GridChart((-0.3, -0.2), (0.3, 0.2), (5, 3)),
                 {"profile": ls.constant_profile((2.0, 2.5)), "use_tilde": True}),
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_window_matches_pointwise_solves(name):
    make, chart, options = WINDOWS[name]
    pots = make()
    field = zd.extract_beta(pots, chart, **options)
    beta, psi, residual = _pointwise(pots, chart, field.panels, **options)
    assert np.max(np.abs(field.beta_values - beta)) <= 1e-14
    assert np.max(np.abs(field.psi_values - psi)) <= 1e-14
    assert abs(field.max_residual - residual) <= 1e-14
    assert field.max_residual <= 1e-10


def test_window_size_is_not_a_batch_multiple(monkeypatch):
    """The default batch holds this whole window; batches of 7 nodes split it
    into six and a remainder of 3, and give the same field."""
    make, chart, _ = WINDOWS["2c-9x5"]
    pots = make()
    whole = zd.extract_beta(pots, chart)
    size = (2, whole.panels * zd.DEFAULT_NODES_PER_PANEL, zd.kernel_rank(pots))
    monkeypatch.setattr(zd, "BATCH_BYTES", 7 * zd.BATCH_BYTES // zd._batch_size(*size))
    assert zd._batch_size(*size) == 7 and np.prod(chart.shape) % 7 != 0
    split = zd.extract_beta(pots, chart)
    assert np.max(np.abs(split.beta_values - whole.beta_values)) <= 1e-15
    assert np.max(np.abs(split.psi_values - whole.psi_values)) <= 1e-15
    assert split.max_residual <= 1e-10 and split.panels == whole.panels


def _counting(f, calls):
    def counted(t):
        calls.append(f)
        return f(t)

    return counted


def test_factor_closures_are_called_per_rung_not_per_node():
    """A window evaluates each term on the chart's axes, once per rung, so at
    a fixed rule a 9^2 and a 17^2 window call the term closures equally often."""
    calls, counts = [], []
    for points in (9, 17):
        pots = _remade(_gaussian2(), lambda *factors: tuple(_counting(f, calls) for f in factors))
        before = len(calls)
        zd.extract_beta(pots, GridChart((-0.2, -0.2), (0.2, 0.2), (points, points)), panels=8)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0


def test_ladder_tabulates_only_the_probes_places(monkeypatch):
    """The ladder is tabulated once, on every rung's nodes, at the three places
    per axis the corner and centre probes read; only the chosen rung is
    tabulated on the whole axes, and the field is the one that rung gives
    when fixed."""
    factors, rows = zd.PotentialKernel.factors, []

    def recorded(self, t):
        out = factors(self, t)
        rows.append(out[2].shape[0])
        return out

    monkeypatch.setattr(zd.PotentialKernel, "factors", recorded)
    chart = GridChart((-0.2, -0.1), (0.2, 0.1), (9, 5))
    searched = zd.extract_beta(_gaussian2(), chart)
    assert rows == [3, 9]
    rows.clear()
    fixed = zd.extract_beta(_gaussian2(), chart, panels=searched.panels)
    assert rows == [9]
    npt.assert_array_equal(searched.beta_values, fixed.beta_values)
    npt.assert_array_equal(searched.psi_values, fixed.psi_values)
    assert searched.max_residual == fixed.max_residual
    assert searched.cond_probe == fixed.cond_probe


def _probe_nodes(chart) -> np.ndarray:
    """The corner and centre nodes of ``chart``, in C order."""
    probe = np.zeros(chart.shape, dtype=bool)
    probe[np.ix_(*[[0, m - 1] for m in chart.shape])] = True
    probe[tuple(m // 2 for m in chart.shape)] = True
    return np.array([chart.node(idx) for idx in zip(*np.nonzero(probe))])


def _climb(pots, chart, profile=None, use_tilde=False):
    """The reference quadrature search, one rung at a time: each rung is
    tabulated on its own (``_tabulate``) at the corner and centre nodes, row
    ``b`` holding node ``b``, and solved there by ``_woodbury``.  Returns the
    coarser rung of the first pair that agrees to ``QUADRATURE_TOL`` and that
    change."""
    points = _probe_nodes(chart)
    reach = max(max(abs(lo), abs(hi)) for lo, hi in zip(chart.lower, chart.upper))
    length = pots.envelope + reach + 1.0
    kernel = zd.PotentialKernel(pots, points, profile if use_tilde else None, (0.0, length))
    idx = np.repeat(np.arange(len(points))[:, None], pots.n, axis=1)
    coarse = None
    for rung in zd.PANEL_LADDER:
        nodes, weights = zd._panel_quadrature(0.0, length, rung, zd.DEFAULT_NODES_PER_PANEL)
        tables = zd._tabulate(kernel, 0.0, length, nodes, weights)
        _, k_ss, psi, _ = zd._woodbury(tables, idx, points, length, with_residual=False)
        beta = k_ss.swapaxes(1, 2)
        if coarse is not None:
            change = max(np.max(np.abs(beta - coarse[1])), np.max(np.abs(psi - coarse[2])))
            if change <= zd.QUADRATURE_TOL:
                return coarse[0], change
        coarse = rung, beta, psi
    raise AssertionError("the reference search found no converged pair")


@pytest.mark.parametrize("name", ["2c-9x5", "3c-3x3x3", "2c-tilde"])
def test_one_table_climb_equals_the_rung_by_rung_climb(name):
    make, chart, options = WINDOWS[name]
    pots = make()
    field = zd.extract_beta(pots, chart, **options)
    assert (field.panels, field.quadrature_error) == _climb(pots, chart, **options)


#: the window of the NaN-node cases below; its search climbs 4, 5, 6, 8 and 10
NAN_NODE_CHART = GridChart((-0.1, -0.1), (0.1, 0.1), (5, 5))


def _nan_at_node(rung: int, m: int):
    """:func:`_with_nan_term` NaN at exactly one Gauss node: node ``m`` of
    rung ``rung`` of :data:`NAN_NODE_CHART`'s rule, read at its first value
    of ``u^1``."""
    pots = zd.gaussian_set(2)
    length = pots.envelope + 0.1 + 1.0
    node = zd._panel_quadrature(0.0, length, rung, zd.DEFAULT_NODES_PER_PANEL)[0][m]
    return _with_nan_term(lambda x: x == node - NAN_NODE_CHART.axis_coordinates(0)[0])


def _nan_counts(monkeypatch) -> list:
    """The number of NaN factors of each later ``PotentialKernel.factors`` call."""
    factors, counts = zd.PotentialKernel.factors, []

    def recorded(self, t):
        out = factors(self, t)
        counts.append(int(np.isnan(out[2]).sum() + np.isnan(out[3]).sum()))
        return out

    monkeypatch.setattr(zd.PotentialKernel, "factors", recorded)
    return counts


def test_a_nan_past_the_converged_rung_is_never_gated(monkeypatch):
    """The ladder's one table holds rung 16's nodes, NaN at one of them, but
    the search converges on the pair (8, 10) and gates no rung past it: the
    window is the clean set's, bit for bit, as when each rung was tabulated
    on its own."""
    clean = zd.extract_beta(zd.gaussian_set(2), NAN_NODE_CHART)
    counts = _nan_counts(monkeypatch)
    pots = _nan_at_node(16, 37)
    field = zd.extract_beta(pots, NAN_NODE_CHART)
    assert counts == [1, 0]
    assert field.panels == clean.panels == 8
    assert field.quadrature_error == clean.quadrature_error
    npt.assert_array_equal(field.beta_values, clean.beta_values)
    npt.assert_array_equal(field.psi_values, clean.psi_values)
    assert (field.panels, field.quadrature_error) == _climb(pots, NAN_NODE_CHART)


def test_a_nan_at_a_climbed_rung_is_gated_at_that_rung(monkeypatch):
    """NaN at one node of rung 5: rung 4 passes, and rung 5 raises at the
    first probe that reads it, as the rung-by-rung search does."""
    counts = _nan_counts(monkeypatch)
    pots = _nan_at_node(5, 7)
    with pytest.raises(NonFiniteSample) as err:
        zd.extract_beta(pots, NAN_NODE_CHART)
    assert counts == [1]
    assert str(err.value) == "non-finite sample at grid node (-0.1, -0.1) in the dressing kernel"
    with pytest.raises(NonFiniteSample) as reference:
        _climb(pots, NAN_NODE_CHART)
    assert str(reference.value) == str(err.value)


def test_the_probe_check_solves_nothing(monkeypatch):
    """With a fixed rule the window is solved in one batch, and the corner
    and centre check (``cond`` and the factor check) runs no further solve."""
    woodbury, calls = zd._woodbury, []
    monkeypatch.setattr(zd, "_woodbury",
                        lambda *args: calls.append(len(args[1])) or woodbury(*args))
    field = zd.extract_beta(_gaussian2(), GridChart((-0.2, -0.2), (0.2, 0.2), (5, 5)), panels=8)
    assert calls == [25]
    assert 1.0 < field.cond_probe < zd.COND_CAP and 0.0 <= field.factor_deviation <= 1e-14


#: unequal and t-dependent, and of one sign over every range the windows below reach
PROFILE_FUNCS = (lambda t: 2.0 + 0.1 * t, lambda t: 3.0 - 0.1 * t, lambda t: 2.5 + 0.05 * t)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), amplitude=st.floats(0.01, 0.8), diagonal=st.booleans(),
       tilde=st.booleans(), u=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3))
def test_woodbury_cond_is_the_dense_matrix_cond(n, amplitude, diagonal, tilde, u):
    """``cond`` of ``I - U V^T`` from its 2r x 2r block equals the condition
    number of the dense collocation matrix."""
    prob = zd.DressingProblem(zd.gaussian_set(n, amplitude, include_diagonal=diagonal), u=u[:n],
                              profile=ls.ReductionProfile(PROFILE_FUNCS[:n]), panels=4)
    kernel = prob.tilde_kernel() if tilde else prob.base_kernel()
    dense = _dense(kernel, prob).cond
    assert zd.solve_marchenko(prob, kernel=kernel).cond == pytest.approx(dense, rel=1e-12)


def test_window_conditioning_is_worst_of_corners_and_centre():
    pots, chart = _gaussian2(), GridChart((-0.3, -0.3), (0.3, 0.3), (5, 5))
    field = zd.extract_beta(pots, chart)
    length = pots.envelope + 0.3 + 1.0
    conds = {
        idx: zd.solve_marchenko(
            zd.DressingProblem(pots, chart.node(idx), length=length, panels=field.panels)
        ).cond
        for idx in [(0, 0), (0, 4), (4, 0), (4, 4), (2, 2)]
    }
    assert field.cond_probe == max(conds.values())
    assert len(set(conds.values())) > 1


# beta and psi of the 2x2 window below with the fixed 16 x 6 rule, to rounding:
# the factored solve and the dense LU of the tests each agree with them to about 1e-16;
# written node by node, [node ..., i, j]
FIXED_RULE_BETA = [
    [[[-0.18943431607678515, 0.015192528822021371], [-0.11722388689714412, -0.09507183238278381]],
     [[-0.18759228712436676, -0.09221242682414012], [-0.11078170015205019, -0.07859626643956774]]],
    [[[-0.15519446307834903, 0.016205890705626527], [0.05400871282779058, -0.09538135052021875]],
     [[-0.15610004147670545, -0.0983946181608631], [0.051056941042049796, -0.07682029306434908]]],
]
FIXED_RULE_PSI = [
    [[0.6559419754166825, 0.898812024328409], [0.6161281289395699, 0.8383219751954856]],
    [[0.8987976140663927, 0.9061397393030876], [0.9167375036470404, 0.7944697710488563]],
]


def test_explicit_panels_are_used_without_a_search():
    chart = GridChart((-0.3, -0.2), (0.3, 0.2), (2, 2))
    field = zd.extract_beta(_gaussian2(), chart, panels=16)
    npt.assert_allclose(field.beta_values, np.transpose(FIXED_RULE_BETA, (2, 3, 0, 1)),
                        rtol=0, atol=2.5e-16)
    npt.assert_allclose(field.psi_values, np.transpose(FIXED_RULE_PSI, (2, 0, 1)),
                        rtol=0, atol=2.5e-16)
    assert field.panels is None and field.quadrature_error is None


@pytest.mark.parametrize("make, chart", [
    (_gaussian2, GridChart((-0.3, -0.3), (0.3, 0.3), (7, 7))),
    (lambda: zd.gaussian_set(3, amplitude=0.4, include_diagonal=True),
     GridChart((-0.25,) * 3, (0.25,) * 3, (3, 3, 3))),
], ids=["2c", "3c"])
def test_chosen_rung_holds_at_every_node(make, chart):
    """The estimate is taken at the corners and centre; the rung it picks
    must agree with a 32-panel rule at every node of the window."""
    pots = make()
    field = zd.extract_beta(pots, chart)
    fine = zd.extract_beta(pots, chart, panels=32)
    assert field.panels in zd.PANEL_LADDER and field.panels < 32
    assert field.quadrature_error <= zd.QUADRATURE_TOL
    assert np.max(np.abs(field.beta_values - fine.beta_values)) <= zd.QUADRATURE_TOL
    assert np.max(np.abs(field.psi_values - fine.psi_values)) <= zd.QUADRATURE_TOL


def test_unresolvable_quadrature_raises():
    """A pair of width 0.01 under panels 0.0625 wide at the finest rung."""
    pair = zd.gaussian_pair(0.05, 0.01, x0=0.01, y0=0.01)
    pots = zd.PotentialSet(2, {(0, 1): pair}, {}, envelope=1.0)
    chart = GridChart((-0.001, -0.001), (0.001, 0.001), (3, 3))
    with pytest.raises(QuadratureUnresolved) as err:
        zd.extract_beta(pots, chart)
    assert err.value.panels == zd.PANEL_LADDER[-1] == 32
    assert err.value.tol == zd.QUADRATURE_TOL
    assert err.value.estimate > 1e-3
    assert "up to 32 panels" in str(err.value)


def test_raw_kernel_solve_matches_closed_forms():
    """A kernel without a batch axis is solved as a batch of one."""
    from flatpencil.catalog import rank1_case
    kernel, exact = rank1_case()
    prob = zd.DressingProblem(zd.PotentialSet(1, {}, {}, envelope=6.0), u=(0.0,),
                              length=10.0)
    sol = zd.solve_marchenko(prob, kernel=kernel, estimate_cond=False)
    assert sol.cond is None and sol.k_nodes.shape == (1, 1, len(sol.nodes))
    assert sol.residual <= 1e-15
    assert abs(sol.beta()[0, 0] - exact(0.0, 0.0)) <= 1e-12
    # psi = 1 + a(0) / (1 - overlap) * int_0^inf b
    b_mass = 0.5 * np.sqrt(np.pi / 2) * (1.0 + math.erf(0.3 / np.sqrt(2)))
    expected = 1.0 + exact(0.0, 0.0) / kernel.eval(0, 0, 0.0, 0.0) * 0.6 * b_mass
    assert abs(sol.psi()[0] - expected) <= 1e-12


# ---------------------------------------------------------------------------
# non-finite kernels


def _with_nan_term(where):
    """The 2-component Gaussian set with ``A'`` of its pair's one term NaN
    where ``where(x)`` holds."""
    pots = zd.gaussian_set(2)
    (a, da, b, db), = pots.off_diagonal[(0, 1)].terms
    bad = tc.Potential(terms=((a, lambda x: np.where(where(x), np.nan, da(x)), b, db),))
    return zd.PotentialSet(2, {(0, 1): bad}, pots.diagonal, pots.envelope)


def test_partly_nan_kernel_is_not_a_pass():
    pots = _with_nan_term(lambda x: x < -0.09)
    chart = GridChart((-0.1, -0.1), (0.1, 0.1), (5, 5))
    with pytest.raises(NonFiniteSample) as err:
        zd.extract_beta(pots, chart)
    assert err.value.node == (0.1, -0.1)
    assert "(0.1, -0.1)" in str(err.value)


def test_nan_kernel_raises_before_the_conditioning_probe():
    pots = _with_nan_term(lambda x: np.ones(np.shape(x), dtype=bool))
    with pytest.raises(NonFiniteSample):
        zd.extract_beta(pots, GridChart((-0.1, -0.1), (0.1, 0.1), (3, 3)))
    with pytest.raises(NonFiniteSample):
        zd.solve_marchenko(zd.DressingProblem(pots, u=U2))


def test_translation_identity_propagates_nan():
    kernel = zd.RawKernel(2, [(1, 1, lambda t: np.full(np.shape(t), np.nan), np.ones_like)])
    assert np.isnan(zd.reduction_identity_residual(kernel))


# ---------------------------------------------------------------------------
# the factored solve


def test_nan_term_is_caught_by_the_factored_gate():
    """As above, with a fixed rule: the window's tables, not the ladder's."""
    pots = _with_nan_term(lambda x: x < -0.09)
    assert zd.kernel_rank(pots) == 2
    with pytest.raises(NonFiniteSample) as err:
        zd.extract_beta(pots, GridChart((-0.1, -0.1), (0.1, 0.1), (5, 5)), panels=4)
    assert err.value.node == (0.1, -0.1)
    assert "(0.1, -0.1)" in str(err.value)


def _remade(pots, term):
    """``pots`` with every separable term ``(A, A', B, B')`` replaced by
    ``term(A, A', B, B')``."""
    def remake(pot):
        return tc.Potential(terms=tuple(term(*factors) for factors in pot.terms))

    return zd.PotentialSet(pots.n, {key: remake(pot) for key, pot in pots.off_diagonal.items()},
                           {key: remake(pot) for key, pot in pots.diagonal.items()}, pots.envelope)


def _scaled(pots, k):
    """The set with every potential times ``k``."""
    return _remade(pots, lambda a, da, b, db: (lambda t: k * a(t), lambda t: k * da(t), b, db))


Dense = namedtuple("Dense", "k_nodes k_ss cond mass box")


def _dense(kernel, prob) -> Dense:
    """The reference for the factored solve: the Nyström system of
    ``kernel.eval`` at one point, assembled in full and solved by LU, with no
    gates.  ``k_nodes[i, l, m] = K_il(s, q_m)``, ``k_ss = K(s, s)``, the
    collocation matrix's condition number, and the largest ``|F|`` at the
    tail pairs (``mass``) and on the nodes (``box``), which the truncation
    gate compares."""
    n, s, length = kernel.n, prob.s, prob.length
    nodes, weights = zd._panel_quadrature(s, length, prob.panels, prob.nodes_per_panel)
    q, t = len(nodes), np.concatenate(([s], nodes))

    def blocks(a, b):  # [l, j, ...] = F_lj(a, b)
        return np.array([[kernel.eval(l, j, a, b) for j in range(n)] for l in range(n)])

    f, tail = blocks(t[:, None], t[None, :]), blocks(*(s + length * zd.TAIL_PAIRS))
    f_q = f[:, :, 1:, 1:]
    # rows (j, m'), columns (l, m): delta - w_m F_lj(q_m, q_m'); right-hand sides F_ij(s, q_m')
    matrix = np.eye(n * q) - (f_q * weights[:, None]).transpose(1, 3, 0, 2).reshape(n * q, n * q)
    rhs = f[:, :, 0, 1:].transpose(1, 2, 0).reshape(n * q, n)
    k_nodes = np.linalg.solve(matrix, rhs).reshape(n, q, n).transpose(2, 0, 1)
    k_ss = f[:, :, 0, 0] + np.einsum("ilm,m,ljm->ij", k_nodes, weights, f[:, :, 1:, 0])
    return Dense(k_nodes, k_ss, np.linalg.cond(matrix), np.abs(tail).max(), np.abs(f_q).max())


#: (potential set, declared length or None, verdict at scale 1): decaying,
#: decaying but truncated too early, and a pair that does not decay in s'
GATE_CASES = {
    "decaying": (_gaussian2, None, True),
    "short": (_gaussian2, 2.0, False),
    "flat": (lambda: zd.PotentialSet(2, {(0, 1): zd.separable_sum_pair(0.3, 0.3, 1.0)}, {},
                                     envelope=8.0), None, False),
}


def _gate_passes(pots, length):
    prob = zd.DressingProblem(pots, u=U2, length=length, panels=4)
    try:
        zd.solve_marchenko(prob, estimate_cond=False)
    except TruncationInsufficient:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(GATE_CASES)), log10_k=st.floats(-9.0, 3.0))
def test_truncation_gate_does_not_depend_on_scale(case, log10_k):
    """The tail mass is measured against the kernel's own size, so scaling
    every potential keeps the verdict; a pair that does not decay in s' fails
    however small it is."""
    make, length, verdict = GATE_CASES[case]
    assert _gate_passes(make(), length) is verdict
    assert _gate_passes(_scaled(make(), 10.0 ** log10_k), length) is verdict


def test_factored_truncation_gate_matches_the_dense_one():
    prob = zd.DressingProblem(zd.gaussian_set(2, amplitude=0.4), u=U2, length=2.0)
    with pytest.raises(TruncationInsufficient) as err:
        zd.solve_marchenko(prob, estimate_cond=False)
    dense = _dense(prob.base_kernel(), prob)
    assert err.value.mass == pytest.approx(dense.mass, rel=1e-12)
    assert err.value.tol == pytest.approx(zd.TAIL_REL_TOL * dense.box, rel=1e-12)


def test_window_gate_reads_the_dense_gate_at_every_node(monkeypatch):
    """On an uneven chart, with only a two-term pair between the axes, the
    tail mass and box a window reads from its tables are the dense kernel's."""
    p1, p2 = zd.gaussian_pair(0.3, 1.0, 0.1, -0.2), zd.gaussian_pair(-0.2, 0.8, -0.3, 0.1)
    pots = zd.PotentialSet(2, {(0, 1): tc.Potential(terms=p1.terms + p2.terms)}, {}, envelope=8.0)
    chart = GridChart((-0.3, -0.1), (0.3, 0.2), (7, 3))
    seen = []
    monkeypatch.setattr(zd, "_gate", lambda points, finite, mass, box, length: seen.append(
        np.stack([mass, box])))
    zd.extract_beta(pots, chart, panels=8)
    window = seen[0]  # the whole window is one batch
    assert window.shape == (2, 21)
    dense = []
    for idx in np.ndindex(chart.shape):
        prob = zd.DressingProblem(pots, chart.node(idx), length=pots.envelope + 1.3, panels=8)
        dense.append(_dense(prob.base_kernel(), prob))
    npt.assert_allclose(window, [[d.mass for d in dense], [d.box for d in dense]],
                        rtol=1e-12, atol=0)


def _corrupted(factors):
    """``PotentialKernel.factors`` with every left factor scaled by 1 + 1e-6."""
    def corrupted(self, t):
        rows, cols, left, right = factors(self, t)
        return rows, cols, left * (1.0 + 1e-6), right

    return corrupted


def test_corrupted_factor_trips_the_factor_check(monkeypatch):
    """Each block's terms then differ from its values by 1e-6 of its largest
    value; the error names the block, the point and that deviation."""
    monkeypatch.setattr(zd.PotentialKernel, "factors", _corrupted(zd.PotentialKernel.factors))
    prob = zd.DressingProblem(_gaussian2(), u=U2)
    # without the factor check nothing notices
    assert zd.solve_marchenko(prob, estimate_cond=False).residual <= 1e-10
    with pytest.raises(FactorMismatch) as err:
        zd.solve_marchenko(prob)
    assert err.value.deviation == pytest.approx(1e-6, rel=1e-6)
    assert err.value.tol == zd.QUADRATURE_TOL and err.value.node == U2
    assert str(err.value) == (
        f"terms of kernel block {err.value.block} differ from its values by 1.000e-06 of the "
        "block's largest value > 1.000e-10 at u = (0.1, -0.2)")
    with pytest.raises(FactorMismatch) as err:
        zd.extract_beta(_gaussian2(), GridChart((-0.1, -0.1), (0.1, 0.1), (3, 3)))
    assert err.value.node in {(-0.1, -0.1), (-0.1, 0.1), (0.1, -0.1), (0.1, 0.1), (0.0, 0.0)}
    assert err.value.block in {(i, j) for i in range(2) for j in range(2)}


@settings(max_examples=20, deadline=None)
@given(log10_k=st.floats(-9.0, 3.0))
def test_factor_check_does_not_depend_on_scale(log10_k):
    """Each block is measured against its own largest value, so with every
    potential scaled by ``k`` the intact set passes and a 1e-6 corruption of
    the left factors raises, in a single solve and in a window alike."""
    pots = _scaled(_gaussian2(), 10.0 ** log10_k)
    prob, chart = zd.DressingProblem(pots, u=U2), GridChart((-0.1, -0.1), (0.1, 0.1), (3, 3))
    assert zd.solve_marchenko(prob).cond < zd.COND_CAP
    assert zd.extract_beta(pots, chart).factor_deviation <= 1e-14
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zd.PotentialKernel, "factors", _corrupted(zd.PotentialKernel.factors))
        for solve in (lambda: zd.solve_marchenko(prob), lambda: zd.extract_beta(pots, chart)):
            with pytest.raises(FactorMismatch) as err:
                solve()
            assert err.value.deviation == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("name, at", [("A'", 1), ("B'", 3)])
def test_a_wrong_derivative_factor_is_refused(name, at):
    """The kernel and its factors both read a term's derivative factors, so
    the factor check cannot see one that is wrong; the set's probe compares
    each with a difference of its factor."""
    pots = zd.gaussian_set(2)
    term = list(pots.off_diagonal[(0, 1)].terms[0])
    term[at] = lambda x, right=term[at]: 1.5 * right(x)
    with pytest.raises(ValueError, match=rf"term 0 of the potential of pair \(0, 1\): {name} "):
        zd.PotentialSet(2, {(0, 1): tc.Potential(terms=(tuple(term),))}, {}, pots.envelope)
    first, second = _gaussian2().diagonal[1].terms
    second = list(second)
    second[at] = lambda x, right=second[at]: 1.5 * right(x)
    with pytest.raises(ValueError, match=rf"term 1 of the potential of pair \(1, 1\): {name} "):
        zd.PotentialSet(2, {}, {1: tc.Potential(terms=(first, tuple(second)))}, pots.envelope)


#: the potential sets the package builds: the Gaussian presets, the catalog's
#: three-component data, and the separable pair with constant factors
SHIPPED_SETS = {
    "gaussian-2": lambda: zd.gaussian_set(2),
    "gaussian-2-diagonal": _gaussian2,
    "gaussian-3-diagonal": lambda: zd.gaussian_set(3, amplitude=0.4, include_diagonal=True),
    "separable": lambda: zd.PotentialSet(2, {(0, 1): zd.separable_sum_pair(0.3, 0.2, 1.0)}, {},
                                         envelope=8.0),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SHIPPED_SETS)), log10_k=st.floats(-9.0, 3.0))
def test_derivative_probe_does_not_depend_on_scale(name, log10_k):
    """Each derivative factor is measured against its own largest value, so
    every shipped set passes however it is scaled."""
    pots = _scaled(SHIPPED_SETS[name](), 10.0 ** log10_k)
    assert zd.kernel_rank(pots) == zd.kernel_rank(SHIPPED_SETS[name]())


def _terms_on_the_diagonal(monkeypatch):
    factors = zd.PotentialKernel.factors
    monkeypatch.setattr(zd.PotentialKernel, "factors", lambda self, t: (
        lambda rows, cols, left, right: (rows, rows, left, right))(*factors(self, t)))


def _nan_values_in_block_10(monkeypatch):
    values = zd.PotentialKernel.eval
    monkeypatch.setattr(zd.PotentialKernel, "eval", lambda self, i, j, s, sp: values(
        self, i, j, s, sp) * (np.nan if (i, j) == (1, 0) else 1.0))


@pytest.mark.parametrize("corrupt, deviation, blocks", [
    (_terms_on_the_diagonal, math.inf, {(0, 0), (1, 1)}),
    (_nan_values_in_block_10, math.nan, {(1, 0)}),
], ids=["zero-block", "nan"])
def test_factor_check_reads_zero_blocks_and_nan(monkeypatch, corrupt, deviation, blocks):
    """Terms filed under a block whose values are zero (no diagonal
    potentials here) differ from them infinitely; NaN values never pass."""
    corrupt(monkeypatch)
    with pytest.raises(FactorMismatch) as err:
        zd.solve_marchenko(zd.DressingProblem(zd.gaussian_set(2, amplitude=0.4), u=U2))
    npt.assert_equal(err.value.deviation, deviation)
    assert err.value.block in blocks


def test_potentials_without_terms_are_refused():
    """Dressing reads a potential's separable terms, so a set holding a
    closure-only potential is refused with its pair named; the reduction PDE
    still takes it."""
    pots = _gaussian2()
    mixed = zd.PotentialSet(
        2, {(0, 1): dataclasses.replace(pots.off_diagonal[(0, 1)], terms=None)}, pots.diagonal,
        pots.envelope,
    )
    with pytest.raises(ValueError, match=r"the potential of pair \(0, 1\) has no separable terms"):
        zd.PotentialKernel(mixed, U2)
    with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
        zd.extract_beta(mixed, GridChart((-0.2, -0.2), (0.2, 0.2), (4, 4)), panels=8)
    assert zd.reduction_pde_residual(mixed, ls.constant_profile((2.0, 2.0))).max_residual <= 1e-10


def test_rank1_case_is_solved_through_its_factor():
    """``rank1_case``'s kernel is its one term ``a(s) b(s')``: the solve reads
    that factor, agrees with the dense LU, and meets the closed form."""
    from flatpencil.catalog import rank1_case
    kernel, exact = rank1_case()
    calls, factors = [], kernel.factors
    kernel.factors = lambda t: calls.append(t) or factors(t)
    prob = zd.DressingProblem(zd.PotentialSet(1, {}, {}, envelope=6.0), u=(0.0,), length=10.0)
    sol = zd.solve_marchenko(prob, kernel=kernel)
    assert kernel.rank == 1 and len(calls) == 1
    npt.assert_allclose(sol.k_nodes, _dense(kernel, prob).k_nodes, rtol=0, atol=1e-15)
    assert abs(sol.beta()[0, 0] - exact(0.0, 0.0)) <= 1e-12


def test_potential_terms_give_its_partials():
    """A separable potential's value and partials are sums over its terms;
    given ones are kept."""
    pair = zd.gaussian_pair(0.3, 1.2, x0=0.1, y0=-0.2)
    x, y = PROBES[:, 0], PROBES[:, 1]
    e = 0.3 * np.exp(-((x - 0.1) ** 2 + (y + 0.2) ** 2) / (2 * 1.44))
    npt.assert_allclose(pair.value(x, y), e, rtol=1e-14)
    npt.assert_allclose(pair.dx(x, y), -(x - 0.1) / 1.44 * e, rtol=1e-14)
    npt.assert_allclose(pair.dy(x, y), -(y + 0.2) / 1.44 * e, rtol=1e-14)
    npt.assert_allclose(pair.dxy(x, y), (x - 0.1) * (y + 0.2) / 1.44**2 * e, rtol=1e-14)
    skew = zd.skew_gaussian_pair(0.3, 0.8)
    npt.assert_allclose(skew.value(x, y) + skew.value(y, x), 0.0, atol=1e-16)
    kept = tc.Potential(value=lambda x, y: x * 0.0, terms=pair.terms)
    assert np.all(kept.value(x, y) == 0.0) and kept.dx is not None
    with pytest.raises(ValueError, match="value or terms"):
        tc.Potential()


# ---------------------------------------------------------------------------
# the closed-form oracle: Gaussian terms integrate in erf


def _moments(z: float, degree: int) -> list:
    """``M_k(z) = int_z^inf t^k exp(-t^2) dt`` for ``k <= degree``."""
    if z == math.inf:
        return [0.0] * (degree + 1)
    m = [0.5 * math.sqrt(math.pi) * math.erfc(z), 0.5 * math.exp(-z * z)]
    for k in range(2, degree + 1):
        m.append(0.5 * z ** (k - 1) * math.exp(-z * z) + 0.5 * (k - 1) * m[k - 2])
    return m


def _overlap(left, right, lo: float, hi: float) -> float:
    """``int_lo^hi L(q) R(q) dq`` for factors ``(poly, c)``, meaning
    ``poly(q) exp(-(q - c)^2 / 2)``: the product is ``exp(-(cL - cR)^2 / 4)
    exp(-(q - mu)^2)`` times a polynomial, so the integral is a sum of
    Gaussian moments."""
    (p_l, c_l), (p_r, c_r) = left, right
    mu = 0.5 * (c_l + c_r)
    poly = (p_l * p_r)(np.polynomial.Polynomial([mu, 1.0]))  # in z = q - mu
    m_lo, m_hi = _moments(lo - mu, poly.degree()), _moments(hi - mu, poly.degree())
    total = sum(c * (a - b) for c, a, b in zip(poly.coef, m_lo, m_hi))
    return math.exp(-((c_l - c_r) ** 2) / 4) * total


def _closed_form_beta(u, amplitude: float, s: float, hi: float) -> np.ndarray:
    """``beta`` of ``gaussian_set(len(u), amplitude, 1.0, True)`` at ``u``
    for the kernel integral over ``[s, hi]``, with no quadrature."""
    P = np.polynomial.Polynomial
    n, terms = len(u), []  # (row block, column block, left, right)
    for i in range(n):
        for j in range(i + 1, n):
            a = amplitude * (1.0 + 0.15 * i - 0.1 * j)
            ci, cj = u[i] + 0.2 * (i - j), u[j] + 0.1 * (i + j)
            # Phi = a g(x - x0) g(y - y0): F_ij = Phi_x, F_ji = -Phi_y swapped
            terms.append((i, j, (P([a * ci, -a]), ci), (P([1.0]), cj)))
            terms.append((j, i, (P([-cj, 1.0]), cj), (P([a]), ci)))
        b, c = 0.5 * amplitude / (1.0 + i), u[i]
        # Phi = b (y - x) e(x) e(y) = e(x) (b y e(y)) + (-b x e(x)) e(y)
        terms.append((i, i, (P([c, -1.0]), c), (P([-b * c, b]), c)))
        terms.append((i, i, (-b * (1.0 - P([-c, 1.0]) ** 2), c), (P([1.0]), c)))
    r = len(terms)
    core = np.zeros((r, r))
    p = np.zeros((r, n))
    for k, (row, _, left, _) in enumerate(terms):
        p[k, row] = left[0](s) * math.exp(-((s - left[1]) ** 2) / 2)
        for m, (_, col, _, right) in enumerate(terms):
            if row == col:
                core[k, m] = _overlap(left, right, s, hi)
    y = np.linalg.solve(np.eye(r) - core, p)
    k_ss = np.zeros((n, n))  # K_ij(s, s) = sum over column block j of R(s) y[., i]
    for k, (_, col, _, (poly, c)) in enumerate(terms):
        k_ss[:, col] += poly(s) * math.exp(-((s - c) ** 2) / 2) * y[k]
    return k_ss.T


#: criterion 07's window: its corner, its centre and a node off both
ORACLE_NODES = [(0, 0, 0), (5, 5, 5), (2, 7, 9)]


@pytest.mark.parametrize("points", [11, 17], ids=["11^3", "17^3"])
def test_window_agrees_with_the_closed_form(points):
    """Criterion 07's set on its window and on a 17^3 (4,913-node) one,
    against ``beta`` from closed-form Gaussian moments: the Nyström error
    stays within the quadrature bound plus what truncation drops."""
    from flatpencil.catalog import dressing_gaussian_set
    pots = dressing_gaussian_set()
    chart = GridChart((-0.25,) * 3, (0.25,) * 3, (points,) * 3)
    field = zd.extract_beta(pots, chart, profile=ls.constant_profile((2.0,) * 3))
    assert field.quadrature_error <= zd.QUADRATURE_TOL
    assert field.max_residual <= 1e-10
    assert field.factor_deviation <= 1e-14
    length = pots.envelope + 0.25 + 1.0
    scale = (points - 1) // 10
    for node in ORACLE_NODES:
        idx = tuple(scale * k for k in node)
        u = chart.node(idx)
        exact = _closed_form_beta(u, 0.4, 0.0, math.inf)
        truncated = _closed_form_beta(u, 0.4, 0.0, length)
        tail = np.max(np.abs(exact - truncated))
        assert np.max(np.abs(field.beta_values[(..., *idx)] - exact)) <= zd.QUADRATURE_TOL + tail
