"""Connection / curvature residuals against closed-form geometry."""

import functools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from flatpencil.errors import DegenerateMetric
from flatpencil.grid_calculus import GridChart
from flatpencil import geometry_core as geo
from flatpencil import grid_calculus as gc
from flatpencil import pencil_checker as pc

from conftest import count_calls, full_curvature, planes_of, record_results


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
    prod = np.einsum("is...,sj...->ij...",
                     polar_metric.contra.values, polar_metric.cov.values)
    eye = np.broadcast_to(np.eye(2)[..., None, None], prod.shape)
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
    vals = np.zeros((2, 2) + chart.shape)
    vals[0, 0] = vals[1, 1] = 2.0
    vals[0, 1] = 0.1 * U1
    vals[1, 0] = 0.1 * U1 * (1.0 + 1e-12)  # rounding-level asymmetry
    m = geo.build_metric(vals, chart)
    npt.assert_array_equal(m.contra.values, np.swapaxes(m.contra.values, 0, 1))
    vals[1, 0] = 0.0  # a real asymmetry is not repaired silently
    with pytest.raises(ValueError, match="symmetry"):
        geo.build_metric(vals, chart)


def test_curvature_antisymmetric_in_last_index_pair(polar_metric):
    """The planes ``k < l`` carry all of R^i_{jkl}: the full formula's
    ``k > l`` slices are their negations and its ``k = l`` slices 0."""
    R = _full_formula_geometry(polar_metric)[2]
    assert np.max(np.abs(R + np.swapaxes(R, 2, 3))) <= 1e-20
    npt.assert_array_equal(geo.curvature(polar_metric).planes, planes_of(R))


def test_first_curvature_identity(polar_metric):
    """Cyclic sum over the three lower slots vanishes identically."""
    R = full_curvature(geo.curvature(polar_metric).planes)
    cyc = (R
           + np.transpose(R, (0, 2, 3, 1, 4, 5))
           + np.transpose(R, (0, 3, 1, 2, 4, 5)))
    assert np.max(np.abs(cyc)) <= 1e-20


def test_raised_curvature_antisymmetry_is_truncation_limited():
    """R with both upper indices is antisymmetric in them analytically; the
    numerical defect is pure stencil truncation and shrinks at fourth order."""
    defects = {}
    for n in (41, 81):
        chart = GridChart((1.0, 0.5), (2.0, 1.5), (n, n))
        m = geo.build_metric(lambda u: [[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]], chart)
        Rc = geo.curvature(m).contra
        defects[n] = np.max(np.abs(Rc + np.swapaxes(Rc, 0, 1)))
    assert defects[41] <= 1e-4
    assert defects[41] / defects[81] > 8.0


def test_connection_shapes(polar_metric):
    conn = geo.connection(polar_metric)
    assert conn.mixed.values.shape == (2, 2, 2, 101, 101)
    assert conn.contra.values.shape == (2, 2, 2, 101, 101)
    # mixed symmetric in the two lower slots
    g = conn.mixed.values
    npt.assert_allclose(g, np.swapaxes(g, 1, 2), atol=1e-20)


# ---------------------------------------------------------------------------
# the packed and k != l kernels against the full einsum formulas


def _einsum_connection(metric):
    g = metric.contra.values
    dg = gc.stacked_partials(metric.cov)
    t = np.einsum("jsk...->sjk...", dg) + np.einsum("kjs...->sjk...", dg) - dg
    mixed = 0.5 * np.einsum("is...,sjk...->ijk...", g, t)
    return mixed, np.einsum("is...,jsk...->ijk...", g, mixed)


def _einsum_curvature(metric, gamma):
    dgamma = gc.stacked_partials(gamma, metric.chart)
    r = (
        -np.einsum("kijl...->ijkl...", dgamma)
        + np.einsum("lijk...->ijkl...", dgamma)
        - np.einsum("ipk...,pjl...->ijkl...", gamma, gamma)
        + np.einsum("ipl...,pjk...->ijkl...", gamma, gamma)
    )
    return r, np.einsum("is...,jskl...->ijkl...", metric.contra.values, r)


def _smooth_metric(data, dim, points):
    """A random positive-definite metric: constant diagonal plus smooth
    symmetric wiggles of at most 0.3 per entry."""
    chart = GridChart((0.5,) * dim, (1.5,) * dim, (points,) * dim)
    coef = st.floats(-1.0, 1.0)
    diag = [data.draw(st.floats(1.0, 3.0)) for _ in range(dim)]
    waves = {
        (i, j): [data.draw(coef) for _ in range(dim + 1)]
        for i in range(dim) for j in range(i, dim)
    }

    def cell(u, i, j):
        a = waves[min(i, j), max(i, j)]
        phase = sum(a[d] * u[d] for d in range(dim))
        return (diag[i] if i == j else 0.0) + 0.3 * a[-1] * np.sin(2.0 * phase + i + j)

    return geo.build_metric(
        lambda u: [[cell(u, i, j) for j in range(dim)] for i in range(dim)], chart)


def _close(new, ref):
    assert np.max(np.abs(new - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


#: largest points per axis drawn for each dimension; index errors between
#: disjoint pairs (k, l) first show at n = 4
_ORACLE_POINTS = {2: 17, 3: 9, 4: 6}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_contractions_match_the_einsum_formulas(data):
    dim = data.draw(st.sampled_from((2, 3, 4)), label="dim")
    points = data.draw(st.integers(5, _ORACLE_POINTS[dim]), label="points")
    metric = _smooth_metric(data, dim, points)
    conn = geo.connection(metric)
    ref_mixed, ref_contra = _einsum_connection(metric)
    _close(conn.mixed.values, ref_mixed)
    _close(conn.contra.values, ref_contra)
    curv = geo.curvature(metric, conn)
    ref_r, ref_rc = _einsum_curvature(metric, ref_mixed)
    k, l = np.triu_indices(dim, 1)
    _close(curv.planes, ref_r[:, :, k, l])
    _close(curv.contra, ref_rc[:, :, k, l])
    # only k < l is stored: the rest of the reference is its negation, to
    # rounding as its terms are summed in another order, or exactly 0
    for r in (ref_r, ref_rc):
        assert np.all(r[:, :, range(dim), range(dim)] == 0.0)
        _close(r[:, :, l, k], -r[:, :, k, l])
    derived = (metric.contra, metric.cov, conn.mixed, conn.contra)
    arrays = (*(field.values for field in derived), curv.planes, curv.contra)
    assert not any(values.flags.writeable for values in arrays)


# ---------------------------------------------------------------------------
# the component-major build, the packed connection and the k != l curvature
# against the grid-first, full-formula kernels they replaced, bit for bit


def _grid_first_minor(mats, rows, cols):
    if len(rows) <= 1:
        return mats[..., rows[0], cols[0]] if rows else np.ones(mats.shape[:-2])
    total = 0.0
    for k, c in enumerate(cols):
        term = mats[..., rows[0], c] * _grid_first_minor(mats, rows[1:], cols[:k] + cols[k + 1:])
        total = total - term if k % 2 else total + term
    return total


def _grid_first_inverse(mats):
    """The row-scaled cofactor inverse of grid-first ``mats[..., i, j]``."""
    idx = tuple(range(mats.shape[-1]))
    rows = functools.reduce(np.maximum, np.abs(np.moveaxis(mats, -1, 0)))
    scaled = mats / np.where(rows > 0.0, rows, 1.0)[..., None]
    cof = np.empty_like(scaled)
    for i in idx:
        for j in idx:
            minor = _grid_first_minor(scaled, idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:])
            cof[..., i, j] = -minor if (i + j) % 2 else minor
    det_rows = sum(scaled[..., 0, j] * cof[..., 0, j] for j in idx)
    inv = np.swapaxes(cof, -1, -2) / det_rows[..., None, None] / rows[..., None, :]
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _full_formula_geometry(metric):
    """``g_{ij}`` inverted grid first, and ``Gamma^i_{jk}`` and ``R^i_{jkl}``
    with every component differentiated and contracted: all n^3
    ``d_a g_{jk}`` and all n^4 ``S^i_{jkl}``."""
    chart, n = metric.chart, metric.dim
    upper = metric.contra.values
    cov = np.moveaxis(_grid_first_inverse(np.moveaxis(upper, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    dg = gc.stacked_partials(cov, chart)
    t = np.swapaxes(dg, 0, 1) + np.swapaxes(dg, 0, 2)
    t -= dg
    gamma = np.einsum("is...,sjk...->ijk...", upper, t)
    gamma *= 0.5
    s = np.einsum("ikp...,pjl...->ijkl...", gamma, gamma)
    d_gamma = np.empty(gamma.shape)
    for k in range(n):
        s[:, :, k] += gc.differentiate_array(gamma, chart, k, out=d_gamma)
    r = np.swapaxes(s, 2, 3) - s  # R^i_{jkl} = S^i_{jlk} - S^i_{jkl}
    return cov, gamma, r


def _assert_full_formulas(metric):
    cov, gamma, r = _full_formula_geometry(metric)
    conn = geo.connection(metric)
    curv = geo.curvature(metric, conn)
    npt.assert_array_equal(metric.cov.values, cov)
    npt.assert_array_equal(conn.mixed.values, gamma)
    npt.assert_array_equal(curv.planes, planes_of(r))
    npt.assert_array_equal(curv.pointwise_max(), np.max(np.abs(r), axis=(0, 1, 2, 3)))


def _a3_intersection_form(points=17):
    """The intersection form of the A_3 Frobenius manifold in flat
    coordinates, on a box where its affinor has real eigenvalues: exactly
    flat, 3-D and not diagonal."""
    chart = GridChart((0.6, -0.8, 2.0), (1.1, -0.3, 2.5), (points,) * 3)
    return geo.build_metric(lambda t: [
        [0.75 * t[1] ** 2 + 0.5 * t[2] ** 3, 1.25 * t[1] * t[2], t[0]],
        [1.25 * t[1] * t[2], t[0] + 0.5 * t[2] ** 2, 0.75 * t[1]],
        [t[0], 0.75 * t[1], 0.5 * t[2]]], chart)


def _pencil_member():
    """``g1 + 3 g2`` of two non-diagonal 2-D metrics, through ``pc.combine``."""
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (33, 33))
    g1 = geo.build_metric(
        lambda u: [[1.0 + u[0] ** 2, 0.3 * u[0] * u[1]], [0.3 * u[0] * u[1], 2.0 + u[1]]], chart)
    g2 = geo.build_metric(
        lambda u: [[2.0, 0.5 * np.sin(u[0])], [0.5 * np.sin(u[0]), 1.0 + u[0] * u[1]]], chart)
    return pc.combine(pc.PencilSpec(g1, g2), 1.0, 3.0)


_ORACLE_METRICS = {
    "polar": lambda: geo.build_metric(
        lambda u: [[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]],
        GridChart((1.0, 0.5), (2.0, 1.5), (41, 41))),
    "pencil-member": _pencil_member,
    "diag3": lambda: geo.build_metric(
        lambda u: [[1.3 * u[0], 0.0, 0.0], [0.0, 0.7 * u[1], 0.0], [0.0, 0.0, 1.9 * u[2]]],
        GridChart((0.5,) * 3, (1.5,) * 3, (13, 13, 13))),
    "a3-intersection-form": _a3_intersection_form,
}


@pytest.mark.parametrize("name", list(_ORACLE_METRICS))
def test_kernels_equal_the_full_formulas(name):
    _assert_full_formulas(_ORACLE_METRICS[name]())


def test_a_line_has_no_planes():
    """A 1-D metric has no plane ``k < l``: every curvature residual reads 0
    without an empty reduction, in each mode of a pencil check too."""
    chart = GridChart((0.5,), (1.5,), (17,))
    metric = geo.build_metric(lambda u: [[1.0 + u[0] ** 2]], chart)
    curv = geo.curvature(metric)
    assert curv.planes.shape == curv.contra.shape == (1, 1, 0, 17)
    npt.assert_array_equal(curv.pointwise_max(), np.zeros(17))
    assert gc.interior_max(curv.deviation(0.5), chart) == 0.0
    assert geo.flatness_residual(metric) == geo.constant_curvature_residual(metric, 0.5) == 0.0
    other = geo.build_metric(lambda u: [[2.0 + u[0]]], chart)
    for mode in ("flat", "constant_curvature", "general"):
        assert pc.check_compatible(pc.PencilSpec(metric, other), mode, 0.5, 0.25).max_curvature == 0.0


def test_curvature_peaks_below_the_full_tensor():
    """The planes and the scratch of one plane at a time, on a 3-D non-diagonal
    metric, stay below the n^4 components a full tensor would hold."""
    metric = _a3_intersection_form(17)
    conn = geo.connection(metric)
    tracemalloc.start()
    try:
        geo.curvature(metric, conn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3**4 * 17**3 * 8


def test_a3_intersection_form_is_flat_to_truncation():
    assert geo.flatness_residual(_a3_intersection_form()) == pytest.approx(4.9e-5, rel=0.05)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), log_spread=st.floats(0.0, 2.0),
       data=st.data())
def test_kernels_equal_the_full_formulas_on_random_stacks(dim, seed, log_spread, data):
    """Well-conditioned symmetric matrices drawn independently at every node."""
    shape = tuple(data.draw(st.integers(5, 9 if dim < 4 else 5)) for _ in range(dim))
    chart = GridChart((0.0,) * dim, (1.0,) * dim, shape)
    mats = _symmetric_stack(seed, dim, math.prod(shape), log_spread)
    stack = np.moveaxis(mats.reshape(shape + (dim, dim)), (-2, -1), (0, 1))
    _assert_full_formulas(geo.build_metric(stack, chart))


@pytest.mark.parametrize("dim, connection, curvature", [(2, 6, 8), (3, 18, 54)])
def test_symmetry_fixes_the_components_differentiated(monkeypatch, dim, connection, curvature):
    """Component-axis pairs differentiated: n(n+1)/2 components of ``g_{jk}``
    along n axes (n^3 with every component), and ``Gamma^i_{jl}`` for
    ``l != k`` along each axis k (n^4)."""
    chart = GridChart((0.5,) * dim, (1.5,) * dim, (7,) * dim)
    metric = geo.build_metric(
        lambda u: [[1.0 + u[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)], chart)
    pairs = []
    original = gc.differentiate_array

    def counted(values, chart, *args, **kwargs):
        pairs.append(np.size(values) // math.prod(chart.shape))
        return original(values, chart, *args, **kwargs)

    monkeypatch.setattr(gc, "differentiate_array", counted)
    conn = geo.connection(metric)
    assert sum(pairs) == connection
    pairs.clear()
    geo.curvature(metric, conn)
    assert sum(pairs) == curvature


def test_every_metric_is_stored_component_major():
    chart = GridChart((1.0, 0.5), (2.0, 1.5), (9, 9))
    closure = geo.build_metric(lambda u: [[1.0, 0.1 * u[1]], [0.1 * u[1], u[0]]], chart)
    array = geo.build_metric(np.ascontiguousarray(closure.contra.values), chart)
    member = pc.combine(pc.PencilSpec(closure, array), 2.0, 1.0)
    for m in (closure, array, member):
        assert m.contra.values.shape == m.cov.values.shape == (2, 2) + chart.shape
        assert m.contra.values.flags.c_contiguous
        assert m.cov.values.flags.c_contiguous


# ---------------------------------------------------------------------------
# the degeneracy floor has the degree of the determinant


def test_small_but_well_conditioned_metric_is_accepted():
    chart = GridChart((0.0,) * 3, (1.0,) * 3, (5, 5, 5))
    m = geo.build_metric(lambda u: 1e-5 * np.eye(3), chart)
    assert geo.flatness_residual(m) <= 1e-12


def test_large_but_ill_conditioned_metric_is_rejected():
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (5, 5))
    with pytest.raises(DegenerateMetric):
        geo.build_metric(lambda u: [[1e6, 0.0], [0.0, 1e-3]], chart)


def test_vanishing_metric_is_degenerate_without_warnings():
    chart = GridChart((-1.0, -1.0), (1.0, 1.0), (5, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetric) as err:
            geo.build_metric(lambda u: [[u[0] ** 2, 0.0], [0.0, u[0] ** 2]], chart)
    assert err.value.node == (2, 0)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_inverse_gate_does_not_depend_on_scale(scale):
    """``|g g^-1 - I|`` is dimensionless: a near-singular matrix above the
    determinant floor is rejected by the inverse gate at every scale."""
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (3, 3))
    near = np.array([[1.0, 1.0 - 1e-7], [1.0 - 1e-7, 1.0]])
    with pytest.raises(DegenerateMetric):
        geo.build_metric(lambda u: scale * near, chart)
    geo.build_metric(lambda u: scale * np.array([[2.0, 1.0], [1.0, 2.0]]), chart)


def test_inverse_gate_names_the_condition_number():
    """The matrix passes the determinant floor (2e-7 > 1e-8) and fails the
    inverse gate, so the message quotes its condition number, about 2e7,
    and KAPPA_CAP."""
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (5, 5))
    near = np.array([[1.0, 1.0 - 1e-7], [1.0 - 1e-7, 1.0]])
    with pytest.raises(DegenerateMetric) as err:
        geo.build_metric(lambda u: near, chart)
    message = str(err.value)
    assert message.startswith("kappa = ")
    assert f"> KAPPA_CAP {geo.KAPPA_CAP[2]:.3e} at node (0, 0) (u = (0, 0))" in message
    assert "det" not in message
    kappa = float(message.split()[2])
    assert 1.9e7 < kappa < 2.1e7


def test_a_nan_condition_number_fails_the_gate(monkeypatch):
    """A NaN cofactor passes the determinant floor, which reads only the
    determinant; the inverse gate must refuse it and name its node."""
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (5, 6))
    original = geo._cofactors

    def poisoned(mats):
        det, cof = original(mats)  # component-major: cof[i, j, grid ...]
        cof[0, 1, 2, 3] = np.nan
        return det, cof

    monkeypatch.setattr(geo, "_cofactors", poisoned)
    with pytest.raises(DegenerateMetric) as err:
        geo.build_metric(lambda u: np.array([[2.0, 1.0], [1.0, 2.0]]), chart)
    assert err.value.node == (2, 3)
    assert str(err.value).startswith("kappa = nan > KAPPA_CAP")


# ---------------------------------------------------------------------------
# each input is scanned once where it enters


@pytest.mark.parametrize("source", ["array", "closure"])
def test_a_metric_scans_its_input_once(monkeypatch, source):
    """The entry gate scans the contravariant values once; the covariant
    metric and every derived field own their arrays without a scan."""
    chart = GridChart((1.0, 0.5), (2.0, 1.5), (9, 9))
    u = chart.meshgrid()
    vals = np.zeros((2, 2) + chart.shape)
    vals[0, 0], vals[1, 1] = 1.0, 1.0 / u[0] ** 2
    scans = Counter()
    count_calls(monkeypatch, scans, ("check_finite",), gc)
    metric = geo.build_metric(
        vals if source == "array" else (lambda u: [[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]]), chart)
    geo.curvature(metric).contra
    assert scans["check_finite"] == 1
    npt.assert_array_equal(metric.contra.values, vals)
    vals[...] = 0.0  # an array source is copied: the metric holds no view of it
    assert metric.contra.values[0, 0, 0, 0] == 1.0


# ---------------------------------------------------------------------------
# the cofactor inverse, against LAPACK as the oracle


def _symmetric_stack(seed, n, nodes, log_spread):
    """``nodes`` random symmetric matrices ``Q diag(lam) Q^T``: random
    orthogonal ``Q``, eigenvalue magnitudes in ``10^[-log_spread, 0]`` with
    random signs."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((nodes, n, n)))
    lam = rng.choice([-1.0, 1.0], (nodes, n)) * 10.0 ** rng.uniform(-log_spread, 0.0, (nodes, n))
    mats = (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), log_spread=st.floats(0.0, 6.0))
def test_cofactors_agree_with_lapack(n, seed, log_spread):
    mats = _symmetric_stack(seed, n, 16, log_spread)
    det, cof = geo._cofactors(np.moveaxis(mats, 0, -1))  # component-major [i, j, node]
    cof = np.moveaxis(cof, -1, 0)
    scale = np.max(np.abs(mats), axis=(-1, -2))
    assert np.all(np.abs(det - np.linalg.det(mats)) <= 1e-13 * scale**n)
    inv, oracle = np.swapaxes(cof, -1, -2) / det[..., None, None], np.linalg.inv(mats)
    # LU loses up to cond * eps; from n = 3 on the cofactor expansion loses up
    # to cond^2 * eps, which is why build_metric caps the row-scaled
    # condition number at 1e3 from n = 3 and at 1e5 below (KAPPA_CAP)
    cond = np.linalg.cond(mats)
    growth = cond if n <= 2 else cond**2
    error = np.max(np.abs(inv - oracle), axis=(-1, -2))
    assert np.all(error <= 1e-14 * growth * np.max(np.abs(oracle), axis=(-1, -2)))


#: charts of 16 nodes, one per dimension
_SIXTEEN_NODES = {1: (16,), 2: (4, 4), 3: (2, 2, 4), 4: (2, 2, 2, 2)}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       bad=st.lists(st.booleans(), min_size=16, max_size=16),
       log10_c=st.floats(-6.0, 6.0))
def test_floor_and_inverse_gates_do_not_change_under_rescaling(n, seed, bad, log10_c):
    """Nodes are well conditioned (eigenvalue spread 10) or far below the
    floor (one eigenvalue replaced by 1e-14..1e-10); both gates give the same
    verdict for ``g`` and ``c g``: the first bad node in C order fails the
    floor, and no good node fails the inverse gate."""
    shape = _SIXTEEN_NODES[n]
    chart = GridChart((0.0,) * n, (1.0,) * n, shape)
    mats = _symmetric_stack(seed, n, 16, 1.0)
    if n > 1:
        rng = np.random.default_rng(seed + 1)
        w, v = np.linalg.eigh(mats)
        w[..., 0] = np.where(bad, 10.0 ** rng.uniform(-14.0, -10.0, 16), w[..., 0])
        mats = (v * w[:, None, :]) @ np.swapaxes(v, -1, -2)
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    ratio = np.abs(np.linalg.det(mats)) / np.max(np.abs(mats), axis=(-1, -2)) ** n
    assume(not np.any((0.25 * geo.DET_FLOOR_SCALE < ratio) & (ratio < 4.0 * geo.DET_FLOOR_SCALE)))
    assume(np.all((ratio < geo.DET_FLOOR_SCALE) | (np.linalg.cond(mats) < 1e3)))

    def verdict(values):
        try:
            geo.build_metric(np.moveaxis(values.reshape(shape + (n, n)), (-2, -1), (0, 1)), chart)
        except DegenerateMetric as err:
            return str(err).split(" = ")[0], err.node
        return None

    failing = np.flatnonzero(ratio < geo.DET_FLOOR_SCALE)
    expected = None
    if failing.size:
        expected = ("|det g|", tuple(int(i) for i in np.unravel_index(failing[0], shape)))
    assert verdict(mats) == verdict(10.0**log10_c * mats) == expected


def _inverse_residuals(g, cov):
    """``max_ij |g g^-1 - I|`` at every node of grid-first stacks, with the
    product as ``np.matmul``, as ``einsum`` and as ordered Python sums."""
    n = g.shape[-1]
    ordered = sum(g[..., :, s, None] * cov[..., None, s, :] for s in range(n))
    products = (g @ cov, np.einsum("...is,...sj->...ij", g, cov), ordered)
    return [np.max(np.abs(p - np.eye(n)), axis=(-2, -1)) for p in products]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), log_spread=st.floats(0.0, 8.0),
       log_congruence=st.floats(0.0, 3.0))
def test_accepted_inverses_stay_within_inverse_tol(n, seed, log_spread, log_congruence):
    """The residual ``|g g^-1 - I|`` is the oracle of the condition-number
    gate: every node past the floor and ``KAPPA_CAP`` inverts to within
    ``INVERSE_TOL`` whatever the summation order, and a node is refused
    exactly where LAPACK's condition number of the row-scaled matrix, or
    the determinant, says so, wherever neither sits near its limit.  Random
    nodes ``D Q diag(lam) Q^T D``, with eigenvalue magnitudes spanning
    exactly ``10^[-s, 0]`` (s up to 8) and ``D`` diagonal in ``10^[-c, c]``,
    sit among identities: 16 of them, or 4 at n = 6, where each refusal
    costs a build of 64 nodes."""
    shape = _SIXTEEN_NODES.get(n, (2,) * n)
    chart = GridChart((0.0,) * n, (1.0,) * n, shape)
    count = 4 if n == 6 else 16
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    lam = 10.0 ** rng.uniform(-log_spread, 0.0, (count, n))
    lam[:, 0], lam[:, -1] = 1.0, 10.0**-log_spread
    lam *= rng.choice([-1.0, 1.0], (count, n))
    d = 10.0 ** rng.uniform(-log_congruence, log_congruence, (count, n))
    live = (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2) * d[:, :, None] * d[:, None, :]
    live = 0.5 * (live + np.swapaxes(live, -1, -2))
    mats = np.broadcast_to(np.eye(n), (math.prod(shape), n, n)).copy()
    mats[:count] = live
    values = np.moveaxis(mats, 0, -1).reshape((n, n) + shape)
    refused = set()
    while True:  # each refusal names one node: set it to the identity and retry
        try:
            metric = geo.build_metric(values, chart)
            break
        except DegenerateMetric as err:
            refused.add(err.node)
            values[(..., *err.node)] = np.eye(n)

    g, cov = (np.moveaxis(f.values, (0, 1), (-2, -1)) for f in (metric.contra, metric.cov))
    assert max(np.max(r) for r in _inverse_residuals(g, cov)) <= geo.INVERSE_TOL

    a = live / np.max(np.abs(live), axis=-1, keepdims=True)
    kappa = (np.linalg.norm(a, np.inf, axis=(-2, -1))
             * np.linalg.norm(np.linalg.inv(a), np.inf, axis=(-2, -1)))
    ratio = np.abs(np.linalg.det(live)) / np.max(np.abs(live), axis=(-2, -1)) ** n
    cap, floor = geo.KAPPA_CAP[min(n, 3)], geo.DET_FLOOR_SCALE
    for k in range(count):
        if not (0.25 * floor < ratio[k] < 4.0 * floor or 0.5 * cap < kappa[k] < 2.0 * cap):
            node = tuple(int(i) for i in np.unravel_index(k, shape))
            assert (node in refused) == (ratio[k] < floor or kappa[k] > cap), (k, kappa[k])


def test_cofactor_inverse_in_four_dimensions():
    """Every chart in use has n <= 3; n = 4 goes through the same expansion."""
    chart = GridChart((0.5,) * 4, (1.5,) * 4, (5, 5, 5, 5))
    u = chart.meshgrid()
    vals = np.zeros((4, 4) + chart.shape)
    for i in range(4):
        vals[i, i] = 2.0 + u[i]
        vals[i, (i + 1) % 4] = vals[(i + 1) % 4, i] = 0.3 * u[(i + 2) % 4]
    m = geo.build_metric(vals, chart)
    inverse = np.linalg.inv(np.moveaxis(vals, (0, 1), (-2, -1)))
    npt.assert_allclose(m.cov.values, np.moveaxis(inverse, (-2, -1), (0, 1)), rtol=0, atol=1e-14)
    # the product of two polar planes is flat, a sphere times a plane is not
    chart = GridChart((1.0, 0.5, 1.0, 0.5), (2.0, 1.5, 2.0, 1.5), (9, 9, 9, 9))
    planes = geo.build_metric(lambda u: [[1.0, 0.0, 0.0, 0.0], [0.0, u[0] ** -2, 0.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, u[2] ** -2]], chart)
    sphere = geo.build_metric(lambda u: [[1.0, 0.0, 0.0, 0.0], [0.0, np.sin(u[0]) ** -2, 0.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], chart)
    assert geo.flatness_residual(planes) <= 1e-3
    assert geo.flatness_residual(sphere) >= 0.5


# ---------------------------------------------------------------------------
# raised placements are formed on first read


def test_lazy_raised_fields_equal_the_eager_formulas(polar_metric):
    """The raised placements as :func:`connection` and :func:`curvature`
    formed them before they became lazy, bit for bit."""
    chart3 = GridChart((0.5,) * 3, (1.5,) * 3, (9, 9, 9))
    sphere3 = geo.build_metric(lambda u: [[1.0, 0.0, 0.0], [0.0, np.sin(u[0]) ** -2, 0.0],
                                          [0.0, 0.0, (np.sin(u[0]) * np.sin(u[1])) ** -2]], chart3)
    for metric in (polar_metric, sphere3):
        n = metric.dim

        def grid_first(values):
            rank = values.ndim - n
            return np.moveaxis(values, range(rank), range(-rank, 0))

        g = grid_first(metric.contra.values)
        conn = geo.connection(metric)
        curv = geo.curvature(metric, conn)
        assert "contra" not in vars(conn) and "contra" not in vars(curv)
        eager_conn = np.swapaxes(g[..., None, :, :] @ grid_first(conn.mixed.values), -3, -2)
        r = np.ascontiguousarray(grid_first(curv.planes))  # [..., i, j, p]
        eager_curv = np.swapaxes(g[..., None, :, :] @ r, -3, -2)
        npt.assert_array_equal(grid_first(conn.contra.values), eager_conn)
        npt.assert_array_equal(grid_first(curv.contra), eager_curv)
        assert curv.contra is curv.contra  # formed once


def test_flatness_forms_no_raised_tensor(monkeypatch, polar_metric):
    made = []
    record_results(monkeypatch, made, ("connection", "curvature"), geo)
    geo.flatness_residual(polar_metric)
    assert [type(x) for x in made] == [geo.ConnectionField, geo.CurvatureField]
    assert not any("contra" in vars(x) for x in made)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_acceptance_and_flatness_do_not_change_under_rescaling(data):
    dim = data.draw(st.sampled_from((2, 3)), label="dim")
    chart = GridChart((0.5,) * dim, (1.5,) * dim, (7,) * dim)
    u = chart.meshgrid()
    # g^{ii} = 10^e_i (1 + a_i u_{i+1}): curved, and the magnitudes straddle
    # the floor, |det g| / max|g|^n being about 10^(sum e - n max e)
    exps = [data.draw(st.floats(-6.0, 6.0)) for _ in range(dim)]
    slopes = [data.draw(st.floats(-0.4, 0.4)) for _ in range(dim)]
    c = 10.0 ** data.draw(st.floats(-6.0, 6.0), label="log10 c")
    vals = np.zeros((dim, dim) + chart.shape)
    for i, (e, a) in enumerate(zip(exps, slopes)):
        vals[i, i] = 10.0**e * (1.0 + a * u[(i + 1) % dim])
    mats = np.moveaxis(vals, (0, 1), (-2, -1))
    ratio = np.abs(np.linalg.det(mats)) / np.max(np.abs(mats), axis=(-1, -2)) ** dim
    assume(not 0.5 * geo.DET_FLOOR_SCALE < ratio.min() < 2.0 * geo.DET_FLOOR_SCALE)

    def built(values):
        try:
            return geo.build_metric(values, chart)
        except DegenerateMetric:
            return None

    plain, scaled = built(vals), built(c * vals)
    assert (plain is None) == (scaled is None)
    assert (plain is None) == (ratio.min() < geo.DET_FLOOR_SCALE)
    if plain is not None:
        # rounding in g_{jj} reaches Gamma^i_{jj} through g^{ii}: the noise
        # floor is about eps times the anisotropy max g^{ii} / min g^{jj}
        diag = np.abs(vals[range(dim), range(dim)])
        noise = 1e-13 * float(np.max(diag) / np.min(diag))
        assert geo.flatness_residual(scaled) == pytest.approx(
            geo.flatness_residual(plain), rel=1e-9, abs=noise)
