import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from flatpencil import grid_calculus as gc
from flatpencil.errors import ChartTooCoarse, NonFiniteSample
from flatpencil.expressions import compile_expression
from flatpencil.grid_calculus import (
    GridChart,
    TensorField,
    cumulative_integral,
    differentiate_array,
    interior_max,
    sample,
    stacked_partials,
)


def test_chart_validation():
    with pytest.raises(ValueError):
        GridChart((0.0,), (1.0, 2.0), (5, 5))
    with pytest.raises(ValueError):
        GridChart((1.0,), (0.0,), (5,))
    with pytest.raises(ValueError):
        GridChart((0.0,), (1.0,), (1,))
    with pytest.raises(ValueError):
        GridChart((), (), ())
    with pytest.raises(TypeError, match="order"):  # one stencil order, not a field
        GridChart((0.0,), (1.0,), (9,), order=4)


def test_chart_geometry():
    chart = GridChart((0.0, 1.0), (1.0, 3.0), (11, 21))
    assert chart.dim == 2
    assert chart.shape == (11, 21)
    npt.assert_allclose(chart.spacing, (0.1, 0.1))
    npt.assert_allclose(chart.node((0, 0)), (0.0, 1.0))
    npt.assert_allclose(chart.node((10, 20)), (1.0, 3.0))
    xs = chart.axis_coordinates(1)
    assert xs[0] == 1.0 and xs[-1] == 3.0 and len(xs) == 21


def test_meshgrid_orientation():
    chart = GridChart((0.0, 1.0), (1.0, 2.0), (5, 3))
    U1, U2 = chart.meshgrid()
    assert U1.shape == (5, 3)
    # axis 0 varies u1, axis 1 varies u2
    assert U1[1, 0] != U1[0, 0]
    assert U2[0, 1] != U2[0, 0]
    npt.assert_allclose(U1[:, 0], U1[:, 2])


def test_interior_margin_clamps_to_nonempty():
    chart = GridChart((0.0,), (1.0,), (7,))
    sl = chart.interior()
    picked = np.arange(7)[sl[0]]
    assert picked.size >= 1  # never empties the axis


def test_fourth_order_stencil_exact_on_quartic():
    """Interior and one-sided boundary stencils both reproduce degree-4
    polynomials to rounding."""
    chart = GridChart((0.0,), (1.0,), (21,))
    x = chart.axis_coordinates(0)
    vals = x**4 - 2 * x**3 + x
    d = differentiate_array(vals, chart, axis=0)
    npt.assert_allclose(d, 4 * x**3 - 6 * x**2 + 1, atol=1e-12)


def test_differentiation_converges_at_fourth_order():
    errs = {}
    for n in (41, 81):
        chart = GridChart((0.0,), (2.0,), (n,))
        x = chart.axis_coordinates(0)
        d = differentiate_array(np.sin(3 * x), chart, axis=0)
        errs[n] = np.max(np.abs(d - 3 * np.cos(3 * x)))
    rate = np.log2(errs[41] / errs[81])
    assert 3.7 <= rate <= 4.3


def test_chart_too_coarse():
    chart = GridChart((0.0,), (1.0,), (4,))
    with pytest.raises(ChartTooCoarse):
        differentiate_array(np.zeros(4), chart, axis=0)


def test_cumulative_integral_exact_on_cubic():
    chart = GridChart((0.0,), (1.0,), (21,))
    x = chart.axis_coordinates(0)
    ci = cumulative_integral(x**3, chart.spacing[0], axis=0)
    npt.assert_allclose(ci, x**4 / 4, atol=1e-14)


def test_cumulative_integral_other_axis():
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (5, 21))
    _, U2 = chart.meshgrid()
    ci = cumulative_integral(U2**2, chart.spacing[1], axis=1)
    npt.assert_allclose(ci, U2**3 / 3, atol=1e-14)


def test_tensorfield_rejects_nonfinite():
    chart = GridChart((0.0,), (1.0,), (5,))
    vals = np.ones(5)
    vals[2] = np.nan
    with pytest.raises(NonFiniteSample):
        TensorField(chart, "", vals)


def test_an_owned_field_keeps_its_array_read_only():
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (5, 6))
    vals = np.full((2, 2, 5, 6), np.nan)  # an owner does not scan
    fld = TensorField.owning(chart, "ud", vals)
    assert fld.values.shape == (2, 2, 5, 6) and np.shares_memory(fld.values, vals)
    assert not fld.values.flags.writeable
    with pytest.raises(ValueError, match="shape"):
        TensorField.owning(chart, "u", vals)


def test_component_major_derivatives_equal_grid_first_ones():
    """The derivatives of a component-major stack, moved grid first, equal
    those of its components, assembled grid first."""
    chart = GridChart((0.0, 0.5, 1.0), (1.0, 1.5, 2.0), (5, 7, 6))
    vals = np.random.default_rng(3).standard_normal(chart.shape + (3, 2))
    stack = np.ascontiguousarray(np.moveaxis(vals, (-2, -1), (0, 1)))
    for axis in range(3):
        grid_first = np.empty_like(vals)
        for i, j in np.ndindex(3, 2):
            grid_first[..., i, j] = differentiate_array(vals[..., i, j], chart, axis)
        npt.assert_array_equal(
            np.moveaxis(differentiate_array(stack, chart, axis), (0, 1), (-2, -1)), grid_first)
    partials = np.moveaxis(stacked_partials(stack, chart), (0, 1, 2), (-3, -2, -1))
    for a in range(3):
        npt.assert_array_equal(partials[..., a, :, :],
                               np.moveaxis(differentiate_array(stack, chart, a), (0, 1), (-2, -1)))


def _one_pass(values, chart, axis):
    """The interior rows in one pass over the flattened array, with a
    whole-array ``8 a``: the stencils before they ran in blocks."""
    values = np.ascontiguousarray(values, dtype=float)
    out = np.empty_like(values)
    pos = values.ndim - chart.dim + axis
    lines = (-1, values.shape[pos], math.prod(values.shape[pos + 1:]))
    a, o, step, h = values.reshape(-1), out.reshape(-1), lines[2], chart.spacing[axis]
    rows, a8 = o[2 * step:-2 * step], 8.0 * a[step:-step]
    np.subtract(a[:-4 * step], a8[:-2 * step], out=rows)
    rows += a8[2 * step:]
    rows -= a[4 * step:]
    rows /= 12.0 * h
    gc._edges(values.reshape(lines), h, out.reshape(lines))
    return out


@pytest.mark.parametrize("points, block", [
    ((41, 41, 41), None),  # 68,921 entries: three blocks, the last one short
    ((5, 200, 200), None),  # axis 0 steps 40,000 entries, more than a block
    ((7, 6, 5), 1),  # blocks shorter than any step
    ((7, 6, 5), 13),  # blocks that end inside a line
])
def test_blocked_stencils_equal_one_pass(monkeypatch, points, block):
    if block is not None:
        monkeypatch.setattr(gc, "_BLOCK", block)
    chart = GridChart((0.0,) * 3, (1.0, 2.0, 3.0), points)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(chart.shape)
    stack = rng.standard_normal((2,) + chart.shape)
    assert vals.size > 2 * gc._BLOCK  # several blocks
    for axis in range(3):
        npt.assert_array_equal(differentiate_array(vals, chart, axis),
                               _one_pass(vals, chart, axis))
        npt.assert_array_equal(differentiate_array(stack, chart, axis),
                               _one_pass(stack, chart, axis))


def test_sample_enforces_declared_symmetry():
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (9, 9))
    with pytest.raises(ValueError, match="symmetry"):
        sample(lambda u: [[1.0, u[0]], [0.0, 1.0]], chart, "uu",
               symmetries=((0, 1),))
    fld = sample(lambda u: [[1.0, u[0]], [u[0], 1.0]], chart, "uu",
                 symmetries=((0, 1),))
    assert fld.values.shape == (2, 2, 9, 9)


def test_stacked_partials_layout():
    """stacked_partials puts the derivative axis first, before the original
    tensor slots and the grid axes."""
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (9, 9))
    fld = sample(lambda u: np.array([u[0], u[1]]), chart, "u")
    st = stacked_partials(fld)
    assert st.shape == (2, 2, 9, 9)
    # d_s u^j = delta_s^j for the identity covector field
    npt.assert_allclose(st[:, :, 4, 4], np.eye(2), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), rank=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_one_layout_over_ranks_and_charts(dim, rank, seed, data):
    """A rank-``rank`` field is ``values[tensor ..., grid ...]``: its partials
    are those of its components, a NaN is named by its grid node, and the
    interior maximum reads every component."""
    points = tuple(data.draw(st.integers(5, 7)) for _ in range(dim))
    chart = GridChart((0.0,) * dim, (1.0,) * dim, points)
    tshape = (dim,) * rank
    values = np.random.default_rng(seed).standard_normal(tshape + chart.shape)
    partials = stacked_partials(values, chart)
    assert partials.shape == (dim,) + values.shape
    for a in range(dim):
        for comp in np.ndindex(tshape):
            npt.assert_array_equal(partials[(a, *comp)],
                                   differentiate_array(values[comp], chart, a))
    assert interior_max(values, chart) == max(
        np.max(np.abs(values[comp][chart.interior()])) for comp in np.ndindex(tshape))
    node = tuple(data.draw(st.integers(0, n - 1), label="node") for n in points)
    comp = tuple(data.draw(st.integers(0, dim - 1), label="component") for _ in range(rank))
    values[(*comp, *node)] = np.nan
    with pytest.raises(NonFiniteSample) as err:
        TensorField(chart, "u" * rank, values)
    assert err.value.node == node
    assert err.value.coords == tuple(chart.node(node))


def test_central_difference_calls_its_function_once():
    calls = []

    def fn(x, y):
        calls.append(np.shape(x))
        return np.sin(x) * y

    x = np.linspace(0.0, 1.0, 7)
    d = gc.central_difference(fn, (x, 2.0), 0)
    assert calls == [(4, 7)]  # the four shifted arguments on one leading axis
    npt.assert_allclose(d, 2.0 * np.cos(x), atol=1e-10)
    constant = gc.central_difference(lambda t: 3.0, (x,))
    assert constant.shape == (7,) and np.all(constant == 0.0)


def test_interior_max_excludes_boundary():
    chart = GridChart((0.0,), (1.0,), (21,))
    vals = np.zeros(21)
    vals[0] = 100.0
    assert interior_max(vals, chart) == 0.0
    vals[10] = 3.0
    assert interior_max(vals, chart) == 3.0


def test_interior_max_margin_is_four_nodes():
    """The margin is 4 nodes per side, on every axis."""
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (21, 21))
    vals = np.zeros(chart.shape)
    for edge in (3, 17):
        vals[edge, 10] = vals[10, edge] = 100.0
    assert interior_max(vals, chart) == 0.0
    vals[4, 10] = 3.0
    vals[10, 16] = 2.0
    assert interior_max(vals, chart) == 3.0


# ---------------------------------------------------------------------------
# the array contract of sample


def test_sample_calls_the_closure_once():
    chart = GridChart((0.0, 1.0), (1.0, 2.0), (17, 9))
    calls = []

    def fn(u):
        calls.append([a.shape for a in u])
        return [[1.0, u[0]], [u[0], u[1] ** 2]]

    fld = sample(fn, chart, "uu", symmetries=((0, 1),))
    assert calls == [[(17, 9), (17, 9)]]
    U1, U2 = chart.meshgrid()
    npt.assert_array_equal(fld.values[0, 1], U1)
    npt.assert_array_equal(fld.values[1, 1], U2 ** 2)


def test_sample_broadcasts_scalar_leaves():
    chart = GridChart((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 4, 5))
    fld = sample(lambda u: [2.0, u[1], 0], chart, "u")
    npt.assert_array_equal(fld.values[0], np.full((3, 4, 5), 2.0))
    npt.assert_array_equal(fld.values[2], 0.0)
    scalar = sample(lambda u: np.float64(-1.5), chart)
    npt.assert_array_equal(scalar.values, np.full((3, 4, 5), -1.5))


@pytest.mark.parametrize("fn, variance", [
    (lambda u: [u[0][:, 0], u[1]], "u"),  # a leaf along one axis only
    (lambda u: [u[0], u[1], u[0]], "u"),  # three entries for two slots
    (lambda u: u[0], "u"),  # a grid array where a slot is expected
    (lambda u: [[1.0, 0.0]], "uu"),  # one row for two
    (lambda u: [1.0, 2.0], ""),  # a vector for a scalar field
])
def test_sample_rejects_wrong_shaped_leaves(fn, variance):
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (4, 4))
    with pytest.raises(ValueError):
        sample(fn, chart, variance)


def _first_bad_node(chart, fn):
    """The node a node-by-node sampler stops at: first in C order with a
    non-finite component."""
    for idx in np.ndindex(chart.shape):
        u = [np.float64(x) for x in chart.node(idx)]
        if not np.all(np.isfinite(np.asarray(fn(u), dtype=float))):
            return idx
    return None


def test_nonfinite_sample_names_the_first_node_and_its_coordinates():
    chart = GridChart((0.0, 0.0), (1.0, 2.0), (11, 9))

    def fn(u):
        with np.errstate(all="ignore"):
            return [[1.0, 0.0], [0.0, np.log(u[0] - 0.55) + np.sqrt(1.2 - u[1])]]

    expected = _first_bad_node(chart, fn)
    assert expected == (0, 0)
    with pytest.raises(NonFiniteSample) as err:
        sample(fn, chart, "uu")
    assert err.value.node == expected
    assert err.value.coords == (0.0, 0.0)

    def late(u):
        return [u[1], np.where((u[0] > 0.25) & (u[1] > 0.4), np.inf, 1.0)]

    expected = _first_bad_node(chart, late)
    assert expected == (3, 2)
    with pytest.raises(NonFiniteSample) as err:
        sample(late, chart, "u")
    assert err.value.node == expected
    message = str(err.value)
    assert "np.int64" not in message
    assert "(3, 2) (u = (0.3, 0.5))" in message


TEMPLATES = (
    "exp({a}) * sin(3*{b}) + 1/{a}",
    "sqrt({a} + {b}) / ({a}*{a} + 0.25)",
    "ln({a}) - cos({b} * {a})",
    "pow({a}, 2.5) + pi",
    "{a}",
    "7",
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sampled_expressions_match_node_by_node_evaluation(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    lower = [data.draw(st.floats(0.1, 3.0)) for _ in range(dim)]
    width = [data.draw(st.floats(0.01, 2.0)) for _ in range(dim)]
    points = [data.draw(st.integers(2, 6)) for _ in range(dim)]
    chart = GridChart(lower, [lo + w for lo, w in zip(lower, width)], points)
    names = tuple(f"u{d + 1}" for d in range(dim))
    pick = st.sampled_from(names)
    cells = [
        compile_expression(
            data.draw(st.sampled_from(TEMPLATES)).format(a=data.draw(pick), b=data.draw(pick)),
            names,
        )
        for _ in range(dim)
    ]
    fld = sample(lambda u: [fn(*u) for fn in cells], chart, "u")
    reference = np.empty((dim,) + chart.shape)
    for idx in np.ndindex(chart.shape):
        u = chart.node(idx)
        reference[(slice(None), *idx)] = [float(fn(*u)) for fn in cells]
    npt.assert_array_max_ulp(fld.values, reference, maxulp=1)
