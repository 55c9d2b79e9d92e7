"""Uniform tensor-product grids and finite-difference calculus on them.

All grid derivatives taken anywhere in the package go through
:func:`differentiate_array` (one axis) or :func:`stacked_partials` (every
axis), which apply fourth-order centred stencils in the interior and
one-sided stencils of the same order at the boundary, so the formal accuracy
is uniform across the box.  Boundary stencils have larger error constants,
which is why every residual is reduced by :func:`interior_max`, over the
interior sub-box left after :data:`INTERIOR_MARGIN` nodes per side.

First-derivative stencils (spacing h):

    interior   (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / (12h)
    node 0     (-25 f0 + 48 f1 - 36 f2 + 16 f3 - 3 f4) / (12h)
    node 1     (-3 f0 - 10 f1 + 18 f2 - 6 f3 + f4) / (12h)   and mirrored

Every grid tensor in the package is component-major, ``values[tensor index
..., grid index ...]``, with one leading tensor axis of length N per slot of
the variance signature and the grid axes trailing, so a component is one
contiguous grid array and every numpy call runs over whole grid arrays.  The
interior stencil rows run in blocks small enough to stay in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ChartTooCoarse, NonFiniteSample

#: minimum number of nodes per axis for which every stencil in the package
#: (including the five-point one-sided rows) is defined
MIN_AXIS_POINTS = 5

#: nodes per side that :meth:`GridChart.interior` leaves out: a one-sided row
#: pollutes 2 nodes per differentiation, and curvature-type residuals chain two
INTERIOR_MARGIN = 4

#: largest relative asymmetry :func:`symmetrized` averages away
_SYMMETRY_TOL = 1e-8

#: interior stencil rows per numpy call: 256 KiB of doubles, an L2 cache's worth
_BLOCK = 32768


@dataclass(frozen=True)
class GridChart:
    """A uniform tensor-product grid on an axis-aligned box.

    ``lower[i] < upper[i]`` and ``points[i] >= 2``; differentiation requires
    at least :data:`MIN_AXIS_POINTS` nodes on the axis being differentiated
    and raises :class:`ChartTooCoarse` otherwise.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))
        object.__setattr__(self, "points", tuple(int(n) for n in self.points))
        if not (len(self.lower) == len(self.upper) == len(self.points)):
            raise ValueError("lower/upper/points must have equal length")
        if len(self.points) == 0:
            raise ValueError("chart needs at least one axis")
        for d, (lo, hi, n) in enumerate(zip(self.lower, self.upper, self.points)):
            if not hi > lo:
                raise ValueError(f"axis {d}: upper must exceed lower")
            if n < 2:
                raise ValueError(f"axis {d}: need at least 2 points, got {n}")

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.lower, self.upper, self.points)
        )

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return np.linspace(self.lower[axis], self.upper[axis], self.points[axis])

    def meshgrid(self) -> list[np.ndarray]:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        return np.meshgrid(
            *(self.axis_coordinates(d) for d in range(self.dim)), indexing="ij"
        )

    def node(self, index: Sequence[int]) -> np.ndarray:
        return np.array(
            [self.axis_coordinates(d)[i] for d, i in enumerate(index)], dtype=float
        )

    def interior(self) -> tuple[slice, ...]:
        """Index slices excluding :data:`INTERIOR_MARGIN` nodes per side, never empty."""
        margins = (min(INTERIOR_MARGIN, (n - 1) // 2) for n in self.points)
        return tuple(slice(m, n - m) for m, n in zip(margins, self.points))


@dataclass(frozen=True)
class TensorField:
    """Dense tensor values on a chart.

    ``variance`` is one character per tensor slot: ``'u'`` for a contravariant
    (upper) index, ``'d'`` for a covariant (lower) one, e.g. ``"uu"`` for a
    contravariant metric and ``"udd"`` for a connection.
    """

    chart: GridChart
    variance: str
    values: np.ndarray

    def __post_init__(self):  # the scanning gate, for values from outside
        vals = np.asarray(self.values, dtype=float)
        self._check_shape(vals)
        check_finite(vals, self.chart)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def owning(cls, chart: GridChart, variance: str, values: np.ndarray) -> TensorField:
        """A field that keeps ``values``, read-only, with no copy and no scan:
        for an array just computed from gated inputs and referenced nowhere else."""
        field = object.__new__(cls)
        for name, value in (("chart", chart), ("variance", variance), ("values", values)):
            object.__setattr__(field, name, value)
        field._check_shape(values)
        values.setflags(write=False)
        return field

    def _check_shape(self, vals: np.ndarray) -> None:
        expected = (self.chart.dim,) * len(self.variance) + self.chart.shape
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != expected {expected}")


# ---------------------------------------------------------------------------
# stencils


def _interior(a: np.ndarray, lo: int, hi: int, step: int, h: float, out, buf) -> None:
    # (a[i-2] - 8 a[i-1] + 8 a[i+1] - a[i+2]) / (12 h), in that order
    o, a8 = out[lo:hi], buf[:hi - lo]
    np.multiply(a[lo - step:hi - step], 8.0, out=a8)
    np.subtract(a[lo - 2 * step:hi - 2 * step], a8, out=o)
    np.multiply(a[lo + step:hi + step], 8.0, out=a8)
    o += a8
    o -= a[lo + 2 * step:hi + 2 * step]
    o /= 12.0 * h


#: the one-sided rows at the low end, as coefficients on nodes 0, 1, ... over
#: 12 h; the high end mirrors them with signs flipped
_EDGE_ROWS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                       [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _edges(a: np.ndarray, h: float, out: np.ndarray) -> None:
    """The one-sided rows of both ends of axis 1 at once, summed term by term
    from the boundary inwards: adding an exactly negated term rounds as
    subtracting it does, so each row rounds as its formula above."""
    count, width = _EDGE_ROWS.shape
    last = a.shape[1] - 1
    nodes = [*range(count), *range(last, last - count, -1)]
    taps = a[:, [[m] * count + [last - m] * count for m in range(width)]]
    coef = np.concatenate([_EDGE_ROWS, -_EDGE_ROWS]).T[..., None]
    acc = coef[0] * taps[:, 0]
    for m in range(1, width):
        acc += coef[m] * taps[:, m]
    acc /= 12.0 * h
    out[:, nodes] = acc


def differentiate_array(
    values: np.ndarray, chart: GridChart, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """First derivative of raw grid values along one chart axis.

    The grid axes trail ``values``, after any tensor axes.  The result is
    C-contiguous, shaped as ``values``, and written into ``out`` when given.
    The interior rows run over the flattened array in cache-sized blocks, one
    contiguous run per numpy call whatever the axis; where a run wraps into
    the next line it writes edge nodes, which the one-sided rows overwrite.
    """
    if not 0 <= axis < chart.dim:
        raise ValueError(f"axis {axis} out of range for a {chart.dim}-D chart")
    if chart.points[axis] < MIN_AXIS_POINTS:
        raise ChartTooCoarse(axis, chart.points[axis], MIN_AXIS_POINTS)
    values = np.ascontiguousarray(values, dtype=float)
    if out is None:
        out = np.empty_like(values)
    elif out.shape != values.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of the shape of values")
    pos = values.ndim - chart.dim + axis
    lines = (-1, values.shape[pos], math.prod(values.shape[pos + 1:]))
    h, flat, step = chart.spacing[axis], values.reshape(-1), lines[2]
    reach, buf = len(_EDGE_ROWS) * step, np.empty(min(_BLOCK, flat.size))
    for lo in range(reach, flat.size - reach, _BLOCK):
        _interior(flat, lo, min(lo + _BLOCK, flat.size - reach), step, h, out.reshape(-1), buf)
    _edges(values.reshape(lines), h, out.reshape(lines))
    return out


# ---------------------------------------------------------------------------
# public operations


def check_finite(vals: np.ndarray, chart: GridChart) -> None:
    """The first node in C order with a non-finite component raises
    :class:`NonFiniteSample` with its coordinates, read off the trailing
    grid axes of ``vals``."""
    finite = np.isfinite(vals)
    if not finite.all():
        bad = ~finite.reshape((-1,) + chart.shape).all(axis=0)
        node = np.unravel_index(int(np.argmax(bad)), chart.shape)
        raise NonFiniteSample(node, coords=chart.node(node))


def as_grid(value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array of ``shape``, a scalar broadcast over it.

    Any other shape raises ``ValueError`` instead of broadcasting along the
    wrong axis.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim and arr.shape != tuple(shape):
        raise ValueError(f"got shape {arr.shape}, expected a scalar or {tuple(shape)}")
    return np.broadcast_to(arr, shape)


def symmetrized(
    vals: np.ndarray, chart: GridChart, symmetries: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Average grid tensor values over each declared slot exchange.

    Non-finite values raise :class:`NonFiniteSample` first; then the
    pre-average asymmetry must not exceed 1e-8 relative to the largest
    entry, else ``ValueError``.  With a symmetry to enforce the result is a
    fresh array in the memory order of ``vals``; without one it is ``vals``.
    """
    check_finite(vals, chart)
    for a, b in symmetries:
        swapped = np.swapaxes(vals, a, b)
        scale = float(np.max(np.abs(vals))) or 1.0
        asym = float(np.max(np.abs(vals - swapped))) / scale
        if asym > _SYMMETRY_TOL:
            raise ValueError(
                f"values violate declared symmetry in slots ({a}, {b}): "
                f"relative asymmetry {asym:.3e} > {_SYMMETRY_TOL:.3e}"
            )
        vals = np.add(vals, swapped, out=np.empty_like(vals))
        vals *= 0.5
    return vals


def sample(
    fn: Callable[[list[np.ndarray]], object],
    chart: GridChart,
    variance: str = "",
    symmetries: Sequence[tuple[int, int]] = (),
) -> TensorField:
    """Evaluate ``fn`` once on the chart's coordinate arrays.

    ``fn(u)`` receives ``u = chart.meshgrid()``, so ``u[a]`` is coordinate
    ``a`` on every node, and returns anything indexable to shape
    ``(dim,) * rank`` -- an array, or nested lists such as
    ``[[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]]``.  Each leaf is a scalar, which
    is broadcast over the grid, or an array of shape ``chart.shape``; any
    other leaf raises ``ValueError``.  The first node in C order with a
    non-finite component raises :class:`NonFiniteSample`, and declared
    symmetries are gated and enforced by :func:`symmetrized`.
    """
    dim = chart.dim
    tshape = (dim,) * len(variance)
    out = fn(chart.meshgrid())
    stack = np.empty(tshape + chart.shape)
    for index in np.ndindex(tshape):
        leaf = out
        try:
            for i in index:
                if len(leaf) != dim:
                    raise ValueError(f"a tensor slot has {len(leaf)} entries, expected {dim}")
                leaf = leaf[i]
            stack[index] = as_grid(leaf, chart.shape)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"component {index} of a {variance!r} field: {exc}") from None
    # the fresh array is scanned once, in symmetrized, and kept without a copy
    return TensorField.owning(chart, variance, symmetrized(stack, chart, symmetries))


def stacked_partials(field: TensorField | np.ndarray, chart: GridChart | None = None) -> np.ndarray:
    """All axis derivatives, stacked on a new leading tensor axis.

    ``field`` is a :class:`TensorField` or raw grid values on ``chart``.
    Returns an array of shape ``(dim,) + values.shape`` whose entry
    ``[a, I, ...]`` is the derivative of component ``I`` along axis ``a``.
    """
    if isinstance(field, TensorField):
        field, chart = field.values, field.chart
    values = np.ascontiguousarray(field, dtype=float)
    out = np.empty((chart.dim,) + values.shape)
    for a in range(chart.dim):
        differentiate_array(values, chart, a, out[a])
    return out


def central_difference(
    fn: Callable, points: Sequence, axis: int = 0, step: float = 1e-3
) -> np.ndarray:
    """Derivative of ``fn(*points)`` in argument ``axis`` at arbitrary points.

    The 4th-order central difference
    ``(f(t - 2h) - 8 f(t - h) + 8 f(t + h) - f(t + 2h)) / (12 h)`` with
    ``t = points[axis]`` and ``h = step``; the result is broadcast against
    the other arguments.  ``fn`` is called once, with the four shifted
    ``t`` stacked on a new leading axis, so it must broadcast its arguments
    elementwise (a scalar result, for a constant, broadcasts too).  Unlike
    :func:`differentiate_array` it needs a callable, not grid values.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    shape = np.broadcast_shapes(*(p.shape for p in points))
    shifts = np.array([-2.0, -1.0, 1.0, 2.0]).reshape((4,) + (1,) * len(shape))
    points[axis] = points[axis] + shifts * step
    values = np.asarray(fn(*points), dtype=float)
    m2, m1, p1, p2 = np.broadcast_to(values, np.broadcast_shapes(values.shape, (4,) + shape))
    return (m2 - 8 * m1 + 8 * p1 - p2) / (12 * step)


def interior_max(values: np.ndarray, chart: GridChart) -> float:
    """Max absolute value over the interior sub-box.

    The margin is :data:`INTERIOR_MARGIN` nodes per side.  The grid axes
    trail ``values``; every component is reduced, and no component reads 0.
    """
    return float(np.max(np.abs(values[(..., *chart.interior())]), initial=0.0))


def worst(values) -> float:
    """Largest of ``values`` (0.0 when empty); a NaN anywhere propagates,
    where Python's ``max`` keeps it only in first place."""
    values = list(values)
    return float(np.max(values)) if values else 0.0


def cumulative_integral(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Fourth-order cumulative integral along one axis of uniform samples.

    Each interval is integrated with the cubic through its four nearest nodes
    (Adams-Moulton weights ``(9, 19, -5, 1)/24`` on the first and last
    interval, ``(-1, 13, 13, -1)/24`` inside), then accumulated from the first
    node.  Exact for polynomials up to degree 3.
    """
    a = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = a.shape[0]
    if n < 4:
        raise ValueError("cumulative integral needs at least 4 sample points")
    inc = np.empty_like(a)
    inc[0] = 0.0
    inc[1] = h * (9.0 * a[0] + 19.0 * a[1] - 5.0 * a[2] + a[3]) / 24.0
    inc[2:-1] = h * (-a[:-3] + 13.0 * a[1:-2] + 13.0 * a[2:-1] - a[3:]) / 24.0
    inc[-1] = h * (9.0 * a[-1] + 19.0 * a[-2] - 5.0 * a[-3] + a[-4]) / 24.0
    return np.moveaxis(np.cumsum(inc, axis=0), 0, axis)
