"""The complete two-component family of compatible flat diagonal pairs.

Every nonsingular compatible flat pair in two coordinates can be written as

    g2 = diag(eps1 / b1^2,       eps2 / b2^2)
    g1 = diag(eps1 f1(u1)/b1^2,  eps2 f2(u2)/b2^2)

with signs ``eps`` and nonvanishing ``b1, b2, f1, f2``.  Flatness of ``g2``
is equivalent to ``b`` solving the linear system

    d b2 / d u1 =  eps1 (dF/du2) b1
    d b1 / d u2 = -eps2 (dF/du1) b2                                   (*)

for some scalar potential ``F(u1, u2)``, and the *pair* is a compatible flat
pair exactly when that ``F`` additionally solves

    2 F_{u1 u2} (f1 - f2) + F_{u2} f1' - F_{u1} f2' = 0.             (**)

The distinguished solution family ``F = c ln(u1 - u2)`` with
``b1^2 = b2^2 = u1 - u2`` (``c = 1/2``, ``eps = (-1, 1)``) generates the
ladder ``G_n = diag(eps1 (u1)^n / b1^2, eps2 (u2)^n / b2^2)``: members 0..2
are pairwise flat-compatible, and member 3 has constant curvature
``K = eps2/(4 b^2/(u1-u2))`` when ``b^2`` is scaled to ``(eps2/4K)(u1-u2)``.

This module verifies (**), integrates (*) from two-edge data, and builds the
pair (``h = b``, ``w = f`` or 1) and the ladder (``w = u^n``) with
:func:`lame_system.diagonal_metric`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import grid_calculus as gc
from .errors import VanishingB
from .geometry_core import MetricField
from .grid_calculus import GridChart
from .lame_system import ReductionProfile, diagonal_metric, identity_profile
from .pencil_checker import DEFAULT_LAMBDA_SAMPLES, PencilSpec

B_FLOOR_SCALE = 1e-8


@dataclass(frozen=True)
class Potential:
    """Two-variable potential ``F(x, y)`` with its partials ``F_x``, ``F_y``
    and ``F_xy``.

    With ``terms``, ``F = sum_k A_k(x) B_k(y)`` for terms ``(A, A', B, B')``
    of functions mapping an array to one of its shape; ``value`` and the
    partials not given are sums over them, and the dressing solver reads the
    terms themselves.  Otherwise a partial left out is filled by
    :func:`grid_calculus.central_difference` of ``value`` (``F_xy`` of ``dx``)
    at the step 1e-3; analytic partials are preferred wherever residuals at
    the 1e-10 level matter.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    dx: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    dy: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    dxy: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    terms: tuple[tuple[Callable, Callable, Callable, Callable], ...] | None = None

    def __post_init__(self):
        def fd(fn, axis):
            return lambda x, y: gc.central_difference(fn, (x, y), axis)

        def total(fx, fy):  # sum_k of term entry fx at x times entry fy at y
            return lambda x, y: sum(t[fx](x) * t[fy](y) for t in self.terms)

        if self.terms is not None:
            for name, fx, fy in (("value", 0, 2), ("dx", 1, 2), ("dy", 0, 3), ("dxy", 1, 3)):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, total(fx, fy))
        if self.value is None:
            raise ValueError("a potential needs a value or terms")
        if self.dx is None:
            object.__setattr__(self, "dx", fd(self.value, 0))
        if self.dy is None:
            object.__setattr__(self, "dy", fd(self.value, 1))
        if self.dxy is None:
            object.__setattr__(self, "dxy", fd(self.dx, 1))


def log_potential(c: float) -> Potential:
    """``F = c ln(u1 - u2)`` — defined for ``u1 > u2``."""
    return Potential(
        value=lambda u1, u2: c * np.log(u1 - u2),
        dx=lambda u1, u2: c / (u1 - u2),
        dy=lambda u1, u2: -c / (u1 - u2),
        dxy=lambda u1, u2: c / (u1 - u2) ** 2,
    )


def linear_potential(a: float, b: float) -> Potential:
    """``F = a u1 + b u2`` (constant gradient; ``a = b = 0`` is constant F)."""
    zero = lambda u1, u2: np.zeros(np.broadcast(u1, u2).shape)
    return Potential(
        value=lambda u1, u2: a * u1 + b * u2 + zero(u1, u2),
        dx=lambda u1, u2: a + zero(u1, u2),
        dy=lambda u1, u2: b + zero(u1, u2),
        dxy=zero,
    )


def product_potential() -> Potential:
    """``F = u1 u2``; it violates the reduction PDE for the identity profile,
    which makes it the negative control of the dressing checks."""
    one = lambda u1, u2: np.ones(np.broadcast(u1, u2).shape)
    return Potential(
        value=lambda u1, u2: u1 * u2,
        dx=lambda u1, u2: u2 * one(u1, u2),
        dy=lambda u1, u2: u1 * one(u1, u2),
        dxy=one,
    )


@dataclass(frozen=True)
class TwoComponentSpec:
    """Chart, signs, reduction profile ``f``, potential, and (optional) b fields."""

    chart: GridChart
    potential: Potential
    eps: tuple[int, int] = (-1, 1)
    f: ReductionProfile = identity_profile(2)
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None

    def __post_init__(self):
        if self.chart.dim != 2:
            raise ValueError("two-component specs need a 2-D chart")
        if any(e not in (-1, 1) for e in self.eps):
            raise ValueError("eps entries must be +1 or -1")
        for name in ("b1", "b2"):
            b = getattr(self, name)
            if b is not None:
                b = np.asarray(b, dtype=float)
                if b.shape != self.chart.shape:
                    raise ValueError(f"{name} must be a grid scalar field")
                _check_nonvanishing(b, name, self.chart)
                object.__setattr__(self, name, b)

    def with_b(self, b1: np.ndarray, b2: np.ndarray) -> "TwoComponentSpec":
        return replace(self, b1=b1, b2=b2)


def _check_nonvanishing(b: np.ndarray, name: str, chart: GridChart):
    """:class:`NonFiniteSample` where ``b`` is not finite, then :class:`VanishingB`
    naming ``name`` and the node, with its coordinates, where ``|b|`` is under the floor."""
    gc.check_finite(b, chart)
    floor = B_FLOOR_SCALE * max(1.0, float(np.max(np.abs(b))))
    worst = int(np.argmin(np.abs(b)))
    value = float(b.flat[worst])
    if not abs(value) >= floor:
        node = np.unravel_index(worst, b.shape)
        raise VanishingB(name, node, value, floor, chart.node(node))


def lequa_residual(spec: TwoComponentSpec) -> float:
    """Max interior residual of the compatibility equation (**) for ``F``.

    Potential partials are analytic when supplied; the profile derivatives
    ``f'`` come from axis finite differences of the sampled profile.
    """
    chart = spec.chart
    u1, u2 = chart.meshgrid()
    f1, f2 = spec.f.values_on(chart)
    fp1 = gc.differentiate_array(f1, chart, 0)
    fp2 = gc.differentiate_array(f2, chart, 1)
    f_u1 = np.asarray(spec.potential.dx(u1, u2), dtype=float)
    f_u2 = np.asarray(spec.potential.dy(u1, u2), dtype=float)
    f_mixed = np.asarray(spec.potential.dxy(u1, u2), dtype=float)
    res = 2.0 * f_mixed * (f1 - f2) + f_u2 * fp1 - f_u1 * fp2
    return gc.interior_max(res, chart)


@dataclass
class IntegrationResult:
    b1: np.ndarray
    b2: np.ndarray
    consistency: dict[str, float]

    @property
    def max_consistency(self) -> float:
        return gc.worst(self.consistency.values())


def integrate_b(
    spec: TwoComponentSpec,
    b1_edge: Callable[[np.ndarray], np.ndarray],
    b2_edge: Callable[[float], float],
) -> IntegrationResult:
    """Integrate the linear system (*) from two-edge data.

    ``b1_edge`` supplies ``b1`` on the bottom edge (``u2 = lower``): it gets
    the ``u1`` axis coordinates and may return a scalar.  ``b2_edge``
    supplies ``b2`` on the left edge (``u1 = lower``) as a function of
    ``u2`` and must accept *arbitrary* ``u2`` values inside the range (the
    row marcher evaluates it at half-steps).

    Marching scheme, 4th order in both directions: at a fixed row ``u2``,
    ``b2`` over the row is the left-edge value plus the cumulative quadrature
    of ``eps1 F_{u2} b1``; rows of ``b1`` advance by classic Runge–Kutta in
    ``u2``, rebuilding the ``b2`` row at every stage.

    The returned consistency figures re-measure both equations of (*) by
    grid differentiation of the final fields.
    """
    chart = spec.chart
    x = chart.axis_coordinates(0)
    y = chart.axis_coordinates(1)
    hx, hy = chart.spacing
    eps1, eps2 = spec.eps
    f_u1, f_u2 = spec.potential.dx, spec.potential.dy

    def row_b2(row_b1: np.ndarray, yv: float) -> np.ndarray:
        integrand = eps1 * np.asarray(f_u2(x, yv), dtype=float) * row_b1
        return float(b2_edge(yv)) + gc.cumulative_integral(integrand, hx, 0)

    def rhs(row_b1: np.ndarray, yv: float) -> np.ndarray:
        return -eps2 * np.asarray(f_u1(x, yv), dtype=float) * row_b2(row_b1, yv)

    b1_grid = np.empty(chart.shape)
    b2_grid = np.empty(chart.shape)
    row = gc.as_grid(b1_edge(x), x.shape)
    b1_grid[:, 0] = row
    b2_grid[:, 0] = row_b2(row, y[0])
    for r in range(len(y) - 1):
        yv = y[r]
        k1 = rhs(row, yv)
        k2 = rhs(row + 0.5 * hy * k1, yv + 0.5 * hy)
        k3 = rhs(row + 0.5 * hy * k2, yv + 0.5 * hy)
        k4 = rhs(row + hy * k3, yv + hy)
        row = row + (hy / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        b1_grid[:, r + 1] = row
        b2_grid[:, r + 1] = row_b2(row, y[r + 1])

    _check_nonvanishing(b1_grid, "b1", chart)
    _check_nonvanishing(b2_grid, "b2", chart)
    return IntegrationResult(b1_grid, b2_grid, _system_rows(spec, b1_grid, b2_grid))


def _system_rows(spec: TwoComponentSpec, b1, b2) -> dict[str, float]:
    """Max interior residual of each equation of (*) for the fields ``b1, b2``."""
    chart = spec.chart
    u1, u2 = chart.meshgrid()
    eps1, eps2 = spec.eps
    f_u1 = np.asarray(spec.potential.dx(u1, u2), dtype=float)
    f_u2 = np.asarray(spec.potential.dy(u1, u2), dtype=float)
    r_b2 = gc.differentiate_array(b2, chart, 0) - eps1 * f_u2 * b1
    r_b1 = gc.differentiate_array(b1, chart, 1) + eps2 * f_u1 * b2
    return {
        "b2_equation": gc.interior_max(r_b2, chart),
        "b1_equation": gc.interior_max(r_b1, chart),
    }


def system_residual(spec: TwoComponentSpec) -> float:
    """Max interior residual of (*) for *given* ``b`` fields."""
    if spec.b1 is None or spec.b2 is None:
        raise ValueError("system_residual needs b fields set on the TwoComponentSpec")
    return gc.worst(_system_rows(spec, spec.b1, spec.b2).values())


def build_pair(
    spec: TwoComponentSpec,
    lambda_samples: Sequence[tuple[float, float]] = DEFAULT_LAMBDA_SAMPLES,
) -> PencilSpec:
    """The pair ``(g1, g2)`` of the normal form as a ``PencilSpec``."""
    if spec.b1 is None or spec.b2 is None:
        raise ValueError("build_pair needs b fields set on the TwoComponentSpec")
    _check_nonvanishing(spec.b1, "b1", spec.chart)
    _check_nonvanishing(spec.b2, "b2", spec.chart)
    chart, b = spec.chart, np.stack((spec.b1, spec.b2))
    g1 = diagonal_metric(chart, spec.eps, spec.f.values_on(chart), b)
    g2 = diagonal_metric(chart, spec.eps, 1.0, b)
    return PencilSpec(g1, g2, tuple(lambda_samples))


def g_family(spec: TwoComponentSpec, n: int) -> MetricField:
    """Ladder member ``G_n = diag(eps1 (u1)^n / b1^2, eps2 (u2)^n / b2^2)``."""
    if n not in (0, 1, 2, 3):
        raise ValueError("family index must be 0..3")
    if spec.b1 is None or spec.b2 is None:
        raise ValueError("g_family needs b fields set on the TwoComponentSpec")
    u = np.stack(spec.chart.meshgrid())
    return diagonal_metric(spec.chart, spec.eps, u**n, np.stack((spec.b1, spec.b2)))


def log_family_spec(chart: GridChart, k: float = 0.25) -> TwoComponentSpec:
    """The closed-form spec behind the ladder: ``eps = (-1, 1)``,
    ``f = (u1, u2)``, potential ``(1/2) ln(u1 - u2)``, and
    ``b1^2 = b2^2 = (1/4K)(u1-u2)`` (``K = 1/4`` gives ``b = sqrt(u1-u2)``).
    These ``b`` solve (*) only for the coefficient 1/2 of the logarithm."""
    u1, u2 = chart.meshgrid()
    w = u1 - u2
    if np.min(w) <= 0:
        raise ValueError("chart must satisfy u1 > u2 for the log family")
    b = np.sqrt(w * (1.0 / (4.0 * k)))
    return TwoComponentSpec(
        chart=chart,
        potential=log_potential(0.5),
        eps=(-1, 1),
        b1=b,
        b2=b,
    )
