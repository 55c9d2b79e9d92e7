"""Metrics, Levi-Civita connections and curvature on gridded charts.

Conventions (every index contraction is a batched matmul over the grid):

* the contravariant metric ``g^{ij}`` is the primary object; the covariant
  ``g_{ij}`` is its pointwise dense inverse,
* Christoffel symbols of the second kind::

      Gamma^i_{jk} = 1/2 g^{is} (d_j g_{sk} + d_k g_{js} - d_s g_{jk})

* the contravariant (raised) connection ``Gamma^{ij}_k = g^{is} Gamma^j_{sk}``,
* curvature::

      R^i_{jkl} = -d_k Gamma^i_{jl} + d_l Gamma^i_{jk}
                  - Gamma^i_{pk} Gamma^p_{jl} + Gamma^i_{pl} Gamma^p_{jk}

  with the raised form ``R^{ij}_{kl} = g^{is} R^j_{skl}``.  It is computed as
  the antisymmetrisation ``R^i_{jkl} = S^i_{jlk} - S^i_{jkl}`` of the single
  tensor ``S^i_{jkl} = d_k Gamma^i_{jl} + Gamma^i_{pk} Gamma^p_{jl}``.

A metric has constant curvature K when ``R^{ij}_{kl} = K (delta^i_k delta^j_l
- delta^i_l delta^j_k)``; flat means K = 0.  Residual reducers quote maxima
over an interior sub-box because one-sided boundary stencils carry larger
error constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import grid_calculus as gc
from .errors import DegenerateMetric
from .grid_calculus import GridChart, TensorField

#: nondegeneracy floor: pointwise, |det g| is at least this multiple of
#: max_ij |g^{ij}|^n, so the gate does not change under g -> c g
DET_FLOOR_SCALE = 1e-8

#: |g^{is} g_{sj} - delta^i_j| allowed after pointwise inversion
INVERSE_TOL = 1e-10


@dataclass(frozen=True)
class MetricField:
    """A nondegenerate (pseudo-)metric with both index placements stored."""

    contra: TensorField
    cov: TensorField

    @property
    def chart(self) -> GridChart:
        return self.contra.chart

    @property
    def dim(self) -> int:
        return self.contra.chart.dim

    def scale(self) -> float:
        return float(np.max(np.abs(self.contra.values)))


@dataclass(frozen=True)
class ConnectionField:
    """Levi-Civita connection in mixed and raised index placement."""

    mixed: TensorField  # Gamma^i_{jk}, symmetric in (j, k)
    contra: TensorField  # Gamma^{ij}_k

    @property
    def chart(self) -> GridChart:
        return self.mixed.chart


@dataclass(frozen=True)
class CurvatureField:
    """Riemann curvature in mixed and raised index placement."""

    mixed: TensorField  # R^i_{jkl}
    contra: TensorField  # R^{ij}_{kl}

    @property
    def chart(self) -> GridChart:
        return self.mixed.chart

    def deviation(self, k_value: float) -> np.ndarray:
        """``R^{ij}_{kl} - K (d^i_k d^j_l - d^i_l d^j_k)`` at every node."""
        eye = np.eye(self.chart.dim)
        unit = np.einsum("ik,jl->ijkl", eye, eye)
        return self.contra.values - k_value * (unit - np.swapaxes(unit, -1, -2))

    def pointwise_max(self) -> np.ndarray:
        """``max_{ijkl} |R^i_{jkl}|`` at every node."""
        return np.max(np.abs(self.mixed.values), axis=(-4, -3, -2, -1))


def build_metric(
    source: Callable[[list[np.ndarray]], object] | np.ndarray,
    chart: GridChart,
) -> MetricField:
    """Build a metric from a contravariant closure or a dense sample array.

    A closure is evaluated once on the chart's coordinate arrays by
    :func:`grid_calculus.sample` (``lambda u: [[1.0, 0.0], [0.0, u[0]]]``);
    an array has shape ``chart.shape + (dim, dim)``.  Either way the values
    pass the same gates: non-finite entries raise :class:`NonFiniteSample`,
    a relative asymmetry above ``1e-8`` raises ``ValueError``, and the
    symmetric part is kept.

    The determinant is checked pointwise against ``DET_FLOOR_SCALE * max_ij
    |g^{ij}|^n``, a floor of its own degree, so rescaling ``g`` by a constant
    does not change the verdict; below it, :class:`DegenerateMetric` names the first node in
    C order, as does a node where ``g`` vanishes.  The covariant metric is
    the dense pointwise inverse (LAPACK LU) and is verified to invert the
    contravariant one to within ``INVERSE_TOL`` at every scale.
    """
    sym = ((0, 1),)
    if callable(source):
        contra = gc.sample(source, chart, "uu", symmetries=sym)
    else:
        vals = gc.symmetrized(np.asarray(source, dtype=float), chart, sym)
        contra = TensorField(chart, "uu", vals)

    mats = contra.values
    det = np.abs(np.linalg.det(mats))
    floor = DET_FLOOR_SCALE * np.max(np.abs(mats), axis=(-1, -2)) ** chart.dim
    ok = (det >= floor) & (det > 0.0)  # a node where g vanishes has det = floor = 0
    if not ok.all():
        bad = np.unravel_index(int(np.argmin(ok)), chart.shape)
        reason = f"|det g| = {det[bad]:.3e} < floor {floor[bad]:.3e}"
        raise DegenerateMetric(bad, reason, chart.node(bad))

    inv = np.linalg.inv(mats)
    inv = 0.5 * (inv + np.swapaxes(inv, -1, -2))
    resid = np.max(np.abs(mats @ inv - np.eye(chart.dim)), axis=(-1, -2))
    if np.max(resid) > INVERSE_TOL:  # g g^-1 - I is dimensionless
        bad = np.unravel_index(int(np.argmax(resid)), chart.shape)
        reason = f"|g g^-1 - I| = {resid[bad]:.3e} > INVERSE_TOL {INVERSE_TOL:.3e}"
        raise DegenerateMetric(bad, reason, chart.node(bad))

    cov = TensorField(chart, "dd", inv)
    return MetricField(contra, cov)


def connection(metric: MetricField) -> ConnectionField:
    """Levi-Civita connection of a metric via finite differences."""
    g, chart, n = metric.contra.values, metric.chart, metric.dim
    dg = gc.stacked_partials(metric.cov)  # [..., a, j, k] = d_a g_{jk}
    # t[s, j, k] = d_j g_{sk} + d_k g_{js} - d_s g_{jk}, exactly symmetric in (j, k)
    t = np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg
    mixed = 0.5 * (g @ t.reshape(chart.shape + (n, n * n))).reshape(t.shape)
    contra = g[..., None, :, :] @ mixed  # [..., j, i, k] = g^{is} Gamma^j_{sk}
    return ConnectionField(
        TensorField(chart, "udd", mixed),
        TensorField(chart, "uud", np.swapaxes(contra, -3, -2)),
    )


def curvature(metric: MetricField, conn: ConnectionField | None = None) -> CurvatureField:
    """Riemann curvature of a metric (connection recomputed unless given)."""
    if conn is None:
        conn = connection(metric)
    gamma, chart, n = conn.mixed.values, metric.chart, metric.dim
    # [..., i, k, j, l] = Gamma^i_{kp} Gamma^p_{jl}, and Gamma^i_{kp} = Gamma^i_{pk}
    s = gamma.reshape(chart.shape + (n * n, n)) @ gamma.reshape(chart.shape + (n, n * n))
    s = np.swapaxes(s.reshape(chart.shape + (n,) * 4), -3, -2)
    # [..., a, i, j, l] = d_a Gamma^i_{jl}, added as [..., i, j, a, l]
    s += np.moveaxis(gc.stacked_partials(conn.mixed), -4, -2)
    r = np.swapaxes(s, -1, -2) - s
    del s
    # [..., j, i, kl] = g^{is} R^j_{s kl}, raised without copying a transposed view
    contra = metric.contra.values[..., None, :, :] @ r.reshape(chart.shape + (n, n, n * n))
    mixed = TensorField(chart, "uddd", r)
    del r
    contra = np.swapaxes(contra.reshape(mixed.values.shape), -4, -3)
    return CurvatureField(mixed, TensorField(chart, "uudd", contra))


def flatness_residual(metric: MetricField) -> float:
    """Max |R^i_{jkl}| over the interior sub-box; zero for a flat metric."""
    return gc.interior_max(curvature(metric).mixed.values, metric.chart)


def constant_curvature_residual(metric: MetricField, k_value: float) -> float:
    """Max deviation of R^{ij}_{kl} from K (d^i_k d^j_l - d^i_l d^j_k)."""
    return gc.interior_max(curvature(metric).deviation(k_value), metric.chart)
