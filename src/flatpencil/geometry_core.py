"""Metrics, Levi-Civita connections and curvature on gridded charts.

Conventions:

* the contravariant metric ``g^{ij}`` is the primary object; the covariant
  ``g_{ij}`` is its pointwise inverse, the transposed cofactors over the
  determinant,
* Christoffel symbols of the second kind::

      Gamma^i_{jk} = 1/2 g^{is} (d_j g_{sk} + d_k g_{js} - d_s g_{jk})

* the contravariant (raised) connection ``Gamma^{ij}_k = g^{is} Gamma^j_{sk}``,
* curvature::

      R^i_{jkl} = -d_k Gamma^i_{jl} + d_l Gamma^i_{jk}
                  - Gamma^i_{pk} Gamma^p_{jl} + Gamma^i_{pl} Gamma^p_{jk}

  with the raised form ``R^{ij}_{kl} = g^{is} R^j_{skl}``.  It is stored by
  its planes ``planes[i, j, p] = R^i_{jkl}``, ``p = (k, l)`` running over
  ``itertools.combinations(range(n), 2)``, as ``R^i_{jlk} = -R^i_{jkl}`` and
  ``R^i_{jkk} = 0``; each plane is the antisymmetrisation ``S^i_{jlk} -
  S^i_{jkl}`` of ``S^i_{jkl} = d_k Gamma^i_{jl} + Gamma^i_{pk} Gamma^p_{jl}``.
  The raised placement, the deviation from constant curvature and the
  pointwise maximum are read off the planes alone.

Every field is component-major, ``values[tensor ..., grid ...]``, the one
layout of :mod:`grid_calculus`, so every numpy call runs over whole contiguous
grid arrays; each contraction is one ``einsum`` that sums in the order of the
summed index.  The connection differentiates the n(n+1)/2 independent
``g_{jk}`` and forms ``Gamma^i_{jk}`` for ``j <= k``; ``S^i_{jkl}`` is formed
for ``k != l`` only, one plane at a time.  The fields own the arrays the
kernels compute, read-only, without a copy or a finiteness scan.

A metric has constant curvature K when ``R^{ij}_{kl} = K (delta^i_k delta^j_l
- delta^i_l delta^j_k)``; flat means K = 0.  Residual reducers quote maxima
over an interior sub-box because one-sided boundary stencils carry larger
error constants.

The raised placements ``Gamma^{ij}_k`` and the planes of ``R^{ij}_{kl}`` are
formed from the mixed ones and the metric on first read, so a flatness check,
which reads only ``R^i_{jkl}``, forms neither.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import grid_calculus as gc
from .errors import DegenerateMetric, NotDiagonal
from .grid_calculus import GridChart, TensorField

#: nondegeneracy floor: pointwise, |det g| is at least this multiple of
#: max_ij |g^{ij}|^n, so the gate does not change under g -> c g
DET_FLOOR_SCALE = 1e-8

#: |g^{is} g_{sj} - delta^i_j| that every inverse within KAPPA_CAP keeps
INVERSE_TOL = 1e-10

#: cap on ||a||_inf ||a^-1||_inf of the row-scaled metric a, by n (n > 3 reads
#: 3): from n = 3 the cofactor inverse loses cond^2 eps, not cond eps
KAPPA_CAP = {1: 1e5, 2: 1e5, 3: 1e3}

#: off-diagonal content a diagonal metric may carry, relative to its scale
DIAG_TOL = 1e-8


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
    """Levi-Civita connection of ``metric``; the raised placement is formed
    on first read."""

    mixed: TensorField  # Gamma^i_{jk}, symmetric in (j, k)
    metric: MetricField

    @property
    def chart(self) -> GridChart:
        return self.mixed.chart

    @functools.cached_property
    def contra(self) -> TensorField:
        """``Gamma^{ij}_k = g^{is} Gamma^j_{sk}``."""
        raised = np.einsum("is...,jsk...->ijk...", self.metric.contra.values, self.mixed.values)
        return TensorField.owning(self.chart, "uud", raised)


@dataclass(frozen=True)
class CurvatureField:
    """Riemann curvature of ``metric`` by its planes; the raised planes are
    formed on first read."""

    planes: np.ndarray  # planes[i, j, p] = R^i_{jkl}, p = (k, l) with k < l
    metric: MetricField

    @property
    def chart(self) -> GridChart:
        return self.metric.chart

    @functools.cached_property
    def contra(self) -> np.ndarray:
        """The planes of ``R^{ij}_{kl} = g^{is} R^j_{skl}``, read-only."""
        raised = np.einsum("is...,jsp...->ijp...", self.metric.contra.values, self.planes)
        raised.setflags(write=False)
        return raised

    def deviation(self, k_value: float) -> np.ndarray:
        """The planes of ``R^{ij}_{kl} - K (d^i_k d^j_l - d^i_l d^j_k)`` at every node."""
        n = self.chart.dim
        eye = np.eye(n)
        dk, dl = (eye[:, axes] for axes in np.triu_indices(n, 1))
        unit = dk[:, None] * dl[None] - dl[:, None] * dk[None]
        return self.contra - k_value * unit.reshape(unit.shape + (1,) * n)

    def pointwise_max(self) -> np.ndarray:
        """``max_{ijkl} |R^i_{jkl}|`` at every node, read off the planes: the
        other components are their negations or 0."""
        return np.abs(self.planes).max(axis=(0, 1, 2), initial=0.0)


def build_metric(
    source: Callable[[list[np.ndarray]], object] | np.ndarray,
    chart: GridChart,
) -> MetricField:
    """Build a metric from a contravariant closure or a dense sample array.

    A closure is evaluated once on the chart's coordinate arrays by
    :func:`grid_calculus.sample` (``lambda u: [[1.0, 0.0], [0.0, u[0]]]``);
    an array has shape ``(dim, dim) + chart.shape``.  Either way the values
    pass the same gates: non-finite entries raise :class:`NonFiniteSample`,
    a relative asymmetry above ``1e-8`` raises ``ValueError``, and the
    symmetric part is kept.

    The determinant is the first row dotted with its cofactors, one Laplace
    expansion for every n and no per-node LAPACK call, taken with each row
    of ``g`` divided by its largest entry.  It is checked pointwise against
    ``DET_FLOOR_SCALE * max_ij |g^{ij}|^n``, a floor of its own degree, so
    rescaling ``g`` by a constant does not change the verdict; below it,
    :class:`DegenerateMetric` names the first node in C order, as does a
    node where ``g`` vanishes.  Only past the floor is the covariant metric
    formed, as the transposed cofactors over the determinant with the row
    scales undone, and kept where ``kappa = ||a||_inf ||a^-1||_inf`` of the
    row-scaled ``a = g / rows`` (1 if ``g`` is diagonal) is at most ``KAPPA_CAP[n]``;
    within the cap ``|g g^-1 - I| <= INVERSE_TOL`` under any summation order.
    """
    sym = ((0, 1),)
    if callable(source):
        contra = gc.sample(source, chart, "uu", symmetries=sym)
    else:
        # symmetrized scans the values once and averages them into a fresh array
        vals = np.ascontiguousarray(source, dtype=float)
        contra = TensorField.owning(chart, "uu", gc.symmetrized(vals, chart, sym))

    # cofactors of g with each row divided by its largest entry: a diagonal
    # g^{ij} then inverts to 1/g^{ii} correctly rounded, with no rounding of
    # the other entries in it for the derivatives of g_{ij} to pick up; a
    # zero row keeps the scale 1, and its zero determinant fails the floor
    g, n = contra.values, chart.dim
    mags = np.abs(np.swapaxes(g, 0, 1))  # mags[j, i] = |g^{ij}|; its buffer then holds a
    rows = np.maximum.reduce(mags)  # rows[i] = max_j |g^{ij}|, not a view of mags at n = 1
    scale = np.where(rows > 0.0, rows, 1.0)
    norm = functools.reduce(np.maximum, map(np.divide, np.add.reduce(mags), scale))  # ||a||_inf
    det_rows, cof = _cofactors(np.divide(g, scale[:, None], out=np.swapaxes(mags, 0, 1)))
    det = np.abs(det_rows * np.prod(rows, axis=0))
    floor = DET_FLOOR_SCALE * np.maximum.reduce(rows) ** n
    ok = (det >= floor) & (det > 0.0)  # a node where g vanishes has det = floor = 0
    if not ok.all():
        bad = np.unravel_index(int(np.argmin(ok)), chart.shape)
        reason = f"|det g| = {det[bad]:.3e} < floor {floor[bad]:.3e}"
        raise DegenerateMetric(bad, reason, chart.node(bad))

    cov = np.divide(np.swapaxes(cof, 0, 1), det_rows, out=np.swapaxes(mags, 0, 1))
    cov /= rows[None]
    cov = np.add(cov, np.swapaxes(cov, 0, 1), out=cof)  # symmetrized into the spent cofactors
    cov *= 0.5
    # ||a^-1||_inf = max_i sum_j |g_{ij}| rows[j], one row of |g_{ij}| at a time
    kappa = norm * functools.reduce(
        np.maximum, (np.einsum("j...,j...->...", np.abs(row), rows) for row in cov))
    if not np.max(kappa) <= (cap := KAPPA_CAP[min(n, 3)]):  # NaN fails
        bad = np.unravel_index(int(np.argmax(kappa)), chart.shape)
        reason = f"kappa = {kappa[bad]:.3e} > KAPPA_CAP {cap:.3e}"
        raise DegenerateMetric(bad, reason, chart.node(bad))

    return MetricField(contra, TensorField.owning(chart, "dd", cov))


def require_diagonal(*metrics: MetricField) -> float:
    """The largest off-diagonal ``|g^{ij}|`` of ``metrics``; :class:`NotDiagonal`
    if that of any one exceeds :data:`DIAG_TOL` times its own scale."""
    mask = ~np.eye(metrics[0].dim, dtype=bool)
    offs = [float(np.max(np.abs(m.contra.values[mask]), initial=0.0)) for m in metrics]
    for off, tol in zip(offs, (DIAG_TOL * m.scale() for m in metrics)):
        if not off <= tol:
            raise NotDiagonal(off, tol)
    return max(offs)


def _minor(mats: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> np.ndarray:
    """Determinant of ``mats[rows, cols]``, expanded along its first row."""
    if len(rows) <= 1:
        return mats[rows[0], cols[0]] if rows else np.ones(mats.shape[2:])
    total = 0.0
    for k, c in enumerate(cols):
        term = mats[rows[0], c] * _minor(mats, rows[1:], cols[:k] + cols[k + 1:])
        total = total - term if k % 2 else total + term
    return total


def _cofactors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(det, cof)`` of a stack of square matrices ``mats[i, j, grid ...]``:
    ``cof[i, j]`` is the signed minor of entry ``(i, j)`` and ``det`` is the
    first row dotted with its cofactors, so ``mats^-1 = cof^T / det``."""
    idx = tuple(range(mats.shape[0]))
    cof = np.empty_like(mats)
    for i in idx:
        for j in idx:
            minor = _minor(mats, idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:])
            cof[i, j] = -minor if (i + j) % 2 else minor
    return sum(mats[0, j] * cof[0, j] for j in idx), cof


@functools.cache
def _pairs(n: int) -> tuple:
    """The pairs ``p = (j <= k)`` as arrays ``j``, ``k``, and the places ``(a, p)``
    of ``d_j g_{sk}`` and ``d_k g_{js}`` in the stack ``d_a g_p`` at each ``[s, p]``."""
    j, k = np.triu_indices(n)
    pair = np.empty((n, n), dtype=int)
    pair[j, k] = pair[k, j] = np.arange(len(j))
    s = np.arange(n)[:, None]
    return j, k, (j, pair[s, k]), (k, pair[j, s])


def connection(metric: MetricField) -> ConnectionField:
    """Levi-Civita connection of a metric via finite differences."""
    chart, n = metric.chart, metric.dim
    j, k, first, second = _pairs(n)
    # dg[a, p] = d_a g_p, the n(n+1)/2 independent components only
    dg = gc.stacked_partials(metric.cov.values[j, k], chart)
    # t[s, p] = d_j g_{sk} + d_k g_{js} - d_s g_{jk} and Gamma^i_p for p = (j, k)
    t = dg[first]
    t += dg[second]
    t -= dg
    half = np.einsum("is...,sp...->ip...", metric.contra.values, t, out=dg)
    half *= 0.5
    mixed = np.empty((n,) * 3 + chart.shape)
    mixed[:, j, k] = mixed[:, k, j] = half
    return ConnectionField(TensorField.owning(chart, "udd", mixed), metric)


def curvature(metric: MetricField, conn: ConnectionField | None = None) -> CurvatureField:
    """Riemann curvature of a metric (connection recomputed unless given)."""
    if conn is None:
        conn = connection(metric)
    chart, n = metric.chart, metric.dim
    gamma = conn.mixed.values
    # plane p = (k, l) is S^i_{jlk} - S^i_{jkl}, each S^i_{jkl} = Gamma^i_{kp}
    # Gamma^p_{jl} + d_k Gamma^i_{jl} added in that order; one scratch block,
    # reused for every plane, holds Gamma^i_{jl} copied, its derivative and S
    k_axes, l_axes = np.triu_indices(n, 1)
    planes = np.empty((n, n, len(k_axes)) + chart.shape)
    copy, deriv, s_kl = np.empty((3, n, n) + chart.shape)
    for p, (k, l) in enumerate(zip(k_axes, l_axes)):
        for a, b, s in ((l, k, planes[:, :, p]), (k, l, s_kl)):
            np.copyto(copy, gamma[:, :, b])
            np.einsum("ip...,pj...->ij...", gamma[:, a], copy, out=s)
            s += gc.differentiate_array(copy, chart, a, out=deriv)
        planes[:, :, p] -= s_kl
    planes.setflags(write=False)
    return CurvatureField(planes, metric)


def flatness_residual(metric: MetricField) -> float:
    """Max |R^i_{jkl}| over the interior sub-box; zero for a flat metric."""
    return gc.interior_max(curvature(metric).pointwise_max(), metric.chart)


def constant_curvature_residual(metric: MetricField, k_value: float) -> float:
    """Max deviation of R^{ij}_{kl} from K (d^i_k d^j_l - d^i_l d^j_k)."""
    return gc.interior_max(curvature(metric).deviation(k_value), metric.chart)
