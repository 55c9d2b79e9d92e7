"""Diagonal-metric formulation: Lamé coefficients and rotation coefficients.

A diagonal contravariant metric with signature signs ``eps[i]`` and
``eps[i] * g^{ii} > 0`` is encoded by coefficients ``H_i = (eps[i]
g^{ii})^{-1/2}`` and rotation coefficients ``beta[i,k] = (1/H_i) d_i H_k``
(``i != k``).  Flatness of the metric is equivalent to the first-order system

* off-diagonal family: ``d_k beta_{ij} = beta_{ik} beta_{kj}`` for distinct
  ``i, j, k`` (vacuous for N=2);
* diagonal family: ``eps^i d_i beta_{ij} + eps^j d_j beta_{ji}
  + sum_{s != i,j} eps^s beta_{si} beta_{sj} = 0``.

The sign weights are the real-arithmetic form of the classical equations:
for a mixed-signature metric the textbook (all-positive) form acquires the
factors ``eps^s`` once imaginary coefficients are traded for signs.

A *reduction profile* is a tuple of nonvanishing single-variable functions
``f^i(u^i)``; the reduction residual is the same diagonal family with
``beta_{ij}`` replaced by ``sqrt(f^i) beta_{ij}`` inside the derivative and
``eps^s`` by ``eps^s f^s`` in the sum.  Passing it together with the Lamé
residuals certifies that ``diag(eps f / H^2)`` and ``diag(eps / H^2)`` form a
compatible flat pair.  :func:`diagonal_metric` is the package's one builder
of ``diag(eps w / h^2)``; a metric read as diagonal passes
:func:`geometry_core.require_diagonal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import grid_calculus as gc
from .errors import NonFiniteProfile, ResidualsTooLarge, SignChange, SignMismatch
from .geometry_core import MetricField, build_metric, require_diagonal
from .grid_calculus import GridChart
from .pencil_checker import DEFAULT_LAMBDA_SAMPLES, PencilSpec

PROFILE_FLOOR = 1e-10


@dataclass(frozen=True)
class LameFrame:
    """Coefficients ``H_i``, rotation coefficients ``beta_{ik}``, signs."""

    chart: GridChart
    h: np.ndarray  # (N,) + grid, strictly positive
    beta: np.ndarray  # (N, N) + grid, zero diagonal
    eps: tuple[int, ...]

    def __post_init__(self):
        n = self.chart.dim
        h = np.asarray(self.h, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if h.shape != (n,) + self.chart.shape:
            raise ValueError("h must have shape (N,) + grid")
        if beta.shape != (n, n) + self.chart.shape:
            raise ValueError("beta must have shape (N, N) + grid")
        gc.check_finite(h, self.chart)
        gc.check_finite(beta, self.chart)
        if np.min(h) <= 0:
            raise ValueError("Lame coefficients must be strictly positive")
        if len(self.eps) != n or any(e not in (-1, 1) for e in self.eps):
            raise ValueError("eps must be a tuple of +1/-1 per axis")
        idx = np.arange(n)
        beta = beta.copy()
        beta[idx, idx] = 0.0
        beta.setflags(write=False)
        h = h.copy()
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "eps", tuple(int(e) for e in self.eps))

    @property
    def dim(self) -> int:
        return self.chart.dim


@dataclass(frozen=True)
class ReductionProfile:
    """Single-variable functions ``f^i``, of one sign on every range they are
    evaluated on: the axis ranges of a chart, or the ``t``-ranges a dressing
    kernel reaches."""

    funcs: tuple[Callable, ...]

    def __post_init__(self):
        object.__setattr__(self, "funcs", tuple(self.funcs))

    def at(self, i: int, t) -> np.ndarray:
        """``f^i(t)`` at the shape of ``t``; a scalar result is broadcast."""
        t = np.asarray(t, dtype=float)
        return gc.as_grid(self.funcs[i](t), t.shape)

    def root(self, i: int, t) -> np.ndarray:
        """``sqrt|f^i(t)|``, the scale factor of the reduction."""
        return np.sqrt(np.abs(self.at(i, t)))

    def signs(self, ts: Sequence) -> tuple[np.ndarray, ...]:
        """The sign of ``f^i`` on each range along the last axis of ``ts[i]``
        (leading axes index the ranges).  :class:`NonFiniteProfile` if a value
        is not finite; :class:`SignChange` if ``f^i`` flips on a range or falls
        there under :data:`PROFILE_FLOOR` times ``max(1, max |f^i|)``."""
        if len(ts) != len(self.funcs):
            raise ValueError("profile length must match the number of ranges")
        signs = []
        for i, t in enumerate(ts):
            t = np.asarray(t, dtype=float)
            vals = self.at(i, t)
            finite = np.isfinite(vals)
            if not finite.all():
                raise NonFiniteProfile(i, t.flat[np.argmin(finite)])
            floor = PROFILE_FLOOR * np.maximum(1.0, np.max(np.abs(vals), axis=-1))
            lows, highs = np.min(vals, axis=-1), np.max(vals, axis=-1)
            bad = (np.min(np.abs(vals), axis=-1) < floor) | ((lows < 0) & (0 < highs))
            if bad.any():
                k = np.argmax(bad)
                raise SignChange(i, t.min(axis=-1).flat[k], t.max(axis=-1).flat[k])
            signs.append(np.where(vals[..., 0] > 0, 1, -1))
        return tuple(signs)

    def signs_on(self, chart: GridChart) -> tuple[int, ...]:
        """The constant sign of each ``f^i`` over its axis (see :meth:`signs`)."""
        axes = [chart.axis_coordinates(i) for i in range(chart.dim)]
        return tuple(int(s) for s in self.signs(axes))

    def values_on(self, chart: GridChart) -> np.ndarray:
        """Grid array ``[i, ...] = f^i(u^i)`` (broadcast along other axes)."""
        axes = (self.at(i, chart.axis_coordinates(i)) for i in range(chart.dim))
        return np.stack(np.meshgrid(*axes, indexing="ij"))


def constant_profile(values: Sequence[float]) -> ReductionProfile:
    return ReductionProfile(tuple((lambda t, a=float(a): a) for a in values))


def identity_profile(n: int) -> ReductionProfile:
    return ReductionProfile(tuple((lambda t: t) for _ in range(n)))


# ---------------------------------------------------------------------------


def frame_from_metric(metric: MetricField, eps: Sequence[int] | None = None) -> LameFrame:
    """Extract the frame of a diagonal metric.

    ``eps`` defaults to the sign of each diagonal entry at the first node;
    one not of N entries, each +1 or -1, raises ``ValueError``.  A sign
    violation anywhere (``eps^i g^{ii} <= 0``) raises :class:`SignMismatch`,
    off-diagonal content raises :class:`NotDiagonal`
    (:func:`geometry_core.require_diagonal`).
    """
    require_diagonal(metric)
    chart = metric.chart
    n = chart.dim
    idx = np.arange(n)
    diag = metric.contra.values[idx, idx]
    if eps is None:
        eps = tuple(1 if diag[(i,) + (0,) * n] > 0 else -1 for i in range(n))
    if len(eps) != n or any(e not in (-1, 1) for e in eps):
        raise ValueError(f"eps must be {n} signs, each +1 or -1, got {tuple(eps)!r}")
    eps = tuple(int(e) for e in eps)
    signed = diag * np.asarray(eps, dtype=float).reshape((n,) + (1,) * n)
    if np.min(signed) <= 0:
        axis, *node = np.unravel_index(int(np.argmin(signed)), signed.shape)
        raise SignMismatch(tuple(node), axis, float(diag[(axis, *node)]), chart.node(node))

    h = signed ** -0.5
    dh = gc.stacked_partials(h, chart)  # [i, k, ...] = d_i H_k
    beta = dh / h[:, None]  # divide by H_i along axis i
    beta[idx, idx] = 0.0
    return LameFrame(chart, h, beta, eps)


@dataclass
class LameResidualReport:
    off_diagonal: dict[tuple[int, int, int], float]
    diagonal: dict[tuple[int, int], float]

    @property
    def r_offdiag(self) -> float:
        return gc.worst(self.off_diagonal.values())

    @property
    def r_diag(self) -> float:
        return gc.worst(self.diagonal.values())

    @property
    def max_residual(self) -> float:
        return gc.worst((self.r_offdiag, self.r_diag))


def lame_residuals(frame: LameFrame) -> LameResidualReport:
    """Residuals of both equation families, per index tuple and overall."""
    chart = frame.chart
    n = frame.dim
    if n < 2:
        raise ValueError("need at least two coordinates")
    beta = frame.beta
    dbeta = gc.stacked_partials(beta, chart)  # [a, i, j, ...] = d_a beta_{ij}

    off_diagonal: dict[tuple[int, int, int], float] = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                dev = dbeta[k, i, j] - beta[i, k] * beta[k, j]
                off_diagonal[(i, j, k)] = gc.interior_max(dev, chart)

    unit = np.ones(n)
    diagonal = _diagonal_family(frame, dbeta, (1,) * n, unit, unit)
    return LameResidualReport(off_diagonal, diagonal)


@dataclass
class ReductionReport:
    pairs: dict[tuple[int, int], float]

    @property
    def residual(self) -> float:
        return gc.worst(self.pairs.values())


def reduction_residual(frame: LameFrame, profile: ReductionProfile) -> ReductionReport:
    """Residual of the profile-weighted diagonal family.

    Per ordered pair ``i != j``::

        eps^i sgn(f^i) sqrt|f^i| d_i (sqrt|f^i| beta_{ij})
        + eps^j sgn(f^j) sqrt|f^j| d_j (sqrt|f^j| beta_{ji})
        + sum_{s != i,j} eps^s f^s beta_{si} beta_{sj}

    With ``f^i == 1`` this is exactly the plain diagonal family.  Square
    roots of negative profiles are taken through ``|f|`` with the sign kept
    as a separate factor, so everything stays real for pseudo-Riemannian
    frames.
    """
    chart = frame.chart
    signs = profile.signs_on(chart)
    fvals = profile.values_on(chart)  # [s, ...]
    gamma = np.sqrt(np.abs(fvals))  # [i, ...]
    weighted = gamma[:, None] * frame.beta  # [i, j, ...] = sqrt|f^i| beta_{ij}
    dweighted = gc.stacked_partials(weighted, chart)  # [a, i, j, ...]
    return ReductionReport(_diagonal_family(frame, dweighted, signs, gamma, fvals))


def _diagonal_family(frame, dweighted, signs, gamma, fvals) -> dict:
    """Interior maxima of the weighted diagonal family per ordered pair, from
    ``dweighted[a, i, j] = d_a (gamma_i beta_{ij})``; ``gamma[i]`` and
    ``fvals[s]`` broadcast against the grid (unit weights give the plain
    family)."""
    chart, n, beta = frame.chart, frame.dim, frame.beta
    eps = np.asarray(frame.eps, dtype=float)
    pairs: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dev = (
                eps[i] * signs[i] * gamma[i] * dweighted[i, i, j]
                + eps[j] * signs[j] * gamma[j] * dweighted[j, j, i]
            )
            for s in range(n):
                if s in (i, j):
                    continue
                dev = dev + eps[s] * fvals[s] * beta[s, i] * beta[s, j]
            pairs[(i, j)] = gc.interior_max(dev, chart)
    return pairs


def tilde_frame(frame: LameFrame, profile: ReductionProfile) -> LameFrame:
    """The frame of the profile-scaled partner metric ``diag(eps f / H^2)``.

    ``H~_i = H_i / sqrt|f^i|``, ``beta~_{ik} = (sqrt|f^i|/sqrt|f^k|)
    beta_{ik}``, ``eps~^i = eps^i sgn(f^i)``.
    """
    chart = frame.chart
    signs = profile.signs_on(chart)
    gamma = np.sqrt(np.abs(profile.values_on(chart)))
    h_t = frame.h / gamma
    beta_t = (gamma[:, None] / gamma[None, :]) * frame.beta
    eps_t = tuple(int(frame.eps[i] * signs[i]) for i in range(frame.dim))
    return LameFrame(chart, h_t, beta_t, eps_t)


def diagonal_metric(chart: GridChart, eps: Sequence[int], weights, h: np.ndarray) -> MetricField:
    """The diagonal metric ``g^{ii} = eps^i w^i / h_i^2``: ``weights`` and
    ``h`` are grid arrays ``[i, ...]`` (``weights`` may be a scalar)."""
    n = chart.dim
    vals = np.zeros((n, n) + chart.shape)
    idx = np.arange(n)
    vals[idx, idx] = np.asarray(eps, dtype=float).reshape((n,) + (1,) * n) * weights / h**2
    return build_metric(vals, chart)


def frame_metric(frame: LameFrame) -> MetricField:
    """The diagonal metric ``g^{ii} = eps^i / H_i^2`` of a frame."""
    return diagonal_metric(frame.chart, frame.eps, 1.0, frame.h)


def metric_pair_from_frame(
    frame: LameFrame,
    profile: ReductionProfile,
    tol: float = 1e-6,
    lambda_samples: Sequence[tuple[float, float]] = DEFAULT_LAMBDA_SAMPLES,
) -> PencilSpec:
    """Assemble the pair ``(diag(eps f / H^2), diag(eps / H^2))``.

    The three residual families are evaluated first; any of them above
    ``tol`` raises :class:`ResidualsTooLarge` — the pair would not be a
    compatible flat pair, so refusing is more honest than returning it.
    Returns a ``pencil_checker.PencilSpec`` ready for the full geometric
    cross-check.
    """
    lame = lame_residuals(frame)
    red = reduction_residual(frame, profile)
    worst = gc.worst((lame.max_residual, red.residual))
    if not worst <= tol:
        raise ResidualsTooLarge(worst, tol)

    g2 = frame_metric(frame)
    g1 = frame_metric(tilde_frame(frame, profile))
    return PencilSpec(g1, g2, tuple(lambda_samples))
