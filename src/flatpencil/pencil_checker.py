"""Compatibility checks for pairs of metrics forming a pencil.

A pair of contravariant metrics ``g1, g2`` on a shared chart is

* an *almost compatible pair* when for every combination ``g = l1 g1 + l2 g2``
  the raised connection combines the same way,
  ``Gamma^{ij}_k(g) = l1 Gamma^{ij}_{1,k} + l2 Gamma^{ij}_{2,k}``;
* a *compatible pair* when additionally the raised curvature combines
  linearly, ``R^{ij}_{kl}(g) = l1 R^{ij}_{1,kl} + l2 R^{ij}_{2,kl}``;
* a *flat pencil* when every sampled combination is flat (both endpoints
  included), connections combining linearly;
* a *constant-curvature pencil* when the combination has constant curvature
  ``l1 K1 + l2 K2``.

All definitions quantify over arbitrary combinations; the checker samples a
finite set of ``(l1, l2)`` pairs that spans the quadratic dependence of the
curvature on the combination, so linearity on the samples is linearity for
all combinations up to the discretisation error.

The *nonsingularity* of a pair refers to the roots of ``det(g1 - r g2) = 0``,
i.e. the eigenvalues of the affinor ``v^i_j = g1^{is} g_{2,sj}``; the pair is
nonsingular on the box when the pointwise eigenvalues stay pairwise distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import grid_calculus as gc
from .errors import (
    DegenerateCombination,
    DegenerateMetric,
    EigensolveFailure,
    NotFlatCoordinates,
)
from .geometry_core import (
    ConnectionField, MetricField, build_metric, connection, curvature, require_diagonal,
)
from .grid_calculus import GridChart, TensorField

DEFAULT_LAMBDA_SAMPLES: tuple[tuple[float, float], ...] = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0, 1.0),
    (1.0, -1.0),
    (2.0, 3.0),
)

#: relative gates: eigenvalue gap (to the spectrum scale) and flat
#: coordinates (to the metric scale, which the raised connection scales with)
_GAP_REL_TOL = 1e-6
_FLAT_TOL = 1e-8


@dataclass(frozen=True)
class PencilSpec:
    """Two metrics on one chart plus the combination samples to check.

    Construction checks only that the charts coincide.  Only the
    compatibility checks form the sampled combinations, each in its turn.
    """

    g1: MetricField
    g2: MetricField
    lambda_samples: tuple[tuple[float, float], ...] = DEFAULT_LAMBDA_SAMPLES

    def __post_init__(self):
        if self.g1.chart != self.g2.chart:
            raise ValueError("pencil metrics must share one chart")
        object.__setattr__(
            self,
            "lambda_samples",
            tuple((float(l1), float(l2)) for l1, l2 in self.lambda_samples),
        )

    @property
    def chart(self) -> GridChart:
        return self.g1.chart


def combine(pencil: PencilSpec, lam1: float, lam2: float) -> MetricField:
    """The combination ``lam1 g1 + lam2 g2`` as a full metric field."""
    vals = lam1 * pencil.g1.contra.values + lam2 * pencil.g2.contra.values
    try:
        return build_metric(vals, pencil.chart)
    except DegenerateMetric as exc:
        raise DegenerateCombination(lam1, lam2, exc) from exc


# ---------------------------------------------------------------------------
# reports


@dataclass
class CompatibilityReport:
    """Residuals of one pass over a pencil; ``mode`` is ``None`` for the
    almost-compatibility check, which measures connections only."""

    mode: str | None
    connection_by_sample: dict[tuple[float, float], float]
    curvature_by_sample: dict[tuple[float, float], float]
    endpoint_residuals: dict[str, float]
    #: pointwise max |R^i_{jkl}| of g1 and g2, kept for per-node dumps
    endpoint_curvature: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    #: the connections of g1 and g2, for callers that need them again
    endpoint_connection: dict[str, ConnectionField] = field(default_factory=dict, repr=False)

    @property
    def max_connection(self) -> float:
        return gc.worst(self.connection_by_sample.values())

    @property
    def max_curvature(self) -> float:
        return gc.worst(
            [*self.curvature_by_sample.values(), *self.endpoint_residuals.values()]
        )

    @property
    def max_residual(self) -> float:
        return gc.worst((self.max_connection, self.max_curvature))


@dataclass
class SpectrumReport:
    min_gap: float
    threshold: float
    has_complex_pairs: bool
    eigen_scale: float


@dataclass
class DiagonalFormReport:
    f_values: np.ndarray  # [i, ...] pointwise ratio g1^{ii}/g2^{ii}
    residual: float  # max |d f^i / d u^j|, j != i
    off_diagonal_max: float


# ---------------------------------------------------------------------------
# operations


def _one_pass(pencil, mode, k1, k2):
    """Residuals of g1, g2 and each combination, built in its turn.

    Each metric gets one connection and, unless ``mode`` is ``None``, one
    curvature, reduced at once and dropped: only the connections of g1 and
    g2, and in general mode their raised curvatures, outlive their turn.
    Returns connection and curvature residuals by sample, endpoint
    residuals, the pointwise curvature maxima (in flat mode an endpoint's
    residual reduces its own) and the connections of g1 and g2.
    """

    def reduce(values):
        return gc.interior_max(values, pencil.chart)

    def curvature_residual(curv, l1, l2):
        if mode == "flat":
            return reduce(curv.pointwise_max())
        if mode == "constant_curvature":
            return reduce(curv.deviation(l1 * k1 + l2 * k2))
        return reduce(curv.contra - l1 * r[0] - l2 * r[1])

    r, endpoint, fields, conns, conn_by, curv_by = [], {}, {}, {}, {}, {}
    # an endpoint sample's residuals, known from the endpoint pass: its
    # connection and general-mode curvature differ from themselves by 0
    own = {}
    for name, metric, lam in (("g1", pencil.g1, (1.0, 0.0)), ("g2", pencil.g2, (0.0, 1.0))):
        conns[name] = conn = connection(metric)
        own[lam] = 0.0
        if mode is not None:
            curv = curvature(metric, conn)
            fields[name] = curv.pointwise_max()
            if mode == "general":
                r.append(curv.contra)
            else:
                key = f"{name}_{'flatness' if mode == 'flat' else mode}"
                endpoint[key] = own[lam] = (reduce(fields[name]) if mode == "flat"
                                            else curvature_residual(curv, *lam))
            del curv
    c = [conns[name].contra.values for name in ("g1", "g2")]
    for l1, l2 in pencil.lambda_samples:
        if (l1, l2) in own:
            conn_by[(l1, l2)] = 0.0
            if mode is not None:
                curv_by[(l1, l2)] = own[(l1, l2)]
            continue
        member = combine(pencil, l1, l2)
        conn = connection(member)
        conn_by[(l1, l2)] = reduce(conn.contra.values - l1 * c[0] - l2 * c[1])
        if mode is not None:
            curv_by[(l1, l2)] = curvature_residual(curvature(member, conn), l1, l2)
        del member, conn
    return conn_by, curv_by, endpoint, fields, conns


def check_almost_compatible(pencil: PencilSpec) -> CompatibilityReport:
    """Connection-linearity residual for every sampled combination."""
    return CompatibilityReport(None, *_one_pass(pencil, None, 0.0, 0.0))


def check_compatible(
    pencil: PencilSpec,
    mode: str = "flat",
    k1: float = 0.0,
    k2: float = 0.0,
) -> CompatibilityReport:
    """Full compatibility check in one of three modes.

    ``"flat"``
        flatness residual of each endpoint and each sampled combination;
    ``"constant_curvature"``
        deviation of each combination from constant curvature
        ``l1 k1 + l2 k2`` (endpoints against ``k1`` and ``k2``);
    ``"general"``
        curvature-linearity residual
        ``R(comb) - l1 R(g1) - l2 R(g2)`` in the raised placement.

    Connection linearity is always included.  Every metric of the pencil
    gets one connection and one curvature, whatever the mode.  The first
    degenerate combination raises :class:`DegenerateCombination`.
    """
    if mode not in ("flat", "constant_curvature", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    return CompatibilityReport(mode, *_one_pass(pencil, mode, k1, k2))


@dataclass(frozen=True)
class AffinorField:
    """The recursion affinor ``v^i_j = g1^{is} g_{2,sj}`` with its spectrum."""

    field: TensorField  # variance "ud"
    eigenvalues: np.ndarray  # [i, ...], complex

    @property
    def chart(self) -> GridChart:
        return self.field.chart


def affinor(pencil: PencilSpec) -> AffinorField:
    """The affinor and its eigenvalues at every node, in ascending order of
    the real part, formed by ``np.matmul`` and ``eigvals`` over grid-first
    views; the field is kept as a component-major copy, for ``einsum``."""
    g1, g2 = (np.moveaxis(v, (0, 1), (-2, -1)) for v in (pencil.g1.contra.values,
                                                        pencil.g2.cov.values))
    vals = g1 @ g2
    try:
        eig = np.linalg.eigvals(vals)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolveFailure(str(exc)) from exc
    order = np.argsort(eig.real + 1e-9 * eig.imag, axis=-1)
    eig = np.moveaxis(np.take_along_axis(eig, order, axis=-1), -1, 0)
    field = TensorField.owning(pencil.chart, "ud", np.moveaxis(vals, (-2, -1), (0, 1)).copy())
    return AffinorField(field, eig)


def nonsingularity(aff: AffinorField) -> SpectrumReport:
    """Minimum pairwise eigenvalue gap of the pencil's affinor over the box,
    with the threshold ``1e-6`` times the spectrum scale it must exceed."""
    eig = aff.eigenvalues
    n = eig.shape[0]
    scale = float(np.max(np.abs(eig))) or 1.0
    gap = np.inf
    for a in range(n):
        for b in range(a + 1, n):
            gap = min(gap, float(np.min(np.abs(eig[a] - eig[b]))))
    if n == 1:
        gap = np.inf
    has_complex = bool(np.max(np.abs(eig.imag)) > 1e-9 * scale)
    return SpectrumReport(gap, _GAP_REL_TOL * scale, has_complex, scale)


def nijenhuis(aff: AffinorField) -> float:
    """Max interior component of the Nijenhuis tensor of the affinor.

    ``N^k_{ij} = v^s_i d_s v^k_j - v^s_j d_s v^k_i
    + v^k_s d_j v^s_i - v^k_s d_i v^s_j``
    """
    v = aff.field.values
    dv = gc.stacked_partials(aff.field)  # [a, k, j, ...] = d_a v^k_j
    t1 = np.einsum("si...,skj...->kij...", v, dv)
    t2 = np.einsum("sj...,ski...->kij...", v, dv)
    t3 = np.einsum("ks...,jsi...->kij...", v, dv)
    t4 = np.einsum("ks...,isj...->kij...", v, dv)
    nt = t1 - t2 + t3 - t4
    return gc.interior_max(nt, aff.chart)


def check_diagonal_form(pencil: PencilSpec) -> DiagonalFormReport:
    """Verify the diagonal normal form ``g1^{ii} = f^i(u^i) g2^{ii}``.

    Both metrics must pass :func:`geometry_core.require_diagonal`, which
    raises :class:`NotDiagonal` otherwise.  The ratio of diagonal
    entries is formed pointwise and the residual is the largest cross
    derivative ``|d f^i / d u^j|`` for ``j != i`` over the interior.
    """
    chart = pencil.chart
    n = chart.dim
    off = require_diagonal(pencil.g1, pencil.g2)
    idx = np.arange(n)
    f = pencil.g1.contra.values[idx, idx] / pencil.g2.contra.values[idx, idx]
    residual = gc.worst(
        gc.interior_max(gc.differentiate_array(f[i], chart, j), chart)
        for i in range(n) for j in range(n) if j != i
    )
    return DiagonalFormReport(f, residual, off)


# ---------------------------------------------------------------------------
# quadratic-pencil construction from a covector potential


@dataclass
class DubrovinReport:
    g1: MetricField
    quadratic_residual: float
    bracket_residual: float
    delta_consistency: float
    lowering_defect: float
    compatibility: CompatibilityReport


def partner_metric(
    g2: MetricField,
    f: Callable[[list[np.ndarray]], object],
    c: float = 0.0,
) -> tuple[MetricField, np.ndarray, np.ndarray]:
    """Dubrovin's candidate partner of ``g2`` from a covector potential ``f``::

        g1^{ij} = grad^i f^j + grad^j f^i + c g2^{ij},    grad^i = g2^{is} d_s

    Over a constant ``g2`` at ``c = 0`` this is the pencil of one potential
    per coordinate.  ``f`` is sampled by :func:`grid_calculus.sample` and
    ``g1`` built by :func:`geometry_core.build_metric` (a degenerate
    candidate raises :class:`DegenerateMetric`).  Returns ``g1`` with the
    ``d_s f^k`` (``[s, k, ...]``) and ``grad^i f^j`` it was built from.
    """
    df = gc.stacked_partials(gc.sample(f, g2.chart, "u"))  # [s, k, ...] = d_s f^k
    g2c = g2.contra.values
    grad = np.einsum("is...,sj...->ij...", g2c, df)  # grad^i f^j
    return build_metric(grad + np.swapaxes(grad, 0, 1) + c * g2c, g2.chart), df, grad


def dubrovin_construct(
    g2: MetricField,
    f: Callable[[list[np.ndarray]], object],
    c: float = 0.0,
    lambda_samples: Sequence[tuple[float, float]] = DEFAULT_LAMBDA_SAMPLES,
) -> DubrovinReport:
    """Build the partner metric of a flat pencil from a covector potential.

    In flat coordinates of the reference metric ``g2`` (its raised connection
    must vanish to 1e-8 times the metric's scale, else
    :class:`NotFlatCoordinates`) the candidate partner is
    :func:`partner_metric`.  The construction reports

    * the quadratic residual ``D^{ij}_s D^{sk}_l - D^{ik}_s D^{sj}_l``,
    * the bracket residual
      ``(g1^{is} g2^{jp} - g2^{is} g1^{jp}) d_s d_p f^k``,
    * the agreement of ``D^{ijk}`` computed from second derivatives of ``f``
      with the connection-difference form
      ``g1^{is} g2^{jp} (Gamma^k_{2,ps} - Gamma^k_{1,ps})``,

    and cross-checks the pair with :func:`check_compatible` in flat mode.
    """
    chart = g2.chart

    gamma2 = connection(g2)
    conn_res, flat_tol = float(np.max(np.abs(gamma2.contra.values))), _FLAT_TOL * g2.scale()
    if not conn_res <= flat_tol:  # NaN fails too
        raise NotFlatCoordinates(conn_res, flat_tol)

    g1, df, grad = partner_metric(g2, f, c)
    ddf = gc.stacked_partials(df, chart)  # [a, s, k, ...] = d_a d_s f^k
    ddf = 0.5 * (ddf + np.swapaxes(ddf, 0, 1))
    g2c = g2.contra.values

    # D^{ijk} = grad^i grad^j f^k (indices raised with g2) and D^{ij}_k =
    # d_k grad^i f^j agree once the first index of D^{ijk} is lowered with g2
    delta_up = np.einsum("is...,jp...,spk...->ijk...", g2c, g2c, ddf, optimize=True)
    dgrad = gc.stacked_partials(grad, chart)  # [k, i, j, ...] = d_k grad^i f^j
    delta_mixed = np.einsum("kij...->ijk...", dgrad)
    lowered = np.einsum("ks...,sij...->ijk...", g2.cov.values, delta_up)
    lowering_defect = float(np.max(np.abs(lowered - delta_mixed)))

    term1 = np.einsum("ijs...,skl...->ijkl...", delta_mixed, delta_mixed)
    term2 = np.einsum("iks...,sjl...->ijkl...", delta_mixed, delta_mixed)
    quad = gc.interior_max(term1 - term2, chart)

    g1c = g1.contra.values
    bracket = (
        np.einsum("is...,jp...,spk...->ijk...", g1c, g2c, ddf, optimize=True)
        - np.einsum("is...,jp...,spk...->ijk...", g2c, g1c, ddf, optimize=True)
    )
    bracket_res = gc.interior_max(bracket, chart)

    # the cross-check builds the connection of g1, which D^{ijk} needs too
    compat = check_compatible(PencilSpec(g1, g2, tuple(lambda_samples)), "flat")
    gamma1 = compat.endpoint_connection["g1"]
    delta_conn = np.einsum(
        "is...,jp...,kps...->ijk...",
        g1c,
        g2c,
        gamma2.mixed.values - gamma1.mixed.values,
        optimize=True,
    )
    delta_consistency = gc.interior_max(delta_conn - delta_up, chart)
    return DubrovinReport(g1, quad, bracket_res, delta_consistency, lowering_defect, compat)
