"""Generating rotation-coefficient solutions by the dressing transform.

The machinery: pick decaying *potentials* ``Phi_{ij}(x, y)`` (one per
unordered component pair, plus optional skew-symmetric diagonal ones), form
the translated kernel matrix

    F_ij(s, s') = d/ds Phi_ij(s - u^i, s' - u^j)            (i < j)
    F_ji(s, s') = -d/ds' ... (the antisymmetrized partner)   (i > j)
    F_ii(s, s') = d/ds Phi_ii(s - u^i, s' - u^i)

— this construction satisfies the skew relation
``d F_ij(s,s')/ds' + d F_ji(s',s)/ds = 0`` identically — then solve the
linear integral equation

    K_ij(s, s') = F_ij(s, s') + int_s^inf sum_l K_il(s, q) F_lj(q, s') dq

and read off ``beta_ij(u) = K_ji(s, s)`` at a fixed dressing parameter
``s``. The resulting field satisfies the off-diagonal rotation-coefficient
equations for any potentials, and the diagonal family as well thanks to the
skew relation.  Imposing a reduction profile ``f^i`` scales the kernel to

    F~_ij(s, s') = sqrt|f^j(u^j - s')| / sqrt|f^i(u^i - s)| * F_ij(s, s')

whose solution is the same pointwise scaling of ``K``; when *that* kernel
also satisfies the skew relation — equivalent to the second-order PDE
checked by :func:`reduction_pde_residual` — the extracted coefficients
satisfy the profile-weighted diagonal family too, i.e. they generate a
compatible flat pair.

The integral equation is discretized by a Nyström scheme: composite
Gauss–Legendre panels on ``[s, s + L]`` (the semi-infinite integral is
truncated at the decay length ``L``), and the same quadrature identity
evaluates ``K`` off the nodes — in particular on the diagonal ``s' = s``
where ``beta`` lives.  Dressing takes potentials given as separable terms,
which make the kernel degenerate, so it is solved through an r×r Woodbury
core (Kress, *Linear Integral Equations*, ch. 11), tabulated once per
coordinate value across a window.

A single solve uses :data:`DEFAULT_PANELS` panels unless told otherwise; a
window sizes its own rule on :data:`PANEL_LADDER` (:func:`extract_beta`),
since Gauss–Legendre Nyström converges exponentially for analytic kernels
(Bornemann, Math. Comp. 79, 2010).  The ladder is climbed on one factor
table at the places its corner and centre probes read, which holds the
nodes of every rung and the tail pairs; each rung is gated and solved there
from its own columns, in climb order.  At the chosen rung's probes, and in a
single solve, the terms are checked against the kernel's values and
``cond`` is read from a 2r×2r block, without solving again
(:func:`_cond_probe`).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import grid_calculus as gc
from .errors import (
    FactorMismatch,
    IllConditioned,
    NonFiniteSample,
    QuadratureUnresolved,
    TruncationInsufficient,
)
from .grid_calculus import GridChart
from .lame_system import LameFrame, ReductionProfile
from .two_component import Potential

DECAY_THRESHOLD = 1e-12
TAIL_REL_TOL = 1e-10
COND_CAP = 1e12
DEFAULT_PANELS = 16
DEFAULT_NODES_PER_PANEL = 6
#: panel counts the window's quadrature search climbs, coarsest first
PANEL_LADDER = (4, 5, 6, 8, 10, 12, 16, 20, 24, 32)
#: published bound on the change of ``beta`` and ``psi`` from a ladder rung
#: to the next finer one
QUADRATURE_TOL = 1e-10
#: published bounds of the fixed dressing checks: the collocation residual of
#: a solve, and the translation identity and tilde consistency of a kernel
COLLOCATION_BOUND = 1e-10
IDENTITY_BOUND = 1e-8
SKEW_PROBE_TOL = 1e-9
#: how far a derivative factor may miss the central difference of its factor
#: at the skew probes' coordinates: relative to its own largest value there,
#: plus the difference's rounding relative to the factor's largest value (a
#: constant factor's difference is about 1e-13 of it, not 0)
DERIVATIVE_PROBE_TOL = 1e-3
DIFFERENCE_ROUNDING = 1e-10
#: seeded (s, s') probes drawn from [-1.5, 1.5]^2, and the central-difference
#: step, of :func:`reduction_identity_residual`
IDENTITY_PROBES = 12
IDENTITY_STEP = 1e-4
#: bytes of per-node arrays per window batch; more raises peak memory, not speed
BATCH_BYTES = 3 * 2**19
#: the (t, t') pairs, as ``s + length * TAIL_PAIRS``, where the kernel must have decayed
_TAIL = (1.05, 1.15, 1.3, 1.6, 2.0)
TAIL_PAIRS = np.array([_TAIL + _TAIL + (0.5,) * 5, _TAIL + (0.5,) * 5 + _TAIL])


# ---------------------------------------------------------------------------
# potentials


def _gaussian(scale: float, centre: float, w2: float):
    """``g(t) = scale exp(-(t - centre)^2 / (2 w^2))`` and ``g'``."""
    g = lambda t: scale * np.exp(-((t - centre) ** 2) / (2 * w2))
    return g, lambda t: -(t - centre) / w2 * g(t)


def gaussian_pair(
    amplitude: float, width: float, x0: float = 0.0, y0: float = 0.0
) -> Potential:
    """``Phi = a exp(-((x-x0)^2 + (y-y0)^2) / (2 w^2))``, one term."""
    w2 = float(width) ** 2
    return Potential(terms=((*_gaussian(float(amplitude), x0, w2), *_gaussian(1.0, y0, w2)),))


def separable_sum_pair(
    a1: float, a2: float, width: float, x0: float = 0.0, y0: float = 0.0
) -> Potential:
    """``Phi = a1 exp(-(x-x0)^2/2w^2) + a2 exp(-(y-y0)^2/2w^2)`` — zero
    mixed partial, the closed-form solution of the reduction PDE for a
    constant (componentwise) profile."""
    w2 = float(width) ** 2
    one = lambda t: np.ones(np.shape(t))
    zero = lambda t: np.zeros(np.shape(t))
    return Potential(terms=(
        (*_gaussian(float(a1), x0, w2), one, zero),
        (one, zero, *_gaussian(float(a2), y0, w2)),
    ))


def skew_gaussian_pair(amplitude: float, width: float) -> Potential:
    """``Phi = a (y - x) exp(-(x^2 + y^2)/(2 w^2))`` — skew-symmetric; the
    terms are ``e(x) (a y e(y))`` and ``(-a x e(x)) e(y)``."""
    a, w2 = float(amplitude), float(width) ** 2
    e, de = _gaussian(1.0, 0.0, w2)
    h = lambda t: a * t * e(t)
    dh = lambda t: a * (1.0 - t**2 / w2) * e(t)
    return Potential(terms=((e, de, h, dh), (lambda t: -h(t), lambda t: -dh(t), e, de)))


@dataclass(frozen=True)
class PotentialSet:
    """Potentials per component pair: ``off_diagonal[(i,j)]`` for ``i < j``,
    optional skew ``diagonal[i]``, and the decay radius ``envelope`` beyond
    which every potential and its partials fall under 1e-12."""

    n: int
    off_diagonal: dict[tuple[int, int], Potential]
    diagonal: dict[int, Potential]
    envelope: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one component")
        for (i, j) in self.off_diagonal:
            if not (0 <= i < j < self.n):
                raise ValueError(f"off-diagonal key ({i},{j}) must have i < j < n")
        for i in self.diagonal:
            if not 0 <= i < self.n:
                raise ValueError(f"diagonal key {i} out of range")
        if not 0 < self.envelope < math.inf:  # NaN fails too
            raise ValueError(f"envelope must be a positive finite number, got {self.envelope}")
        rng = np.random.default_rng(1234)
        pts = rng.uniform(-self.envelope / 2, self.envelope / 2, size=(16, 2))
        for i, pot in self.diagonal.items():
            xy, yx = pot.value(pts[:, 0], pts[:, 1]), pot.value(pts[:, 1], pts[:, 0])
            finite = np.isfinite(xy + yx)
            if not finite.all():
                at = tuple(pts[np.argmin(finite)])
                raise NonFiniteSample(at, f"in the skew probe of diagonal potential {i}")
            if np.max(np.abs(xy + yx)) > SKEW_PROBE_TOL * (1.0 + np.max(np.abs(xy))):
                raise ValueError(f"diagonal potential {i} is not skew-symmetric")
        # the kernel reads a term's derivative factors as given, so each is
        # probed against a difference of its factor; a non-finite value is
        # left to the kernel's own gate
        t = pts.ravel()
        for pair, pot in _pairs(self):
            for k, (a, da, b, db) in enumerate(pot.terms or ()):
                for name, f, df in (("A'", a, da), ("B'", b, db)):
                    value, slope = (np.broadcast_to(g(t), t.shape) for g in (f, df))
                    error = np.abs(gc.central_difference(f, (t,)) - slope)
                    finite = np.isfinite(error) & np.isfinite(value)
                    bound = (DERIVATIVE_PROBE_TOL * np.max(np.abs(slope[finite]), initial=0.0)
                             + DIFFERENCE_ROUNDING * np.max(np.abs(value[finite]), initial=0.0))
                    if np.max(error[finite], initial=0.0) > bound:
                        raise ValueError(f"term {k} of the potential of pair {pair}: {name} "
                                         "is not the derivative of its factor")
        object.__setattr__(self, "off_diagonal", dict(self.off_diagonal))
        object.__setattr__(self, "diagonal", dict(self.diagonal))


def gaussian_set(
    n: int,
    amplitude: float = 0.2,
    width: float = 1.0,
    include_diagonal: bool = False,
) -> PotentialSet:
    """A generic smooth decaying set: one Gaussian per pair with slightly
    staggered amplitudes and centers (deterministic), optionally with skew
    diagonal entries."""
    off = {}
    for i in range(n):
        for j in range(i + 1, n):
            off[(i, j)] = gaussian_pair(
                amplitude * (1.0 + 0.15 * i - 0.1 * j),
                width,
                x0=0.2 * (i - j),
                y0=0.1 * (i + j),
            )
    diag = {}
    if include_diagonal:
        for i in range(n):
            diag[i] = skew_gaussian_pair(0.5 * amplitude / (1.0 + i), width)
    margin = width * math.sqrt(2 * math.log(max(abs(amplitude), 1.0) / DECAY_THRESHOLD + 3.0))
    if not math.isfinite(margin):
        raise ValueError(
            f"amplitude {amplitude!r} at width {width!r} has no finite decay envelope")
    return PotentialSet(n, off, diag, envelope=margin + 1.0)


# ---------------------------------------------------------------------------
# kernels


class RawKernel:
    """A kernel given by its separable terms ``(row, column, left, right)``:
    term ``k`` adds ``left(t) right(t')`` to ``F_{row column}(t, t')``."""

    def __init__(self, n: int, terms: Sequence[tuple[int, int, Callable, Callable]]):
        self.n, self.terms, self.rank = n, tuple(terms), len(terms)

    def eval(self, i: int, j: int, s, sp) -> np.ndarray:
        s, sp = np.asarray(s, dtype=float), np.asarray(sp, dtype=float)
        block = [left(s) * right(sp) for r, c, left, right in self.terms if (r, c) == (i, j)]
        return sum(block, np.zeros(np.broadcast_shapes(s.shape, sp.shape)))

    def factors(self, t) -> tuple[np.ndarray, ...]:
        """As :meth:`PotentialKernel.factors`, with a batch axis of one."""
        t = np.asarray(t, dtype=float)
        rows, cols = (np.array([term[at] for term in self.terms], dtype=int) for at in (0, 1))
        left, right = (np.array([[term[at](t) for term in self.terms]]) for at in (2, 3))
        return rows, cols, left, right


def _pairs(pots: PotentialSet) -> list:
    """``((i, j), potential)``, off-diagonal pairs first, then ``(i, i)``."""
    return [*pots.off_diagonal.items(), *(((i, i), pot) for i, pot in pots.diagonal.items())]


def kernel_rank(potentials: PotentialSet) -> int:
    """The number of separable terms of the kernel, which bounds its rank (an
    off-diagonal potential serves two blocks); a potential without terms is
    refused with a :class:`ValueError` naming its pair."""
    for pair, pot in _pairs(potentials):
        if pot.terms is None:
            raise ValueError(f"the potential of pair {pair} has no separable terms to dress")
    return sum(len(pot.terms) * (1 + (i != j)) for (i, j), pot in _pairs(potentials))


class PotentialKernel:
    """Kernel matrix from a potential set at evaluation points ``u``.

    ``u`` is one point (length ``n``) or a batch of points (shape ``(B, n)``);
    for a batch, :meth:`eval` puts the batch axis first.  With
    ``ratio_profile`` set, evaluates the profile-scaled variant; each
    ``f^l`` must keep one sign over ``u^l - t`` for ``t`` in ``t_range``, at
    each point on its own (:meth:`ReductionProfile.signs`, one range per
    point).  ``rank`` is :func:`kernel_rank` of the set, and :meth:`factors`
    gives the kernel's separable terms.
    """

    def __init__(
        self,
        potentials: PotentialSet,
        u: Sequence[float] | np.ndarray,
        ratio_profile: ReductionProfile | None = None,
        t_range: tuple[float, float] | None = None,
    ):
        self.potentials = potentials
        self._u = np.asarray(u, dtype=float)
        self.n = potentials.n
        self.rank = kernel_rank(potentials)
        if self._u.shape[-1:] != (self.n,):
            raise ValueError("evaluation point length must match component count")
        self._profile = ratio_profile
        if ratio_profile is not None:
            if t_range is None:
                raise ValueError("profile-scaled kernels need the t-range")
            t = np.linspace(*t_range, 201)
            ratio_profile.signs([self._u[..., l, None] - t for l in range(self.n)])

    def eval(self, i: int, j: int, s, sp) -> np.ndarray:
        s, sp = np.asarray(s, dtype=float), np.asarray(sp, dtype=float)
        # each point's coordinates, broadcast against s and s'; an open mesh
        # of (s, s') keeps the one-variable factors of a potential small
        ndim = max(s.ndim, sp.ndim)
        ui, uj = (np.reshape(c, c.shape + (1,) * ndim) for c in (self._u[..., i], self._u[..., j]))
        shape = self._u.shape[:-1] + np.broadcast_shapes(s.shape, sp.shape)
        if i < j:
            pot = self.potentials.off_diagonal.get((i, j))
            base = pot.dx(s - ui, sp - uj) if pot else None
        elif i > j:
            pot = self.potentials.off_diagonal.get((j, i))
            base = -pot.dy(sp - uj, s - ui) if pot else None
        else:
            pot = self.potentials.diagonal.get(i)
            base = pot.dx(s - ui, sp - ui) if pot else None
        if base is None:
            return np.zeros(shape)
        base = np.asarray(base, dtype=float)
        if base.shape != shape:
            base = np.broadcast_to(base, shape).copy()
        if self._profile is not None:
            base *= self._profile.root(j, uj - sp) / self._profile.root(i, ui - s)
        return base

    def factors(self, t) -> tuple[np.ndarray, ...]:
        """``rows, cols, left, right``: term ``k`` adds ``left[b, k, a] *
        right[b, k, c]`` to ``F_{rows[k] cols[k]}(t_a, t_c)`` at point ``b``
        (a batch axis even for one point), the profile ratio folded in."""
        x = np.asarray(t, dtype=float) - self._u.reshape(-1, self.n, 1)  # [b, l, a] = t_a - u^l
        terms = []  # (row block, column block, left factor, right factor)
        for (i, j), pot in _pairs(self.potentials):
            for a, da, b, db in pot.terms:
                # F_ij(t, t') = Phi_x(t - u^i, t' - u^j) for i <= j ...
                terms.append((i, j, da, b))
                if i != j:  # ... and F_ji(t, t') = -Phi_y(t' - u^i, t - u^j)
                    terms.append((j, i, lambda t, db=db: -db(t), a))
        left = np.empty((len(x), len(terms), x.shape[-1]))
        right = np.empty_like(left)
        for k, (i, j, left_k, right_k) in enumerate(terms):
            left[:, k], right[:, k] = left_k(x[:, i]), right_k(x[:, j])
        rows, cols = np.array([term[:2] for term in terms], dtype=int).reshape(-1, 2).T
        if self._profile is not None:
            roots = np.stack([self._profile.root(l, -x[:, l]) for l in range(self.n)], axis=1)
            left /= roots[:, rows]
            right *= roots[:, cols]
        return rows, cols, left, right


def reduction_identity_residual(kernel, seed: int = 0) -> float:
    """Max probe residual of ``d F_ij(s,s')/ds' + d F_ji(s',s)/ds``.

    Derivatives by 4th-order central differences of the kernel evaluator at
    :data:`IDENTITY_PROBES` points drawn with ``seed``; holds to rounding for
    every kernel built from a potential set.  A NaN in any block propagates
    to the result.
    """
    probes = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(IDENTITY_PROBES, 2))
    s, sp = probes[:, 0], probes[:, 1]
    step = IDENTITY_STEP
    residuals = [
        np.max(np.abs(
            gc.central_difference(lambda a, b: kernel.eval(i, j, a, b), (s, sp), 1, step)
            + gc.central_difference(lambda a, b: kernel.eval(j, i, a, b), (sp, s), 1, step)
        ))
        for i in range(kernel.n)
        for j in range(kernel.n)
    ]
    return float(np.max(residuals))


# ---------------------------------------------------------------------------
# reduction PDE checks


def pair_pde_residual(
    pot: Potential, fi: Callable, fj: Callable, probes: np.ndarray
) -> float:
    """Residual of the reduction PDE at probe points ``(x, y)``:

    ``2 Phi_xy (fi(-x) - fj(-y)) - Phi_y fi'(-x) + Phi_x fj'(-y)``;
    with ``fj = fi`` it is the equation of a diagonal potential.
    """
    probes = np.asarray(probes, dtype=float)
    x, y = probes[:, 0], probes[:, 1]
    fi_v = gc.as_grid(fi(-x), x.shape)
    fj_v = gc.as_grid(fj(-y), y.shape)
    fip = gc.as_grid(gc.central_difference(fi, (-x,)), x.shape)
    fjp = gc.as_grid(gc.central_difference(fj, (-y,)), y.shape)
    res = (
        2.0 * pot.dxy(x, y) * (fi_v - fj_v)
        - pot.dy(x, y) * fip
        + pot.dx(x, y) * fjp
    )
    return float(np.max(np.abs(res)))


@dataclass
class ReductionPdeReport:
    off_diagonal: dict[tuple[int, int], float]
    diagonal: dict[int, float]

    @property
    def max_residual(self) -> float:
        return gc.worst([*self.off_diagonal.values(), *self.diagonal.values()])


def reduction_pde_residual(
    potentials: PotentialSet,
    profile: ReductionProfile,
) -> ReductionPdeReport:
    """Evaluate both reduction PDE families at 25 seeded probe points in the
    envelope; the diagonal family is the pair equation with ``f^j = f^i``.
    """
    if len(profile.funcs) != potentials.n:
        raise ValueError("profile length must match component count")
    r = min(potentials.envelope / 2, 2.0)
    probes = np.random.default_rng(0).uniform(-r, r, size=(25, 2))
    off = {
        (i, j): pair_pde_residual(pot, profile.funcs[i], profile.funcs[j], probes)
        for (i, j), pot in potentials.off_diagonal.items()
    }
    diag = {
        i: pair_pde_residual(pot, profile.funcs[i], profile.funcs[i], probes)
        for i, pot in potentials.diagonal.items()
    }
    return ReductionPdeReport(off, diag)


# ---------------------------------------------------------------------------
# the integral-equation solve


def _truncation_length(
    potentials: PotentialSet, coords, s: float, panels: int | None, nodes_per_panel: int
) -> float:
    """The length ``L`` of the quadrature range ``[s, s + L]`` for points with
    coordinates among ``coords``: the decay envelope past the farthest
    coordinate and ``|s|``, plus one.  Checks the panel rule on the way."""
    if (panels is not None and panels < 1) or nodes_per_panel < 2:
        raise ValueError("need at least one panel of at least two nodes")
    reach = max((abs(v) for v in coords), default=0.0)
    return potentials.envelope + reach + abs(s) + 1.0


@dataclass(frozen=True)
class DressingProblem:
    """One point ``u`` of the dressing problem; ``length`` is the truncation
    length, :func:`_truncation_length` of ``u`` when not given."""

    potentials: PotentialSet
    u: tuple[float, ...]
    profile: ReductionProfile | None = None
    s: float = 0.0
    length: float | None = None
    panels: int = DEFAULT_PANELS
    nodes_per_panel: int = DEFAULT_NODES_PER_PANEL

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))
        if len(self.u) != self.potentials.n:
            raise ValueError("evaluation point length must match component count")
        length = _truncation_length(
            self.potentials, self.u, self.s, self.panels, self.nodes_per_panel
        )
        object.__setattr__(self, "length", length if self.length is None else float(self.length))

    def base_kernel(self) -> PotentialKernel:
        return PotentialKernel(self.potentials, self.u)

    def tilde_kernel(self) -> PotentialKernel:
        if self.profile is None:
            raise ValueError("no reduction profile on this problem")
        return PotentialKernel(
            self.potentials, self.u, self.profile, (self.s, self.s + self.length)
        )


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1], computed once per m."""
    rule = np.polynomial.legendre.leggauss(m)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _panel_quadrature(s: float, length: float, panels: int, m: int):
    xg, wg = _gauss_legendre(m)
    edges = np.linspace(s, s + length, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * xg[None, :]).ravel()
    weights = (halves[:, None] * wg[None, :]).ravel()
    return nodes, weights


@dataclass
class DressingSolution:
    kernel: object
    s: float
    nodes: np.ndarray
    weights: np.ndarray
    k_nodes: np.ndarray  # [i, l, m] = K_{il}(s, q_m)
    k_ss: np.ndarray  # [i, j] = K_{ij}(s, s)
    residual: float
    cond: float | None

    @property
    def n(self) -> int:
        return self.k_nodes.shape[0]

    def k_at(self, sp: float) -> np.ndarray:
        """Nyström interpolation: the matrix ``K_{ij}(s, sp)``."""
        n, pairs = self.n, [(a, b) for a in range(self.n) for b in range(self.n)]
        f_s = np.reshape([self.kernel.eval(a, b, self.s, sp) for a, b in pairs], (n, n))
        f_q = np.reshape([self.kernel.eval(a, b, self.nodes, sp) for a, b in pairs], (n, n, -1))
        return f_s + np.einsum("ilm,m,ljm->ij", self.k_nodes, self.weights, f_q)

    def beta(self) -> np.ndarray:
        """``beta_{ij} = K_{ji}(s, s)``."""
        return self.k_ss.T.copy()

    def psi(self) -> np.ndarray:
        """Dressed unit seeds ``Psi_i = 1 + sum_l int K_il``: the canonical
        positive solution of ``d Psi_k / d u^i = beta_{ik} Psi_i`` — i.e.
        ready-made Lamé coefficients for the metric generated by ``beta``."""
        return 1.0 + np.einsum("ilm,m->i", self.k_nodes, self.weights)


def _gate(points: np.ndarray, finite: np.ndarray, mass: np.ndarray, box: np.ndarray, length):
    """:class:`NonFiniteSample` at the first point not ``finite``;
    :class:`TruncationInsufficient` where the kernel's ``mass`` at the tail
    pairs exceeds ``TAIL_REL_TOL box``, ``box`` its max on the nodes."""
    if not finite.all():
        raise NonFiniteSample(points[np.argmin(finite)], "in the dressing kernel")
    tol = TAIL_REL_TOL * box
    if np.any(mass > tol):
        b = int(np.argmax(mass > tol))
        raise TruncationInsufficient(float(mass[b]), float(tol[b]), length)


_Factors = namedtuple("_Factors", "rows cols left right starts blocks mass finite")
_Tables = namedtuple("_Tables", "rows cols core left right right_sum finite gate")


def _finite(rows: np.ndarray, cols: np.ndarray, left: np.ndarray, right: np.ndarray, n: int):
    """``[p, l]``: whether every factor read at the ``p``-th ``u^l`` is finite
    in these columns (``L_k`` reads ``u^{rows[k]}``, ``R_k`` reads ``u^{cols[k]}``)."""
    left, right = np.isfinite(left).all(axis=2), np.isfinite(right).all(axis=2)
    return np.stack([left[:, rows == l].all(axis=1) & right[:, cols == l].all(axis=1)
                     for l in range(n)], axis=1)


def _factor_table(kernel, s: float, length: float, rules: Sequence[np.ndarray]) -> _Factors:
    """A factored kernel on several rules at once, from one
    :meth:`PotentialKernel.factors` call at points whose ``p``-th holds the
    ``p``-th value of each coordinate.  The columns are ``(s, q_1, ..., q_Q)``
    of each rule in turn, rule ``r`` from ``starts[r]``, then the tail pairs;
    with them, what no rule changes: the terms ``blocks[i, j]`` of ``F_ij``,
    its largest tail mass ``mass[i, j]`` over ``[p]`` (``i == j``) or ``[p,
    p']``, and whether the factors read at the ``p``-th ``u^l`` are
    ``finite`` at ``s`` and the tail pairs."""
    tail_a, tail_b = s + length * TAIL_PAIRS
    columns = [np.concatenate(([s], nodes)) for nodes in rules]
    starts = np.cumsum([0] + [len(c) for c in columns])
    rows, cols, left, right = kernel.factors(np.concatenate((*columns, tail_a, tail_b)))
    tail = starts[-1]
    l_tail, r_tail = left[..., tail:tail + len(tail_a)], right[..., tail + len(tail_a):]
    blocks, mass = {}, {}
    for i, j in sorted(set(zip(rows.tolist(), cols.tolist()))):
        k = blocks[i, j] = np.flatnonzero((rows == i) & (cols == j))
        tail_mass = np.einsum("pka,pka->pa" if i == j else "pka,Pka->pPa",
                              l_tail[:, k], r_tail[:, k])
        mass[i, j] = np.abs(tail_mass).max(axis=-1)
    fixed = np.r_[0, tail:left.shape[-1]]
    finite = _finite(rows, cols, left[..., fixed], right[..., fixed], kernel.n)
    return _Factors(rows, cols, left, right, starts, blocks, mass, finite)


def _rule_tables(table: _Factors, rule: int, weights: np.ndarray) -> _Tables:
    """The tables of rule ``rule`` of ``table``, from its columns: per row
    ``p``, ``core = sum_m w_m L_k(q_m) R_k'(q_m)`` where ``rows[k] ==
    cols[k']`` (else 0), ``L_k`` and ``R_k`` at ``(s, q_1, ..., q_Q)``, ``sum_m
    w_m R_k(q_m)``, whether all factors read at the ``p``-th ``u^l`` are
    ``finite``, and ``gate[i, j]``, the tail mass and box of ``F_ij``, its
    largest value on the nodes, over ``[p]`` (``i == j``) or ``[p, p']``."""
    rows, cols = table.rows, table.cols
    lo, hi = table.starts[rule:rule + 2]
    left, right = table.left[..., lo:hi], table.right[..., lo:hi]
    l_q, r_q = left[..., 1:], right[..., 1:]
    gate = {}
    for (i, j), k in table.blocks.items():
        if i == j:
            product = np.swapaxes(l_q[:, k], 1, 2) @ r_q[:, k]
            box = np.abs(product, out=product).max(axis=(1, 2))
        elif len(k) == 1:  # a rank-one block's largest entry is the product of its factors'
            box = np.multiply.outer(np.abs(l_q[:, k[0]]).max(-1), np.abs(r_q[:, k[0]]).max(-1))
        else:  # one place at a time: all pairs at once would hold places² q² values
            box = np.array([np.abs(l_q[p, k].T @ r_q[:, k]).max(axis=(1, 2))
                            for p in range(len(l_q))])
        gate[i, j] = table.mass[i, j], box
    core = np.where(rows[:, None] == cols, (l_q * weights) @ np.swapaxes(r_q, 1, 2), 0.0)
    finite = table.finite & _finite(rows, cols, l_q, r_q, table.finite.shape[1])
    return _Tables(rows, cols, core, left, right, r_q @ weights, finite, gate)


def _tabulate(kernel, s: float, length: float, nodes, weights) -> _Tables:
    """The tables of one rule (:func:`_rule_tables`), ``L_k`` reading only
    ``u^{rows[k]}`` and ``R_k`` only ``u^{cols[k]}``."""
    return _rule_tables(_factor_table(kernel, s, length, [nodes]), 0, weights)


def _woodbury(tables: _Tables, idx: np.ndarray, points: np.ndarray, length: float,
              with_residual: bool = True):
    """Nyström solves in r-space at points whose ``u^l`` is row ``idx[b, l]``
    of ``tables``, each gated by :func:`_gate`.  ``x = U P + U V^T x`` with
    ``U[(l, m), k] = R_k(q_m)`` in column block ``l``, ``V[(l, m), k] = w_m
    L_k(q_m)`` in row block ``l`` and ``P[k, i] = L_k(s)`` in row block ``i``
    is ``x = U y`` for ``(I_r - V^T U) y = P``: ``K_{ij}(s, s) = sum_k R_k(s)
    y[k, i]`` over column block ``j``, ``psi_i = 1 + sum_k y[k, i] sum_m w_m
    R_k(q_m)``, and the residual is ``U`` times the core's, from the rows of
    ``U`` the points at one ``u^l`` share.  Returns ``y``, ``k_ss[b, i, j] =
    K_{ij}(s, s)``, ``psi`` and the residual (NaN unless ``with_residual``)."""
    n, terms = idx.shape[1], np.arange(len(tables.rows))
    at_rows, at_cols = idx[:, tables.rows], idx[:, tables.cols]
    mass, box = np.zeros(len(idx)), np.zeros(len(idx))
    for (i, j), (block_mass, block_box) in tables.gate.items():
        at = (idx[:, i],) if i == j else (idx[:, i], idx[:, j])
        mass, box = np.maximum(mass, block_mass[at]), np.maximum(box, block_box[at])
    _gate(points, tables.finite[idx, np.arange(n)].all(axis=1), mass, box, length)

    core = tables.core[at_rows, terms]
    p = tables.left[at_rows, terms, 0][..., None] * (tables.rows[:, None] == np.arange(n))
    y = np.linalg.solve(np.eye(len(terms)) - core, p)
    error, residual = y - core @ y - p, np.full(len(idx), 0.0 if with_residual else np.nan)
    for l in range(n) if with_residual else ():
        k = np.flatnonzero(tables.cols == l)
        for v in np.unique(idx[:, l]):
            at = np.flatnonzero(idx[:, l] == v)
            u_error = tables.right[v, k, 1:].T @ error[at][:, k].transpose(1, 0, 2).reshape(
                len(k), len(at) * n)
            top = np.abs(u_error).max(axis=0).reshape(len(at), n).max(axis=1)
            residual[at] = np.maximum(residual[at], top)
    r_s = tables.right[at_cols, terms, 0][..., None] * (tables.cols[:, None] == np.arange(n))
    psi = 1.0 + np.einsum("bk,bki->bi", tables.right_sum[at_cols, terms], y)
    return y, np.swapaxes(y, 1, 2) @ r_s, psi, residual


def _factor_deviation(kernel, tables: _Tables, idx: np.ndarray, points: np.ndarray, t):
    """Per point, the largest difference of ``sum_k L_k(t_a) R_k(t_c)`` from
    ``F_ij(t_a, t_c)`` by ``kernel.eval`` on the mesh of ``t = (s, q_1, ...)``,
    relative to the block's largest ``|F_ij|`` there: 0 where both are zero,
    inf for a difference on a zero block.  :class:`FactorMismatch` names the
    block and point of one above :data:`QUADRATURE_TOL`."""
    deviation = np.empty((len(idx), kernel.n, kernel.n))
    for i, j in np.ndindex(deviation.shape[1:]):
        k = np.flatnonzero((tables.rows == i) & (tables.cols == j))
        f = kernel.eval(i, j, t[:, None], t)
        left, right = tables.left[idx[:, i, None], k], tables.right[idx[:, j, None], k]
        gap = np.abs(f - np.swapaxes(left, 1, 2) @ right).max(axis=(1, 2))
        with np.errstate(divide="ignore"):
            deviation[:, i, j] = np.divide(gap, np.abs(f).max(axis=(-2, -1)),
                                           out=np.zeros_like(gap), where=gap != 0)
    b, i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
    if not deviation[b, i, j] <= QUADRATURE_TOL:
        raise FactorMismatch(float(deviation[b, i, j]), QUADRATURE_TOL, (int(i), int(j)), points[b])
    return deviation.max(axis=(1, 2))


def _collocation_factors(tables: _Tables, idx: np.ndarray, weights: np.ndarray):
    """``U[b, (l, m), k] = R_k(q_m)`` and ``V[b, (l, m), k] = w_m L_k(q_m)``
    at rows ``idx[b, l]`` of ``tables``, ``k`` in column or row block ``l``:
    the collocation matrix of point ``b`` is ``I - U V^T``."""
    (batch, n), r = idx.shape, len(tables.rows)
    terms = np.arange(r)
    return tuple(
        np.einsum("bkm,kl->blmk", table, blocks[:, None] == np.arange(n)).reshape(batch, -1, r)
        for table, blocks in ((tables.right[idx[:, tables.cols], terms, 1:], tables.cols),
                              (tables.left[idx[:, tables.rows], terms, 1:] * weights, tables.rows)))


def _cond_probe(kernel, tables: _Tables, idx: np.ndarray, points: np.ndarray, t, weights):
    """Per point at rows ``idx`` of ``tables`` (``t = (s, q_1, ...)``), the
    factor deviation from ``kernel`` (:func:`_factor_deviation`) and then
    ``cond`` of ``I - U V^T`` (:func:`_collocation_factors`), whose singular
    values are 1 but those of ``I - (Q^T U)(V^T Q)`` for ``Q = orth[U V]``,
    gated by ``COND_CAP``.  Returns ``cond`` and the deviation."""
    deviation = _factor_deviation(kernel, tables, idx, points, t)
    u_mat, v_mat = _collocation_factors(tables, idx, weights)
    basis = np.linalg.qr(np.concatenate((u_mat, v_mat), axis=2))[0]
    block = (np.swapaxes(basis, 1, 2) @ u_mat) @ (np.swapaxes(v_mat, 1, 2) @ basis)
    sigma = np.linalg.svd(np.eye(basis.shape[2]) - block, compute_uv=False)
    sigma = np.concatenate((sigma, np.ones((len(idx), int(basis.shape[2] < basis.shape[1])))), 1)
    cond = sigma.max(axis=1) / sigma.min(axis=1)
    if not np.max(cond) <= COND_CAP:
        raise IllConditioned(float(np.max(cond)), COND_CAP)
    return cond, deviation


def _batch_size(n: int, q: int, rank: int) -> int:
    """Points per window batch for :data:`BATCH_BYTES` of per-point arrays:
    the core and its system matrix, five r x n arrays, the q x n residual twice."""
    return max(1, BATCH_BYTES // (8 * (2 * rank * rank + 5 * rank * n + 2 * q * n)))


def solve_marchenko(problem: DressingProblem, kernel: object | None = None,
                    estimate_cond: bool = True) -> DressingSolution:
    """Nyström solve of the dressing integral equation at one point ``u``.

    The one-point case of the window solver (:func:`_woodbury`) on the
    factors of ``kernel``, the problem's base kernel by default, and ``x = U
    y``: the declared truncation length is validated by probing the kernel
    beyond it (:class:`TruncationInsufficient`), non-finite kernel values
    raise :class:`NonFiniteSample`, and ``estimate_cond`` gates the factors
    (:class:`FactorMismatch`) and ``cond`` (:class:`IllConditioned`) as at a
    window's probes (:func:`_cond_probe`).
    """
    kernel = problem.base_kernel() if kernel is None else kernel
    s, length = problem.s, problem.length
    nodes, weights = _panel_quadrature(s, length, problem.panels, problem.nodes_per_panel)
    # the point is the one value of each coordinate in its own tables
    tables = _tabulate(kernel, s, length, nodes, weights)
    idx, point = np.zeros((1, kernel.n), dtype=int), np.array([problem.u])
    y, k_ss, _, residual = _woodbury(tables, idx, point, length)
    u_mat, _ = _collocation_factors(tables, idx, weights)
    k_nodes = (u_mat[0] @ y[0]).reshape(kernel.n, len(nodes), kernel.n).transpose(2, 0, 1)
    cond = None
    if estimate_cond:
        cond = float(_cond_probe(kernel, tables, idx, point, np.concatenate(([s], nodes)),
                                 weights)[0][0])
    return DressingSolution(kernel, s, nodes, weights, k_nodes, k_ss[0], float(residual[0]), cond)


# ---------------------------------------------------------------------------
# field extraction over a chart


@dataclass
class DressedField:
    """``beta`` (and seed coefficients) solved at every chart node.

    ``panels`` is the rung the quadrature search chose and
    ``quadrature_error`` its estimate, the largest change of ``beta`` and
    ``psi`` at the probe nodes against the next finer rung; both are None
    when the caller fixed the panel count.  ``cond_probe`` and
    ``factor_deviation`` are the worst ``cond`` and relative difference of the
    kernel's terms from its values (:func:`_factor_deviation`) at the probes."""

    chart: GridChart
    beta_values: np.ndarray  # (N, N) + grid
    psi_values: np.ndarray  # (N,) + grid
    cond_probe: float
    factor_deviation: float
    max_residual: float
    panels: int | None
    quadrature_error: float | None

    def frame(self) -> LameFrame:
        """The Riemannian frame ``H = psi`` of ``beta``."""
        return LameFrame(self.chart, self.psi_values, self.beta_values, (1,) * self.chart.dim)


def extract_beta(
    potentials: PotentialSet,
    chart: GridChart,
    profile: ReductionProfile | None = None,
    panels: int | None = None,
    use_tilde: bool = False,
) -> DressedField:
    """Solve the dressing problem at ``s = 0`` at every node of a coordinate
    chart, with panels of :data:`DEFAULT_NODES_PER_PANEL` nodes.

    ``profile`` scales the kernel only with ``use_tilde``.  The truncation
    length is fixed from the chart bounds, so every node shares one rule and
    tail probe.  The set's separable terms are tabulated on the chart's axes
    and each node is solved in r-space (:func:`_woodbury`), in batches of
    about :data:`BATCH_BYTES`.  Every node passes the non-finite, truncation
    and sign gates and reports its collocation residual.  At the corners and
    centre, from the same tables and without solving them again
    (:func:`_cond_probe`), the terms are checked against the kernel's values
    and ``cond`` is measured; ``cond_probe`` and ``factor_deviation`` are the
    worst there.

    Without ``panels``, ``beta`` and ``psi`` at the corners and centre are
    solved on each rung of :data:`PANEL_LADDER`; the window takes the coarser
    rung of the first neighbouring pair that agrees to :data:`QUADRATURE_TOL`
    and reports it and that change as ``panels`` and ``quadrature_error``
    (:class:`QuadratureUnresolved` if none does).  The whole ladder is one
    factor table at the probes' places (:func:`_factor_table`); rung by rung,
    in climb order, each is gated and solved from its own columns
    (:func:`_rule_tables`), so it raises what it would raise tabulated alone,
    and no rung past the converged pair is gated.  An explicit ``panels`` is
    used as given, without a search.
    """
    n = potentials.n
    if chart.dim != n:
        raise ValueError("chart dimension must equal the component count")
    if use_tilde and profile is None:
        raise ValueError("no reduction profile on this problem")
    s = 0.0
    length = _truncation_length(
        potentials, (*chart.lower, *chart.upper), s, panels, DEFAULT_NODES_PER_PANEL
    )
    points = np.stack(chart.meshgrid(), axis=-1).reshape(-1, n)
    index = np.indices(chart.shape).reshape(n, -1).T  # [node, l] = its place on axis l
    probe = np.zeros(chart.shape, dtype=bool)
    probe[np.ix_(*[[0, m - 1] for m in chart.shape])] = True
    probe[tuple(m // 2 for m in chart.shape)] = True
    probe = np.flatnonzero(probe)

    rank, ratio, t_range = kernel_rank(potentials), profile if use_tilde else None, (s, s + length)
    # the ladder reads only the probes' places on each axis: rows ``probe_index`` of its tables
    ends = [np.unique([0, m // 2, m - 1]) for m in chart.shape]
    probe_index = np.stack([np.searchsorted(e, index[:, l]) for l, e in enumerate(ends)], 1)

    def axis_kernel(places) -> PotentialKernel:
        """At points whose ``p``-th holds the ``places[l][p]``-th value of
        each coordinate ``l``, the last one again on shorter lists."""
        rows = np.arange(max(map(len, places)))
        return PotentialKernel(potentials, np.stack(
            [chart.axis_coordinates(l)[p[np.minimum(rows, len(p) - 1)]]
             for l, p in enumerate(places)], axis=-1), ratio, t_range)

    def solve(tables: _Tables, rows: np.ndarray, at: np.ndarray, with_residual: bool):
        """beta, psi and the residual at the nodes ``at``, whose places are
        ``rows[at]`` in ``tables``, in batches of :func:`_batch_size`."""
        size, parts = _batch_size(n, tables.left.shape[-1] - 1, rank), []
        for start in range(0, len(at), size):
            batch = at[start:start + size]
            _, k_ss, psi, residual = _woodbury(
                tables, rows[batch], points[batch], length, with_residual)
            parts.append((k_ss.swapaxes(1, 2), psi, residual))  # beta_{ij} = K_{ji}(s, s)
        return [np.concatenate(p) for p in zip(*parts)]

    estimate = None
    if panels is None:
        # one table holds every rung's nodes; each rung is gated and solved from its columns
        rules = [_panel_quadrature(s, length, rung, DEFAULT_NODES_PER_PANEL)
                 for rung in PANEL_LADDER]
        ladder = _factor_table(axis_kernel(ends), s, length, [nodes for nodes, _ in rules])
        panels, estimate = _converged_rung(lambda r: solve(
            _rule_tables(ladder, r, rules[r][1]), probe_index, probe, False)[:2])
    nodes, weights = _panel_quadrature(s, length, panels, DEFAULT_NODES_PER_PANEL)
    axes = axis_kernel([np.arange(m) for m in chart.shape])
    tables = _tabulate(axes, s, length, nodes, weights)
    beta, psi, residual = solve(tables, index, np.arange(len(points)), True)
    # the few probes are checked at once, with the kernel's values at their points
    cond, deviation = _cond_probe(
        PotentialKernel(potentials, points[probe], ratio, t_range), tables, index[probe],
        points[probe], np.concatenate(([s], nodes)), weights)
    # the node-major batches, [node, i, ...], read as [i, ..., grid ...]
    return DressedField(
        chart, beta.transpose(1, 2, 0).reshape((n, n) + chart.shape),
        psi.T.reshape((n,) + chart.shape),
        float(np.max(cond)), float(np.max(deviation)), float(np.max(residual)),
        None if estimate is None else panels, estimate,
    )


def _converged_rung(solve: Callable) -> tuple[int, float]:
    """The coarser rung of the first pair of neighbouring ladder rungs whose
    ``beta`` and ``psi`` differ by at most :data:`QUADRATURE_TOL`, and that
    difference; ``solve(r)`` gives them on rung ``PANEL_LADDER[r]``."""
    coarse = None
    for r, rung in enumerate(PANEL_LADDER):
        beta, psi = solve(r)
        if coarse is not None:
            coarse_rung, coarse_beta, coarse_psi = coarse
            change = gc.worst((np.max(np.abs(beta - coarse_beta)), np.max(np.abs(psi - coarse_psi))))
            if change <= QUADRATURE_TOL:
                return coarse_rung, change
        coarse = (rung, beta, psi)
    raise QuadratureUnresolved(change, QUADRATURE_TOL, PANEL_LADDER[-1])


def quadrature_change(problem: DressingProblem, solution: DressingSolution) -> float:
    """``max |beta_p - beta_p'|`` at the problem's point: ``p`` is
    ``problem.panels`` and ``p'`` the next rung of :data:`PANEL_LADDER`
    (``2p`` beyond the ladder) — the quadrature estimate of one solve."""
    finer = next((rung for rung in PANEL_LADDER if rung > problem.panels), 2 * problem.panels)
    reference = solve_marchenko(
        replace(problem, panels=finer), kernel=solution.kernel, estimate_cond=False
    )
    return float(np.max(np.abs(reference.beta() - solution.beta())))


# ---------------------------------------------------------------------------
# tilde consistency


@dataclass
class TildeReport:
    kernel_deviation: float
    beta_deviation: float


def verify_tilde_consistency(problem: DressingProblem, base: DressingSolution) -> TildeReport:
    """Solve the profile-scaled problem and confirm, against the solution
    ``base`` of the base problem,

    * ``K~_{ij}(s, q) = (r_j(q)/r_i(s)) K_{ij}(s, q)`` at the nodes, and
    * ``beta~_{ij} = (r_i(s)/r_j(s)) beta_{ij}`` on the diagonal,

    where ``r_l(t) = sqrt|f^l(u^l - t)|``.
    """
    tilde = solve_marchenko(problem, kernel=problem.tilde_kernel(), estimate_cond=False)

    def roots(t):
        """``[l, ...] = r_l(t)``."""
        return np.stack([problem.profile.root(l, u - t) for l, u in enumerate(problem.u)])

    r_q, r_s = roots(base.nodes), roots(np.array(problem.s))
    scaled = r_q[None, :, :] / r_s[:, None, None] * base.k_nodes
    kernel_dev = float(np.max(np.abs(tilde.k_nodes - scaled)))
    expected = (r_s[:, None] / r_s[None, :]) * base.beta()
    beta_dev = float(np.max(np.abs(tilde.beta() - expected)))
    return TildeReport(kernel_dev, beta_dev)
