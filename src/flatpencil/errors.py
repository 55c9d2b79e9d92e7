"""Exception types shared by the flatpencil modules.

Every error that can escape a public operation is defined here so the CLI can
map any failure onto a single exit path.  Errors that point at a concrete grid
location carry the multi-index of the offending node as plain ints and,
where the chart is known, its physical coordinates.
"""

from __future__ import annotations


def _plain(values) -> tuple:
    """Python ints and floats, so a node prints as ``(4, 0)``."""
    return tuple(int(v) if hasattr(v, "__index__") else float(v) for v in values)


class FlatpencilError(Exception):
    """Base class for all package-specific failures."""

    def _at(self, node, coords=None) -> str:
        """Store ``node`` and ``coords`` as plain numbers; return them as text."""
        self.node = _plain(node)
        self.coords = None if coords is None else _plain(coords)
        if self.coords is None:
            return f"{self.node}"
        return f"{self.node} (u = ({', '.join(format(c, '.12g') for c in self.coords)}))"


class NonFiniteSample(FlatpencilError):
    """A closure produced NaN/Inf at a grid node."""

    def __init__(self, node, detail="", coords=None):
        where = self._at(node, coords)
        super().__init__(f"non-finite sample at grid node {where} {detail}".rstrip())


class ChartTooCoarse(FlatpencilError):
    """An axis has too few points for the requested stencil."""

    def __init__(self, axis, points, needed):
        self.axis = axis
        self.points = points
        self.needed = needed
        super().__init__(
            f"axis {axis} has {points} points, stencil needs at least {needed}"
        )


class DegenerateMetric(FlatpencilError):
    """A metric is singular at a node: its determinant fell below the floor,
    or its row-scaled condition number exceeds ``KAPPA_CAP`` of its dimension
    (lower from n = 3); ``reason`` says which, with the value and its limit."""

    def __init__(self, node, reason, coords=None):
        super().__init__(f"{reason} at node {self._at(node, coords)}")


class DegenerateCombination(FlatpencilError):
    """A sampled linear combination of the pencil metrics is degenerate."""

    def __init__(self, lam1, lam2, cause):
        self.lam = (lam1, lam2)
        super().__init__(f"combination ({lam1}, {lam2}) degenerate: {cause}")


class EigensolveFailure(FlatpencilError):
    """The pointwise eigensolve for the pencil spectrum did not converge."""


class NotDiagonal(FlatpencilError):
    """An operation requiring diagonal metrics met an off-diagonal entry."""

    def __init__(self, offdiag, tol):
        self.offdiag = offdiag
        self.tol = tol
        super().__init__(f"off-diagonal magnitude {offdiag:.3e} exceeds {tol:.3e}")


class NotFlatCoordinates(FlatpencilError):
    """Chart coordinates are not flat coordinates of the reference metric."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"reference connection residual {residual:.3e} exceeds {tol:.3e}; "
            "construction requires flat coordinates"
        )


class SignMismatch(FlatpencilError):
    """A metric entry disagrees with its declared sign somewhere on the box."""

    def __init__(self, node, axis, value, coords=None):
        self.axis = axis = int(axis)
        super().__init__(
            f"sign * g^{{{axis}{axis}}} = {value:.3e} <= 0 at node {self._at(node, coords)}"
        )


class SignChange(FlatpencilError):
    """A profile component changes sign or vanishes on a range of ``t``."""

    def __init__(self, component, lo, hi):
        self.component = int(component)
        super().__init__(
            f"profile component {self.component} changes sign or vanishes "
            f"for t in [{lo:g}, {hi:g}]"
        )


class NonFiniteProfile(FlatpencilError):
    """A profile function is NaN or infinite somewhere on its range."""

    def __init__(self, component, t):
        self.component = int(component)
        self.t = float(t)
        super().__init__(f"profile component {self.component} is not finite at t = {self.t:g}")


class ResidualsTooLarge(FlatpencilError):
    """Frame residuals exceed the gate for building a metric pair."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"frame residual {residual:.3e} exceeds gate {tol:.3e}")


class VanishingB(FlatpencilError):
    """A diagonal entry ``b1`` or ``b2`` collapsed below the floor."""

    def __init__(self, name, node, value, floor, coords):
        self.name = name
        super().__init__(
            f"|{name}| = {abs(value):.3e} < floor {floor:.3e} at node {self._at(node, coords)}"
        )


class IllConditioned(FlatpencilError):
    """The collocation matrix condition number exceeds the trust cap."""

    def __init__(self, cond, cap):
        self.cond = cond
        self.cap = cap
        super().__init__(f"collocation matrix condition {cond:.3e} exceeds cap {cap:.3e}")


class FactorMismatch(FlatpencilError):
    """A dressing kernel's separable terms differ from its values in ``block``
    (i, j), relative to the block's largest value, at the point ``u``."""

    def __init__(self, deviation, tol, block, point):
        self.deviation, self.tol, self.block = deviation, tol, block
        super().__init__(
            f"terms of kernel block {block} differ from its values by {deviation:.3e} of the "
            f"block's largest value > {tol:.3e} at u = {self._at(point)}"
        )


class TruncationInsufficient(FlatpencilError):
    """Kernel mass beyond the truncation length is not negligible."""

    def __init__(self, mass, tol, length):
        self.mass = mass
        self.tol = tol
        super().__init__(
            f"estimated kernel tail mass {mass:.3e} beyond length {length:g} "
            f"exceeds {tol:.3e}"
        )


class QuadratureUnresolved(FlatpencilError):
    """No rung of the panel ladder converges to the quadrature bound."""

    def __init__(self, estimate, tol, panels):
        self.estimate = estimate
        self.tol = tol
        self.panels = panels
        super().__init__(
            f"quadrature change {estimate:.3e} exceeds {tol:.3e} up to {panels} panels"
        )


class SchemaError(FlatpencilError):
    """A scenario file does not match the documented schema."""


class ExpressionParseError(FlatpencilError):
    """An expression string uses syntax outside the supported grammar."""
