"""Built-in example data: metrics, pencils, two-component pairs, dressing sets.

Every entry freezes one fully specified configuration -- chart, coefficients,
combination samples, tolerances -- so that scenario runs and the test suite
exercise identical numbers.  Entries are listed in a stable order and each
reports residual rows.  An entry is either scenarios of command-line
kinds, which the kinds' runners compute and the entry's rows bound
(:class:`ScenarioRunner`), or a Python runner of its own, for checks no
kind reports as they stand: eleven entries are scenarios, and ``sphere``,
``potentials-quadratic`` and the three dressing entries are runners.

A note on the per-entry combination samples: a pencil check evaluates
``l1 g1 + l2 g2`` for several weight pairs, and a weight pair whose ratio
matches an attainable diagonal ratio of the two metrics produces a singular
combination (or a near-singular one whose finite differences are garbage).
Each entry therefore carries samples chosen to keep every combination well
conditioned on its own chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry_core as geo
from . import grid_calculus as gc
from . import lame_system as ls
from . import pencil_checker as pc
from . import two_component as tc
from . import zakharov_dressing as zd
from .errors import SchemaError
from .grid_calculus import GridChart

__all__ = [
    "CheckRow",
    "CatalogEntry",
    "ScenarioRunner",
    "ENTRIES",
    "names",
    "get",
    "run_entry",
    "metric_field",
    "metric_source",
    "metric_names",
    "two_component_case",
    "TWO_COMPONENT_POSITIVE",
    "TWO_COMPONENT_NEGATIVE",
    "rank1_case",
]


# combination samples, one safe set per chart family (see module docstring)
LAMS_S4 = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0), (2.0, -3.0))
LAMS_UNIT = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (3.0, -1.0), (1.0, 2.0))
LAMS_SHIFTED = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -3.0), (1.0, 2.0))


@dataclass(frozen=True)
class CheckRow:
    """One residual measurement with its acceptance bound.

    ``comparison`` is ``"le"`` for ordinary residuals and ``"ge"`` for
    negative controls, where a *large* residual is the expected outcome.
    """

    name: str
    residual: float
    bound: float
    comparison: str = "le"

    @property
    def passed(self) -> bool:
        if self.comparison == "le":
            return self.residual <= self.bound
        return self.residual >= self.bound

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "residual": self.residual,
            "bound": self.bound,
            "comparison": self.comparison,
            "verdict": "pass" if self.passed else "fail",
        }


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    summary: str
    runner: Callable[[], list]

    def run(self) -> list:
        return self.runner()


#: what a scenario entry runs under: the command line's defaults; the
#: entry's rows carry their own bounds, so this tolerance reaches no verdict
_SETTINGS = {"tolerance": 1e-6, "seed": 0}


@dataclass(frozen=True)
class ScenarioRunner:
    """An entry made of scenarios of command-line kinds, which their runners
    compute in order; ``rows`` bound the residuals they report, each row as
    (row name, the index of the scenario it reads, the kind's rows it reads,
    bound, comparison), and a row reading several takes the worst of them."""

    scenarios: tuple[dict, ...]
    rows: tuple[tuple[str, int, tuple[str, ...], float, str], ...]

    def __call__(self) -> list:
        from . import cli  # cli imports this module when it loads

        residuals = []
        for scenario in self.scenarios:
            report, _ = cli.run_scenario(scenario, _SETTINGS)
            residuals.append({check["check"]: check["residual"] for check in report["checks"]})
        return [CheckRow(row, gc.worst(residuals[at][key] for key in keys), bound, comparison)
                for row, at, keys, bound, comparison in self.rows]


# ---------------------------------------------------------------------------
# plain metrics


#: the plain metrics: name -> (chart, contravariant components)
_METRICS = {
    "euclidean": (GridChart((0.5, 0.5), (1.5, 1.5), (33, 33)), lambda u: np.eye(2)),
    "polar": (GridChart((1.0, 0.5), (2.0, 1.5), (101, 101)),
              lambda u: [[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]]),
    "sphere": (GridChart((0.6, 0.4), (1.2, 1.2), (65, 65)),
               lambda u: [[1.0, 0.0], [0.0, 1.0 / np.sin(u[0]) ** 2]]),
    "diag-u": (GridChart((0.5, 0.5), (1.5, 1.5), (65, 65)), lambda u: [[u[0], 0.0], [0.0, u[1]]]),
}


def metric_source(name: str) -> tuple[GridChart, Callable]:
    """The chart and the contravariant components, unsampled, of one of the
    plain-metric entries."""
    if name not in _METRICS:
        raise SchemaError(f"no plain metric named {name!r}")
    return _METRICS[name]


def metric_field(name: str) -> geo.MetricField:
    """The metric behind one of the plain-metric entries."""
    chart, contra = metric_source(name)
    return geo.build_metric(contra, chart)


def metric_names() -> tuple[str, ...]:
    return tuple(_METRICS)


def _flat_frame(name: str, bound: float) -> ScenarioRunner:
    """A flat diagonal metric: its flatness and its frame's Lamé residuals."""
    scenarios = tuple({"kind": kind, "metric": {"catalog": name}}
                      for kind in ("check-flat", "lame"))
    return ScenarioRunner(scenarios, (("flatness", 0, ("flatness",), bound, "le"),
                                      ("lame", 1, ("off_diagonal_system", "diagonal_system"),
                                       bound, "le")))


def _run_sphere():
    m = metric_field("sphere")
    curv = geo.curvature(m)  # one curvature, reduced two ways
    return [
        CheckRow(
            "constant_curvature_k1", gc.interior_max(curv.deviation(1.0), m.chart), 1e-5
        ),
        CheckRow("not_flat", gc.interior_max(curv.pointwise_max(), m.chart), 1e-2, "ge"),
    ]


# ---------------------------------------------------------------------------
# the logarithmic ladder


#: the ladder's chart, on which u1 > u2
_S4_CHART = {"lower": [2.0, 0.5], "upper": [3.0, 1.0], "points": [97, 65]}


def s4_chart() -> GridChart:
    return GridChart(*(tuple(_S4_CHART[key]) for key in ("lower", "upper", "points")))


def _ladder(n: int) -> dict:
    """``G_n = diag(-(u1)^n / b^2, (u2)^n / b^2)``, ``b = sqrt(u1 - u2)``, in the
    arithmetic of ``lame_system.diagonal_metric``, ``eps w / h**2``: its samples
    are those of ``two_component.g_family`` bit for bit."""
    return {"contravariant": [[f"-1 * u1 ** {n} / sqrt(u1 - u2) ** 2", 0],
                              [0, f"1 * u2 ** {n} / sqrt(u1 - u2) ** 2"]]}


def _ladder_pencil(top: int, bottom: int, **mode) -> dict:
    return {"kind": "check-pencil", "chart": _S4_CHART, "metric": _ladder(top),
            "metric2": _ladder(bottom), **mode, "lambda_samples": LAMS_S4}


# ---------------------------------------------------------------------------
# two-component verification cases: scenarios of the ``two-component`` kind


def _two_component(lower, upper, potential, eps, b, lams, rows, **extra) -> ScenarioRunner:
    """A ``two-component`` scenario on a 65 x 65 chart, with ``b = (b1, b2)``."""
    return ScenarioRunner(({"kind": "two-component",
                            "chart": {"lower": lower, "upper": upper, "points": [65, 65]},
                            "potential": potential, "eps": eps, "b1": b[0], "b2": b[1],
                            "lambda_samples": lams, **extra},), rows)


_POSITIVE_ROWS = (("lequa", 0, ("lequa",), 1e-10, "le"), ("system", 0, ("system",), 1e-8, "le"),
                  ("pair_flat", 0, ("pair_flat",), 1e-5, "le"))

#: name -> (summary, runner)
_TWO_COMPONENT = {
    "tc-log-unit": (
        "Log potential with unit coefficient and b = u1 - u2; compatible pair.",
        _two_component([2.0, 0.5], [3.0, 1.0], {"kind": "log", "c": 1.0}, [-1, 1],
                       ("u1 - u2",) * 2, LAMS_S4, _POSITIVE_ROWS),
    ),
    "tc-separable": (
        "Constant potential with axis-separable b; compatible by construction.",
        _two_component([0.5, 0.5], [1.5, 1.5], {"kind": "linear"}, [1, 1],
                       ("exp(u1)", "1.0 + 0.5 * u2 ** 2"), LAMS_S4, _POSITIVE_ROWS,
                       f=["2.0 + t ** 2", "3.0 + t"]),
    ),
    "tc-linear-exp": (
        "Linear potential with exponential b; closed-form compatible pair.",
        _two_component([0.75, 0.75], [1.75, 1.75], {"kind": "linear", "a": 0.3, "b": 0.3},
                       [-1, 1], ("exp(-0.3 * (u1 + u2))",) * 2, LAMS_SHIFTED, _POSITIVE_ROWS),
    ),
    # b genuinely solves the first-order system; the mixed equation and the
    # geometry are what fail
    "tc-product-bad": (
        "Product potential whose b solves the first-order system yet fails "
        "the mixed equation; the pair must fail geometrically.",
        _two_component([0.75, 0.75], [1.75, 1.75], {"kind": "product"}, [-1, 1],
                       ("exp(-(u1 ** 2 + u2 ** 2) / 2.0)",) * 2, LAMS_SHIFTED,
                       (("system", 0, ("system",), 1e-6, "le"),
                        ("lequa_fails", 0, ("lequa",), 1e-1, "ge"),
                        ("pair_not_flat", 0, ("pair_flat",), 1e-2, "ge"))),
    ),
    "tc-log-wrong-b": (
        "Log potential with a wrong b field; first-order system and pair both fail.",
        _two_component([2.0, 0.5], [3.0, 1.0], {"kind": "log", "c": 1.0}, [-1, 1],
                       ("exp(u1 * u2)",) * 2, LAMS_S4,
                       (("system_fails", 0, ("system",), 1e-2, "ge"),
                        ("pair_not_flat", 0, ("pair_flat",), 1e-2, "ge"))),
    ),
}

#: a negative control is a case that expects some residual to be large
_NEGATIVE = [any(row[4] == "ge" for row in runner.rows) for _, runner in _TWO_COMPONENT.values()]
TWO_COMPONENT_POSITIVE = tuple(name for name, neg in zip(_TWO_COMPONENT, _NEGATIVE) if not neg)
TWO_COMPONENT_NEGATIVE = tuple(name for name, neg in zip(_TWO_COMPONENT, _NEGATIVE) if neg)


def two_component_case(name: str):
    """Spec, combination samples, and expected verdict for a named case."""
    from . import cli  # cli imports this module when it loads

    if name not in _TWO_COMPONENT:
        raise SchemaError(f"no two-component case named {name!r}")
    [scenario] = _TWO_COMPONENT[name][1].scenarios
    return (cli.two_component_spec(scenario), scenario["lambda_samples"],
            name in TWO_COMPONENT_POSITIVE)


# ---------------------------------------------------------------------------
# constructions from potentials


def _run_potentials_quadratic():
    """Dubrovin's candidate at c = 0 over a constant metric, one potential per
    coordinate; the pencil check measures the candidate's flatness as g1."""
    eta = geo.build_metric(lambda u: np.eye(2), GridChart((1.0, 1.0), (2.0, 2.0), (65, 65)))
    g1 = pc.partner_metric(eta, lambda u: [0.5 * u[0] ** 2, 0.5 * u[1] ** 2])[0]
    rep = pc.check_compatible(pc.PencilSpec(g1, eta, LAMS_UNIT), "flat")
    return [
        CheckRow("candidate_flat", rep.endpoint_residuals["g1_flatness"], 1e-10),
        CheckRow("compatibility", rep.max_residual, 1e-6),
    ]


# ---------------------------------------------------------------------------
# dressing data


def dressing_gaussian_set() -> zd.PotentialSet:
    return zd.gaussian_set(3, amplitude=0.4, include_diagonal=True)


def _run_dressing_gaussian():
    pots, point = dressing_gaussian_set(), (0.1, -0.2, 0.25)
    field = zd.extract_beta(pots, np.array([point]))
    ident = zd.reduction_identity_residual(zd.PotentialKernel(pots, point))
    return [
        CheckRow("collocation_residual", field.max_residual, zd.COLLOCATION_BOUND),
        CheckRow("translation_identity", ident, zd.IDENTITY_BOUND),
        CheckRow("conditioning", field.cond_probe, 1e3),
    ]


def rank1_case():
    """The one-component kernel of one term ``a(s) b(s')`` and its closed-form resolvent."""
    a = lambda t: 0.6 * np.exp(-0.5 * np.asarray(t, dtype=float) ** 2)
    b = lambda t: 0.5 * np.exp(-0.5 * (np.asarray(t, dtype=float) - 0.3) ** 2)
    raw = zd.RawKernel(1, [(0, 0, a, b)], envelope=9.0)  # truncated at 10 from s = 0

    def exact(s: float, sp) -> np.ndarray:
        # int_s^inf a b = 0.3 e^{-0.0225} int_s^inf e^{-(t - 0.15)^2} dt
        overlap = 0.3 * math.exp(-0.0225) * 0.5 * math.sqrt(math.pi) * math.erfc(s - 0.15)
        return a(s) * b(sp) / (1.0 - overlap)

    return raw, exact


def _run_dressing_separable():
    raw, exact = rank1_case()
    field = zd.extract_beta(raw, np.zeros((1, 1)))
    # K(0, q_m) at the rule's nodes
    err = float(np.max(np.abs(field.k_nodes[0, 0, :, 0] - exact(0.0, field.rule[0]))))

    profile = ls.constant_profile((4.0, 1.0))
    good, bad = (
        zd.reduction_pde_residual(zd.PotentialSet(2, {(0, 1): pot}, {}, envelope=8.0), profile)
        for pot in (zd.separable_sum_pair(0.3, 0.2, 1.0), tc.product_potential())
    )
    return [
        CheckRow("rank1_resolvent", err, 1e-9),
        CheckRow("separable_reduction_pde", good.max_residual, 1e-10),
        CheckRow("product_reduction_pde", bad.max_residual, 1e-1, "ge"),
    ]


def reduced_pipeline():
    """Windowed two-component data pushed through the whole chain."""
    pots = zd.gaussian_set(2, amplitude=0.4, include_diagonal=True)
    chart = GridChart((-0.3, -0.3), (0.3, 0.3), (13, 13))
    profile = ls.constant_profile((2.0, 2.0))
    return pots, profile, zd.extract_beta(pots, chart, profile=profile)


def _run_dressing_reduced():
    pots, profile, field = reduced_pipeline()
    frame = field.frame()
    lame = ls.lame_residuals(frame)
    red = ls.reduction_residual(frame, profile)
    pen = ls.metric_pair_from_frame(frame, profile, tol=1e-4)
    flat = pc.check_compatible(pen, "flat")
    # an unequal, t-dependent profile: under equal constants the scaled
    # kernel is the base kernel and these rows compare a solve with itself
    linear = ls.ReductionProfile((lambda t: 2.0 + 0.2 * t, lambda t: 3.0 - 0.1 * t))
    point = np.array([[0.1, -0.1]])
    tilde = zd.verify_tilde_consistency(pots, linear, point, zd.extract_beta(pots, point))
    return [
        CheckRow("quadrature_error", field.quadrature_error, zd.QUADRATURE_TOL),
        CheckRow("lame", lame.max_residual, 1e-5),
        CheckRow("reduction", red.residual, 1e-5),
        CheckRow("pair_flat", flat.max_residual, 1e-4),
        CheckRow("tilde_kernel", tilde.kernel_deviation, zd.IDENTITY_BOUND),
        CheckRow("tilde_beta", tilde.beta_deviation, zd.IDENTITY_BOUND),
    ]


# ---------------------------------------------------------------------------
# the table itself

ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "euclidean", "metric",
        "Identity metric on a square box; the flatness baseline.",
        ScenarioRunner(({"kind": "check-flat", "metric": {"catalog": "euclidean"}},),
                       (("flatness", 0, ("flatness",), 1e-12, "le"),)),
    ),
    CatalogEntry(
        "polar", "metric",
        "Flat plane metric written in polar coordinates (r, theta).",
        _flat_frame("polar", 1e-6),
    ),
    CatalogEntry(
        "sphere", "metric",
        "Round unit-sphere metric; curvature is constantly one.",
        _run_sphere,
    ),
    CatalogEntry(
        "diag-u", "metric",
        "Diagonal metric g^{ii} = u^i; flat despite coordinate-dependent entries.",
        _flat_frame("diag-u", 1e-10),
    ),
    CatalogEntry(
        "s4-log-pencil", "pencil",
        "Ladder of diagonal metrics from the logarithmic closed form; "
        "consecutive members form flat pairs.",
        ScenarioRunner(  # g3, at constant curvature 1/4, is not flat
            (_ladder_pencil(1, 0), _ladder_pencil(2, 1), _ladder_pencil(2, 0),
             {"kind": "check-flat", "chart": _S4_CHART, "metric": _ladder(3)}),
            (*((f"pair_g{a}_g{b}_flat", at, ("connection_linearity", "curvature_flat"), 1e-5,
                "le") for at, (a, b) in enumerate(((1, 0), (2, 1), (2, 0)))),
             ("g3_not_flat", 3, ("flatness",), 1e-2, "ge"))),
    ),
    CatalogEntry(
        "s4-constant-curvature", "pencil",
        "Curvature-normalized top of the logarithmic ladder: constant "
        "curvature 1/4, compatible with its flat neighbour.",
        ScenarioRunner(  # the pencil check measures g3, its g1, against k1
            (_ladder_pencil(3, 2, mode="constant_curvature", k1=0.25, k2=0.0),),
            (("g3_constant_curvature", 0, ("g1_constant_curvature",), 1e-5, "le"),
             ("pencil_constant_curvature", 0,
              ("connection_linearity", "curvature_constant_curvature"), 1e-5, "le"))),
    ),
    *(CatalogEntry(name, "two-component", summary, runner)
      for name, (summary, runner) in _TWO_COMPONENT.items()),
    CatalogEntry(
        "dubrovin-quadratic", "construction",
        "Flat partner metric from a quadratic covector potential over the identity.",
        ScenarioRunner(({
            "kind": "dubrovin",
            "chart": {"lower": [1.0, 1.0], "upper": [2.0, 2.0], "points": [65, 65]},
            "metric": {"contravariant": [[1.0, 0.0], [0.0, 1.0]]},
            "covector": ["0.5 * u1 ** 2", "0.5 * u2 ** 2"], "c": 0.0,
            "lambda_samples": LAMS_UNIT,
        },), (("quadratic_relation", 0, ("quadratic_relation",), 1e-10, "le"),
              ("bracket", 0, ("bracket",), 1e-10, "le"),
              ("delta_consistency", 0, ("delta_consistency",), 1e-6, "le"),
              ("cross_check_flat", 0, ("cross_check_flat",), 1e-6, "le"))),
    ),
    CatalogEntry(
        "potentials-quadratic", "construction",
        "Candidate pair generated from per-coordinate quadratic potentials.",
        _run_potentials_quadratic,
    ),
    CatalogEntry(
        "dressing-gaussian", "dressing",
        "Three-component Gaussian scattering data: integral-equation solve "
        "plus kernel translation identities.",
        _run_dressing_gaussian,
    ),
    CatalogEntry(
        "dressing-separable", "dressing",
        "Rank-one separable kernel against its closed-form resolvent, with "
        "separable-potential reduction identities.",
        _run_dressing_separable,
    ),
    CatalogEntry(
        "dressing-reduced", "dressing",
        "Windowed two-component data with a constant reduction profile, "
        "carried through to a compatible flat pair.",
        _run_dressing_reduced,
    ),
)

_BY_NAME = {entry.name: entry for entry in ENTRIES}


def names() -> tuple[str, ...]:
    return tuple(entry.name for entry in ENTRIES)


def get(name: str) -> CatalogEntry:
    entry = _BY_NAME.get(name) if isinstance(name, str) else None
    if entry is None:
        raise SchemaError(
            f"unknown catalog entry {name!r}; known entries: {', '.join(names())}"
        )
    return entry


def run_entry(name: str) -> list:
    return get(name).run()
