"""Seeded operations for the three benchmark workloads.

A workload is one *round*: a fixed list of operations built from the seed,
which the runner repeats until its time is up.  The seed chooses
coefficients, boxes, centres, combination samples and the order of the
round; the multiset of (kind, grid size, sample count) in a round is the
same for every seed, so rounds of different seeds cost about the same.

Every operation knows the verdict it must give, from closed-form
mathematics (a separable diagonal metric is flat, the sphere is not, ...).
The library only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from flatpencil import catalog, cli
from flatpencil import lame_system as ls
from flatpencil import pencil_checker as pc
from flatpencil import zakharov_dressing as zd
from flatpencil.grid_calculus import GridChart

#: residual tolerance of every generated scenario; over the corners of every
#: seeded parameter range, passing families stay at least 5x below it and
#: failing ones at least 1e4x above it
TOLERANCE = 1e-5

#: criterion 07 bounds for a dressed window, and the collocation bound
WINDOW_BOUNDS = {"lame": 1e-5, "reduction": 1e-5, "pair_flat": 1e-4}
COLLOCATION_BOUND = 1e-10
WINDOW_HALF_WIDTH = 0.25


@dataclass(frozen=True)
class Outcome:
    verdict: str  # "pass" or "fail"
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class Op:
    """One timed call into the library and the judgement of its result.

    ``call`` is all that is timed; ``outcome`` turns its result into a
    verdict and the residual values behind it, untimed.
    """

    label: str
    expected: str
    call: Callable[[], object]
    outcome: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    warmups: tuple[Callable[[], object], ...]


def judge(expected: str, outcome: Outcome, probed: list[float]) -> str | None:
    """Why an operation failed, or ``None``.

    A verdict other than the expected one fails, and so does any non-finite
    residual, whether in the result or among the values the residual probe
    saw, even when the verdict matches.
    """
    if outcome.verdict != expected:
        return f"verdict {outcome.verdict!r}, expected {expected!r}"
    bad = sum(1 for v in (*outcome.residuals, *probed) if not math.isfinite(v))
    if bad:
        return f"{bad} non-finite residual(s)"
    return None


# ---------------------------------------------------------------------------
# cli-scenarios


def _settings(seed: int) -> dict:
    return {"tolerance": TOLERANCE, "order": 4, "seed": seed}


def _chart(lower, upper, n: int) -> dict:
    return {"lower": list(lower), "upper": list(upper), "points": [n] * len(lower)}


def _diag(*cells) -> list:
    n = len(cells)
    return [[cells[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _u(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _pick(rng, pool, k: int) -> list:
    idx = rng.permutation(len(pool))[:k]
    return [list(pool[i]) for i in sorted(idx)]


# combination samples that keep every generated combination nondegenerate
POSITIVE_LAMS = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (3, 1), (1, 3), (2, 3), (3, 2))
# for the logarithmic ladder, l1 u + l2 must not vanish for u in [0.5, 3.5];
# a sample such as (2, -3), whose zero lies between the two coordinate
# ranges, brings the 65^2 general-mode residual up to the tolerance
LADDER_LAMS = ((1, 0), (0, 1), (1, 1), (2, 3), (-1, 5), (1, 2), (3, 1), (1, 5))


def _separable_pair(rng, n: int) -> dict:
    """diag(p(u1), q(u2)) and diag(f1(u1) p, f2(u2) q): a flat pencil whose
    ratio eigenvalues never meet (f1 <= 3.8 < 5.6 <= f2)."""
    a = _u(rng, 0.5, 0.8)
    p0, p1 = _u(rng, 1.0, 2.0), _u(rng, 0.1, 0.5)
    q0, q1 = _u(rng, 1.5, 2.5), _u(rng, 0.2, 0.6)
    r0, s0 = _u(rng, 1.0, 2.0), _u(rng, 4.0, 5.0)
    p, q = f"({p0} + {p1}*u1*u1)", f"({q0} + {q1}*u2)"
    return {
        "chart": _chart((a, a), (a + 1, a + 1), n),
        "metric": {"contravariant": _diag(f"{p}*({r0} + u1)", f"{q}*({s0} + exp(u2))")},
        "metric2": {"contravariant": _diag(p, q)},
    }


def _ladder_pair(rng, n: int) -> tuple[dict, float]:
    """Members 3 and 2 of the logarithmic ladder scaled to curvature K:
    g3 has constant curvature K, g2 is flat, and they are compatible."""
    k = _u(rng, 0.2, 0.4)
    d = _u(rng, 0.0, 0.5)
    c = round(4 * k, 6)
    g3 = _diag(f"-{c}*u1*u1*u1/(u1 - u2)", f"{c}*u2*u2*u2/(u1 - u2)")
    g2 = _diag(f"-{c}*u1*u1/(u1 - u2)", f"{c}*u2*u2/(u1 - u2)")
    return {
        "chart": _chart((2 + d, 0.5), (3 + d, 1.0), n),
        "metric": {"contravariant": g3},
        "metric2": {"contravariant": g2},
    }, c / 4


def _sphere(rng, n: int, dim: int) -> dict:
    """The round sphere scaled to curvature c: never flat."""
    c = _u(rng, 0.5, 2.0)
    d = _u(rng, 0.0, 0.3)
    cells = [f"{c}", f"{c}/(sin(u1)*sin(u1))", f"{c}/(sin(u1)*sin(u1)*sin(u2)*sin(u2))"]
    if dim == 2:
        lower, upper = (0.6 + d, 0.4), (1.2 + d, 1.2)
    else:
        lower, upper = (0.6 + d, 0.6 + d, 0.4), (1.2 + d, 1.2 + d, 1.2)
    return {"chart": _chart(lower, upper, n), "metric": {"contravariant": _diag(*cells[:dim])}}


def _polar(rng, n: int) -> dict:
    c = _u(rng, 0.5, 2.0)
    d = _u(rng, 0.0, 0.5)
    return {
        "chart": _chart((1 + d, 0.5), (2 + d, 1.5), n),
        "metric": {"contravariant": _diag("1", f"{c}/(u1*u1)")},
    }


def _diag3(rng, n: int) -> dict:
    a = [_u(rng, 0.5, 2.0) for _ in range(3)]
    d = _u(rng, 0.0, 0.5)
    return {
        "chart": _chart((0.5 + d,) * 3, (1.5 + d,) * 3, n),
        "metric": {"contravariant": _diag(*(f"{a[i]}*u{i + 1}" for i in range(3)))},
    }


def _log_two_component(rng, n: int) -> tuple[dict, float, float]:
    k = _u(rng, 0.5, 2.0)
    d = _u(rng, 0.0, 0.5)
    lo1, lo2 = 2 + d, 0.5
    return {
        "chart": _chart((lo1, lo2), (lo1 + 1, lo2 + 0.5), n),
        "potential": {"kind": "log", "c": 1.0},
        "eps": [-1, 1],
        "lambda_samples": [list(p) for p in catalog.LAMS_S4],
    }, k, (lo1, lo2)


def cli_round(rng) -> list[tuple[str, dict, str]]:
    """(label, scenario, expected verdict) for one round of cli-scenarios."""
    out = []

    def add(label, scenario, expected):
        out.append((label, scenario, expected))

    for n, k in ((129, 5), (81, 7)):
        s = _separable_pair(rng, n)
        add(f"check-pencil flat separable {n}^2 {k}lam",
            {"kind": "check-pencil", "mode": "flat", **s,
             "lambda_samples": _pick(rng, POSITIVE_LAMS, k)}, "pass")
    for mode, n, k in (("constant_curvature", 81, 3), ("general", 65, 4)):
        s, curv = _ladder_pair(rng, n)
        add(f"check-pencil {mode} ladder {n}^2 {k}lam",
            {"kind": "check-pencil", "mode": mode, **s, "k1": curv, "k2": 0.0,
             "lambda_samples": _pick(rng, LADDER_LAMS, k)}, "pass")
    sphere = _sphere(rng, 97, 2)
    add("check-pencil flat sphere 97^2 2lam",
        {"kind": "check-pencil", "mode": "flat", **sphere,
         "metric2": {"contravariant": _diag("1", "1")},
         "lambda_samples": _pick(rng, POSITIVE_LAMS, 2)}, "fail")
    add("check-flat polar 113^2", {"kind": "check-flat", **_polar(rng, 113)}, "pass")
    add("check-flat sphere 65^2", {"kind": "check-flat", **_sphere(rng, 65, 2)}, "fail")
    add("check-flat diag3 33^3", {"kind": "check-flat", **_diag3(rng, 33)}, "pass")
    add("check-flat sphere3 17^3", {"kind": "check-flat", **_sphere(rng, 17, 3)}, "fail")
    add("nijenhuis separable 65^2", {"kind": "nijenhuis", **_separable_pair(rng, 65)}, "pass")
    add("diagonal-form separable 81^2",
        {"kind": "diagonal-form", **_separable_pair(rng, 81)}, "pass")
    add("lame polar 129^2", {"kind": "lame", **_polar(rng, 129)}, "pass")
    p = [_u(rng, 1.0, 3.0) for _ in range(3)]
    add("reduce diag3 25^3",
        {"kind": "reduce", **_diag3(rng, 25),
         "profile": {"expressions": [f"{p[0]} + t", f"{p[1]} + t*t", f"{p[2]} + exp(t)"]}},
        "pass")
    s, k, _ = _log_two_component(rng, 97)
    add("two-component log 97^2",
        {"kind": "two-component", **s, "b1": f"{k}*(u1 - u2)", "b2": f"{k}*(u1 - u2)"},
        "pass")
    s, k, _ = _log_two_component(rng, 65)
    # k <= 1 keeps det g above the library's degeneracy floor, which is
    # relative to max|g| and would reject exp(-4 k u1 u2) for larger k
    k = round(k / 2, 6)
    add("two-component wrong-b 65^2",
        {"kind": "two-component", **s, "b1": f"exp({k}*u1*u2)", "b2": f"exp({k}*u1*u2)"},
        "fail")
    s, k, (lo1, lo2) = _log_two_component(rng, 81)
    add("two-component integrate 81^2",
        {"kind": "two-component", **s,
         "integrate": {"b1_edge": f"{k}*(u1 - {lo2})", "b2_edge": f"{k}*({lo1} - u2)"}},
        "pass")
    return [out[i] for i in rng.permutation(len(out))]


def _scenario_op(label: str, scenario: dict, expected: str, settings: dict) -> Op:
    def call():
        report, _ = cli.run_scenario(scenario, settings)
        return report, cli.dumps(report)

    def outcome(result) -> Outcome:
        report, text = result
        if json.loads(text)["verdict"] != report["verdict"]:
            raise ValueError("serialized report disagrees with the report")
        return Outcome(report["verdict"], tuple(row["residual"] for row in report["checks"]))

    return Op(label, expected, call, outcome)


def _shrink(scenario: dict) -> dict:
    """The same scenario on 9 nodes per axis, for a cheap warm-up."""
    chart = dict(scenario["chart"])
    chart["points"] = [9] * len(chart["points"])
    return {**scenario, "chart": chart}


def cli_scenarios(seed: int) -> Workload:
    settings = _settings(seed)
    scenarios = cli_round(np.random.default_rng(seed))
    ops = tuple(_scenario_op(*item, settings) for item in scenarios)
    warmups = tuple(
        (lambda s=_shrink(s): cli.dumps(cli.run_scenario(s, settings)[0]))
        for _, s, _ in scenarios
    )
    return Workload(ops, warmups)


# ---------------------------------------------------------------------------
# catalog-sweep


def _sweep_op(names: list[str]) -> Op:
    """One pass over the catalog: the body of the acceptance suite.

    The whole sweep is one operation, so every operation costs the same and
    the median latency does not jump between entries of different cost.
    """

    def outcome(results) -> Outcome:
        rows = [row for rows in results for row in rows]
        verdict = "pass" if all(row.passed for row in rows) else "fail"
        return Outcome(verdict, tuple(row.residual for row in rows))

    return Op("catalog sweep", "pass",
              lambda: [catalog.run_entry(name) for name in names], outcome)


def catalog_sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    names = catalog.names()
    ops = (_sweep_op([names[i] for i in rng.permutation(len(names))]),)
    last_of_kind = {entry.kind: entry.name for entry in catalog.ENTRIES}
    warmups = tuple(
        (lambda name=name: catalog.run_entry(name)) for name in last_of_kind.values()
    )
    return Workload(ops, warmups)


# ---------------------------------------------------------------------------
# dressing-window


def potential_set(components: int) -> zd.PotentialSet:
    """The catalog's Gaussian scattering data for 2 or 3 components."""
    if components == 3:
        return catalog.dressing_gaussian_set()
    return zd.gaussian_set(2, amplitude=0.4, include_diagonal=True)


def window_pipeline(pots, chart: GridChart, profile):
    """Criterion 07: dress the window, then check the frame and the pair."""
    field = zd.extract_beta(pots, chart, profile=profile)
    frame = field.frame()
    lame = ls.lame_residuals(frame)
    red = ls.reduction_residual(frame, profile)
    pencil = ls.metric_pair_from_frame(frame, profile, tol=WINDOW_BOUNDS["pair_flat"])
    flat = pc.check_compatible(pencil, "flat")
    return field, lame, red, flat


def _window_outcome(result) -> Outcome:
    field, lame, red, flat = result
    lame_values = (*lame.off_diagonal.values(), *lame.diagonal.values())
    red_values = tuple(red.pairs.values())
    flat_values = (
        *flat.connection_by_sample.values(),
        *flat.curvature_by_sample.values(),
        *flat.endpoint_residuals.values(),
    )
    ok = (
        field.max_residual <= COLLOCATION_BOUND
        and all(v <= WINDOW_BOUNDS["lame"] for v in lame_values)
        and all(v <= WINDOW_BOUNDS["reduction"] for v in red_values)
        and all(v <= WINDOW_BOUNDS["pair_flat"] for v in flat_values)
    )
    residuals = (field.max_residual, *lame_values, *red_values, *flat_values)
    return Outcome("pass" if ok else "fail", residuals)


#: (components, points per axis) of the windows in one round
WINDOWS = ((2, 9), (2, 11), (2, 13), (2, 15), (2, 17), (3, 9))


def _window_chart(centre, points: int) -> GridChart:
    h = WINDOW_HALF_WIDTH
    return GridChart(
        tuple(c - h for c in centre), tuple(c + h for c in centre), (points,) * len(centre)
    )


def dressing_window(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    sets = {n: potential_set(n) for n in (2, 3)}
    ops = []
    for n, points in WINDOWS:
        centre = tuple(_u(rng, -0.15, 0.15) for _ in range(n))
        profile = ls.constant_profile((_u(rng, 1.5, 3.0),) * n)
        chart = _window_chart(centre, points)
        ops.append(Op(
            f"window {n}c {points}^{n}",
            "pass",
            lambda p=sets[n], c=chart, f=profile: window_pipeline(p, c, f),
            _window_outcome,
        ))
    ops = tuple(ops[i] for i in rng.permutation(len(ops)))
    warm_profile = ls.constant_profile((2.0, 2.0))
    warmups = (
        lambda: window_pipeline(sets[2], _window_chart((0.0, 0.0), 9), warm_profile),
        lambda: zd.extract_beta(sets[3], _window_chart((0.0, 0.0, 0.0), 2),
                                profile=ls.constant_profile((2.0,) * 3)),
    )
    return Workload(ops, warmups)


WORKLOADS = {
    "cli-scenarios": cli_scenarios,
    "catalog-sweep": catalog_sweep,
    "dressing-window": dressing_window,
}
