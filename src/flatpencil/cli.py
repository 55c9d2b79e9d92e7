"""Scenario-driven command line front end.

``flatpencil run scenario.json`` loads a JSON scenario, executes the named
pipeline, prints a machine-readable report, and exits 0 when every check
passes, 2 when some check fails, and 1 on configuration or runtime errors.
``flatpencil catalog`` lists the built-in examples.

Reports are byte-stable: floats are serialized in their shortest
round-trip form, row order is fixed by construction, and wall-clock timing
goes to stderr instead of the report body.  Flags may also be supplied
through environment variables with the prefix ``FLATPENCIL_``
(``FLATPENCIL_TOL``, ``FLATPENCIL_ORDER``, ``FLATPENCIL_SEED``,
``FLATPENCIL_OUT``, ``FLATPENCIL_DUMP_CSV``); an explicit flag wins over the
environment, and both win over the scenario file.

Only the kinds that check compatibility form combinations of two metrics,
so only they read ``lambda_samples``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from . import __version__
from . import catalog as cat
from . import geometry_core as geo
from . import lame_system as ls
from . import pencil_checker as pc
from . import two_component as tc
from . import zakharov_dressing as zd
from .catalog import CheckRow
from .errors import DegenerateMetric, FlatpencilError, SchemaError
from .expressions import compile_expression
from .grid_calculus import DEFAULT_ORDER, GridChart, interior_max, sample


# ---------------------------------------------------------------------------
# deterministic JSON


def _format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _plain_number(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise SchemaError(f"cannot serialize {type(obj).__name__} into a report")


def dumps(obj) -> str:
    """JSON indented by two spaces, keys in insertion order, floats in their
    shortest round-trip form; numpy scalars print as Python numbers."""
    return json.dumps(obj, indent=2, default=_plain_number)


# ---------------------------------------------------------------------------
# scenario parsing helpers


def _need(scenario: dict, field: str, kind: str):
    if field not in scenario:
        raise SchemaError(f"scenario kind {kind!r} requires field {field!r}")
    return scenario[field]


def _number(value, field: str, convert=float):
    """``value`` as one ``convert``-ed number; :class:`SchemaError` naming
    ``field`` if it is not a JSON number (a boolean is not), or not integral
    where ``convert`` is ``int``."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        out = convert(value)
        if convert is int and out != value:  # int() truncates 9.9 to 9
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if convert is int else "a number"
        raise SchemaError(f"{field} must be {noun}, got {value!r}") from None
    return out


def _numbers(value, field: str, convert=float, length: int | None = None) -> tuple:
    """``value`` as a tuple of numbers read by :func:`_number`;
    :class:`SchemaError` naming ``field`` if it is not such a list or not
    ``length`` long."""
    noun = "integers" if convert is int else "numbers"
    bad = SchemaError(f"{field} must be a list of {noun}, got {value!r}")
    if not isinstance(value, (list, tuple)):
        raise bad
    try:
        out = tuple(_number(v, field, convert) for v in value)
    except SchemaError:
        raise bad from None
    if length is not None and len(out) != length:
        raise SchemaError(f"{field} needs {length} numbers, got {len(out)}")
    return out


def _chart_from_spec(spec, order: int) -> GridChart:
    if not isinstance(spec, dict):
        raise SchemaError("chart must be an object with lower/upper/points")
    for key in ("lower", "upper", "points"):
        if key not in spec:
            raise SchemaError(f"chart is missing {key!r}")
    lower = _numbers(spec["lower"], "chart lower")
    upper = _numbers(spec["upper"], "chart upper", length=len(lower))
    points = _numbers(spec["points"], "chart points", int, len(lower))
    return GridChart(lower, upper, points, order)


def _coordinate_names(n: int) -> tuple[str, ...]:
    return tuple(f"u{i + 1}" for i in range(n))


def _compile_cell(cell, variables) -> Callable:
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        value = float(cell)
        return lambda *args, value=value: value
    if isinstance(cell, str):
        return compile_expression(cell, variables)
    raise SchemaError(f"expected a number or expression string, got {cell!r}")


def _metric_from_spec(spec, chart: GridChart | None, kind: str, order: int):
    """Returns (metric, chart); a catalog reference supplies its own chart,
    rebuilt at the stencil ``order`` (its sampled values do not change)."""
    if not isinstance(spec, dict):
        raise SchemaError("metric must be an object")
    if "catalog" in spec:
        name = spec["catalog"]
        if name not in cat.metric_names():
            raise SchemaError(
                f"{name!r} is not a plain-metric catalog entry "
                f"(choose from {', '.join(cat.metric_names())})"
            )
        metric = cat.metric_field(name)
        if metric.chart.order != order:
            metric = geo.build_metric(metric.contra.values, replace(metric.chart, order=order))
        return metric, metric.chart
    if chart is None:
        raise SchemaError(f"scenario kind {kind!r} needs a chart for inline metrics")
    rows = spec.get("contravariant")
    if rows is None:
        raise SchemaError("metric needs 'contravariant' rows or a 'catalog' name")
    n = chart.dim
    if not isinstance(rows, (list, tuple)) or len(rows) != n or any(
            not isinstance(r, (list, tuple)) or len(r) != n for r in rows):
        raise SchemaError(f"metric must be a {n}x{n} matrix of entries, got {rows!r}")
    names = _coordinate_names(n)
    fns = [[_compile_cell(cell, names) for cell in row] for row in rows]
    metric = geo.build_metric(lambda u: [[fn(*u) for fn in row] for row in fns], chart)
    return metric, chart


def _profile_from_spec(spec, n: int) -> ls.ReductionProfile:
    if not isinstance(spec, dict):
        raise SchemaError("profile must be an object")
    if "constant" in spec:
        return ls.constant_profile(_numbers(spec["constant"], "profile constant", length=n))
    if "expressions" in spec:
        exprs = spec["expressions"]
        if not isinstance(exprs, list) or len(exprs) != n:
            raise SchemaError(f"profile needs a list of {n} expressions in t")
        return ls.ReductionProfile(_compile_cell(e, ("t",)) for e in exprs)
    raise SchemaError("profile needs 'constant' values or 'expressions' in t")


def _lambda_samples(scenario: dict) -> tuple:
    raw = scenario.get("lambda_samples")
    if raw is None:
        return pc.DEFAULT_LAMBDA_SAMPLES
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SchemaError("lambda_samples must be a non-empty list of [l1, l2] pairs")
    return tuple(_numbers(pair, "each lambda sample", length=2) for pair in raw)


def _potential_from_spec(spec) -> tc.Potential:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("potential must be an object with a 'kind'")
    pkind = spec["kind"]
    if pkind == "log":
        return tc.log_potential(_number(spec.get("c", 1.0), "c"))
    if pkind == "linear":
        return tc.linear_potential(_number(spec.get("a", 0.0), "a"),
                                   _number(spec.get("b", 0.0), "b"))
    if pkind == "product":
        return tc.product_potential()
    if pkind == "expression":
        if "value" not in spec:
            raise SchemaError("expression potential needs 'value'")
        return tc.Potential(value=_compile_cell(spec["value"], ("u1", "u2")))
    raise SchemaError(f"unknown potential kind {pkind!r}")


def _field_from_expr(expr, chart: GridChart) -> np.ndarray:
    fn = _compile_cell(expr, _coordinate_names(chart.dim))
    return sample(lambda u: fn(*u), chart).values


def _potential_set_from_spec(spec) -> zd.PotentialSet:
    if not isinstance(spec, dict):
        raise SchemaError("potentials must be an object")
    preset = spec.get("preset", "gaussian")
    if preset != "gaussian":
        raise SchemaError(f"unknown potential preset {preset!r}")
    diagonal = spec.get("include_diagonal", False)
    if not isinstance(diagonal, bool):
        raise SchemaError(f"include_diagonal must be true or false, got {diagonal!r}")
    return zd.gaussian_set(
        _number(spec.get("components", 2), "components", int),
        amplitude=_number(spec.get("amplitude", 0.2), "amplitude"),
        width=_number(spec.get("width", 1.0), "width"),
        include_diagonal=diagonal,
    )


# ---------------------------------------------------------------------------
# per-kind pipelines; each returns (rows, metadata, csv fields)


def _run_check_flat(scenario, settings):
    metric, chart = _optional_chart_metric(scenario, "check-flat", settings["order"])
    field = geo.curvature(metric).pointwise_max()  # max |R^i_{jkl}| at each node
    return (
        [CheckRow("flatness", interior_max(field, chart), settings["tolerance"])],
        {"chart": _chart_meta(chart)},
        {"flatness": (chart, field)},
    )


def _optional_chart_metric(scenario, kind, order):
    """(metric, chart) of a scenario whose chart may come from a catalog metric."""
    chart = scenario.get("chart")
    chart = _chart_from_spec(chart, order) if chart is not None else None
    return _metric_from_spec(_need(scenario, "metric", kind), chart, kind, order)


def _pencil_from_scenario(scenario, kind, order):
    chart = _chart_from_spec(_need(scenario, "chart", kind), order)
    g1, _ = _metric_from_spec(_need(scenario, "metric", kind), chart, kind, order)
    g2, _ = _metric_from_spec(_need(scenario, "metric2", kind), chart, kind, order)
    return pc.PencilSpec(g1, g2), chart


def _run_check_pencil(scenario, settings):
    mode = scenario.get("mode", "flat")
    if mode not in ("flat", "constant_curvature", "general"):
        raise SchemaError(f"unknown pencil mode {mode!r}")
    pencil, chart = _pencil_from_scenario(scenario, "check-pencil", settings["order"])
    pencil = replace(pencil, lambda_samples=_lambda_samples(scenario))
    rep = pc.check_compatible(
        pencil,
        mode,
        k1=_number(scenario.get("k1", 0.0), "k1"),
        k2=_number(scenario.get("k2", 0.0), "k2"),
    )
    tol = settings["tolerance"]
    rows = [
        CheckRow("connection_linearity", rep.max_connection, tol),
        CheckRow(f"curvature_{mode}", rep.max_curvature, tol),
    ]
    for name, value in rep.endpoint_residuals.items():
        rows.append(CheckRow(name, value, tol))
    fields = {f"{name}-curvature": (chart, values)
              for name, values in rep.endpoint_curvature.items()}
    meta = {"chart": _chart_meta(chart), "mode": mode,
            "lambda_samples": [list(p) for p in pencil.lambda_samples]}
    return rows, meta, fields


def _run_nijenhuis(scenario, settings):
    pencil, chart = _pencil_from_scenario(scenario, "nijenhuis", settings["order"])
    aff = pc.affinor(pencil)
    spectrum = pc.nonsingularity(aff)
    residual = pc.nijenhuis(aff)
    rows = [
        CheckRow("nijenhuis", residual, settings["tolerance"]),
        CheckRow("spectrum_gap", spectrum.min_gap, spectrum.threshold, "ge"),
    ]
    meta = {
        "chart": _chart_meta(chart),
        "spectrum": {
            "complex": spectrum.has_complex_pairs,
            "scale": spectrum.eigen_scale,
        },
    }
    return rows, meta, {}


def _run_diagonal_form(scenario, settings):
    pencil, chart = _pencil_from_scenario(scenario, "diagonal-form", settings["order"])
    rep = pc.check_diagonal_form(pencil)
    rows = [
        CheckRow("ratio_cross_derivative", rep.residual, settings["tolerance"]),
    ]
    meta = {"chart": _chart_meta(chart), "off_diagonal_max": rep.off_diagonal_max}
    return rows, meta, {}


def _covector_from_spec(exprs, field: str, chart: GridChart) -> Callable:
    """``N`` expressions in the coordinates as one covector closure."""
    if not isinstance(exprs, list) or len(exprs) != chart.dim:
        raise SchemaError(f"{field} needs {chart.dim} components")
    fns = [_compile_cell(e, _coordinate_names(chart.dim)) for e in exprs]
    return lambda u: [fn(*u) for fn in fns]


def _run_dubrovin(scenario, settings):
    order = settings["order"]
    chart = _chart_from_spec(_need(scenario, "chart", "dubrovin"), order)
    g2, _ = _metric_from_spec(_need(scenario, "metric", "dubrovin"), chart, "dubrovin", order)
    f = _covector_from_spec(_need(scenario, "covector", "dubrovin"), "covector", chart)
    lams = _lambda_samples(scenario)
    c = _number(scenario.get("c", 0.0), "c")
    rep = pc.dubrovin_construct(g2, f, c, lams)
    tol = settings["tolerance"]
    rows = [
        CheckRow("quadratic_relation", rep.quadratic_residual, tol),
        CheckRow("bracket", rep.bracket_residual, tol),
        CheckRow("delta_consistency", rep.delta_consistency, tol),
        CheckRow("cross_check_flat", rep.compatibility.max_residual, tol),
    ]
    return rows, {"chart": _chart_meta(chart)}, {}


def _run_potentials(scenario, settings):
    """Dubrovin's candidate at ``c = 0`` over the constant metric ``eta``; a
    degenerate candidate is reported, not raised (the route is a search
    device), and the pair is checked only for a candidate flat to ``tol``."""
    chart = _chart_from_spec(_need(scenario, "chart", "potentials"), settings["order"])
    raw = _need(scenario, "eta", "potentials")
    if not isinstance(raw, list) or len(raw) != chart.dim:
        raise SchemaError(f"eta needs {chart.dim} rows of {chart.dim} numbers")
    eta_rows = [_numbers(row, "each eta row", length=chart.dim) for row in raw]
    eta = geo.build_metric(lambda u: eta_rows, chart)
    h = _covector_from_spec(_need(scenario, "potentials", "potentials"), "potentials", chart)
    lams = _lambda_samples(scenario)
    tol = settings["tolerance"]
    try:
        g1 = pc.partner_metric(eta, h)[0]
    except DegenerateMetric:
        g1 = None
    flat = float("inf") if g1 is None else geo.flatness_residual(g1)
    rows = [CheckRow("candidate_flat", flat, tol)]
    if rows[0].passed:
        rep = pc.check_compatible(pc.PencilSpec(g1, eta, lams), "flat")
        rows.append(CheckRow("compatibility", rep.max_residual, tol))
    return rows, {"chart": _chart_meta(chart), "degenerate": g1 is None}, {}


def _frame_from_scenario(scenario, kind, settings):
    metric, chart = _optional_chart_metric(scenario, kind, settings["order"])
    eps = scenario.get("eps")
    if eps is not None:
        eps = _numbers(eps, "eps", int, length=chart.dim)
    return metric, ls.frame_from_metric(metric, eps=eps), chart


def _run_lame(scenario, settings):
    metric, frame, chart = _frame_from_scenario(scenario, "lame", settings)
    rep = ls.lame_residuals(frame)
    rows = [
        CheckRow("off_diagonal_system", rep.r_offdiag, settings["tolerance"]),
        CheckRow("diagonal_system", rep.r_diag, settings["tolerance"]),
    ]
    meta = {"chart": _chart_meta(chart), "eps": list(frame.eps)}
    return rows, meta, {}


def _run_reduce(scenario, settings):
    metric, frame, chart = _frame_from_scenario(scenario, "reduce", settings)
    profile = _profile_from_spec(_need(scenario, "profile", "reduce"), chart.dim)
    lame = ls.lame_residuals(frame)
    red = ls.reduction_residual(frame, profile)
    tilde = ls.tilde_frame(frame, profile)
    tilde_lame = ls.lame_residuals(tilde)
    tol = settings["tolerance"]
    rows = [
        CheckRow("lame", lame.max_residual, tol),
        CheckRow("reduction", red.residual, tol),
        CheckRow("tilde_lame", tilde_lame.max_residual, tol),
    ]
    meta = {"chart": _chart_meta(chart), "eps": list(frame.eps),
            "tilde_eps": list(tilde.eps)}
    return rows, meta, {}


def _run_dress(scenario, settings):
    pots = _potential_set_from_spec(_need(scenario, "potentials", "dress"))
    point = _numbers(_need(scenario, "point", "dress"), "point")
    profile_spec = scenario.get("profile")
    profile = (
        _profile_from_spec(profile_spec, pots.n) if profile_spec is not None else None
    )
    length = scenario.get("length")
    problem = zd.DressingProblem(
        pots,
        point,
        profile=profile,
        s=_number(scenario.get("s", 0.0), "s"),
        length=None if length is None else _number(length, "length"),
        panels=_number(scenario.get("panels", zd.DEFAULT_PANELS), "panels", int),
        nodes_per_panel=_number(scenario.get("nodes_per_panel", zd.DEFAULT_NODES_PER_PANEL),
                                "nodes_per_panel", int),
    )
    sol = zd.solve_marchenko(problem)
    ident = zd.reduction_identity_residual(problem.base_kernel(), seed=settings["seed"])
    rows = [
        CheckRow("collocation_residual", sol.residual, zd.COLLOCATION_BOUND),
        CheckRow("translation_identity", ident, zd.IDENTITY_BOUND),
    ]
    if profile is not None:
        tilde = zd.verify_tilde_consistency(problem, sol)
        rows.append(CheckRow("tilde_kernel", tilde.kernel_deviation, zd.IDENTITY_BOUND))
        rows.append(CheckRow("tilde_beta", tilde.beta_deviation, zd.IDENTITY_BOUND))
    meta = {
        "components": pots.n,
        "point": list(point),
        "truncation_length": problem.length,
        "panels": problem.panels,
        "nodes_per_panel": problem.nodes_per_panel,
        "conditioning": sol.cond,
        "quadrature_error": zd.quadrature_change(problem, sol),
    }
    return rows, meta, {}


def two_component_spec(scenario, order) -> tc.TwoComponentSpec:
    """The pair a ``two-component`` scenario describes, on a chart of stencil
    ``order``; its ``b`` fields are sampled from ``b1``/``b2`` expressions,
    or left unset for an ``integrate`` block to supply."""
    chart = _chart_from_spec(_need(scenario, "chart", "two-component"), order)
    if chart.dim != 2:
        raise SchemaError("two-component scenarios need a 2-D chart")
    potential = _potential_from_spec(_need(scenario, "potential", "two-component"))
    eps = _numbers(scenario.get("eps", (-1, 1)), "eps", int, length=2)
    f = scenario.get("f")
    profile = ls.identity_profile(2) if f is None else _profile_from_spec({"expressions": f}, 2)
    spec = tc.TwoComponentSpec(chart=chart, potential=potential, eps=eps, f=profile)
    if "integrate" in scenario:
        return spec
    if "b1" in scenario and "b2" in scenario:
        return spec.with_b(_field_from_expr(scenario["b1"], chart),
                           _field_from_expr(scenario["b2"], chart))
    raise SchemaError("two-component scenarios need either b1/b2 expressions or an "
                      "'integrate' block with edge data")


def _run_two_component(scenario, settings):
    spec = two_component_spec(scenario, settings["order"])
    tol = settings["tolerance"]
    rows = [CheckRow("lequa", tc.lequa_residual(spec), tol)]
    meta = {"chart": _chart_meta(spec.chart), "eps": list(spec.eps)}

    if "integrate" in scenario:
        integ = scenario["integrate"]
        if not isinstance(integ, dict):
            raise SchemaError(
                f"integrate must be an object with b1_edge and b2_edge, got {integ!r}")
        b1_edge = _compile_cell(_need(integ, "b1_edge", "two-component"), ("u1",))
        b2_edge = _compile_cell(_need(integ, "b2_edge", "two-component"), ("u2",))
        result = tc.integrate_b(spec, b1_edge, b2_edge)
        spec = spec.with_b(result.b1, result.b2)
        rows.append(CheckRow("integration_consistency", result.max_consistency, tol))
        meta["b_source"] = "integrated"
    else:
        rows.append(CheckRow("system", tc.system_residual(spec), tol))
        meta["b_source"] = "expressions"

    pen = tc.build_pair(spec, _lambda_samples(scenario))
    rows.append(CheckRow("pair_flat", pc.check_compatible(pen, "flat").max_residual, tol))
    return rows, meta, {}


def _run_catalog(scenario, settings):
    name = _need(scenario, "name", "catalog")
    entry = cat.get(name)
    if settings["order"] != DEFAULT_ORDER:  # the entries' bounds hold at this order only
        raise SchemaError(
            f"catalog entries run at order {DEFAULT_ORDER} only, got order {settings['order']}"
        )
    rows = entry.run()
    meta = {"catalog_entry": entry.name, "kind": entry.kind, "summary": entry.summary}
    return rows, meta, {}


_RUNNERS = {
    "check-flat": _run_check_flat,
    "check-pencil": _run_check_pencil,
    "nijenhuis": _run_nijenhuis,
    "diagonal-form": _run_diagonal_form,
    "dubrovin": _run_dubrovin,
    "potentials": _run_potentials,
    "lame": _run_lame,
    "reduce": _run_reduce,
    "dress": _run_dress,
    "two-component": _run_two_component,
    "catalog": _run_catalog,
}
KINDS = tuple(_RUNNERS)


def _chart_meta(chart: GridChart | None) -> dict | None:
    if chart is None:
        return None
    return {
        "lower": list(chart.lower),
        "upper": list(chart.upper),
        "points": list(chart.points),
        "spacing": list(chart.spacing),
    }


# ---------------------------------------------------------------------------
# report assembly


def run_scenario(scenario: dict, settings: dict) -> tuple[dict, dict]:
    kind = scenario.get("kind")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise SchemaError(
            f"unknown scenario kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    rows, meta, fields = _RUNNERS[kind](scenario, settings)
    verdict = all(row.passed for row in rows)
    report = {
        "flatpencil_version": __version__,
        "scenario": scenario,
        "settings": {
            "tolerance": settings["tolerance"],
            "order": settings["order"],
            "seed": settings["seed"],
        },
        "checks": [row.as_dict() for row in rows],
        "metadata": {**meta, "timing": "stderr"},
        "verdict": "pass" if verdict else "fail",
    }
    return report, fields


def _write_csv_fields(fields: dict, directory: str):
    os.makedirs(directory, exist_ok=True)
    for name, (chart, values) in fields.items():
        path = os.path.join(directory, f"{name}.csv")
        columns = [u.ravel().tolist() for u in chart.meshgrid()]
        columns.append(np.ravel(values).tolist())
        with open(path, "w") as handle:
            handle.write(",".join(_coordinate_names(chart.dim)) + ",residual\n")
            for row in zip(*columns):
                handle.write(",".join(map(_format_float, row)) + "\n")


def _resolve_settings(args, scenario: dict) -> dict:
    def pick(flag, env, key, default, convert):
        if flag is not None:
            return convert(flag)
        env_val = os.environ.get(env)
        if env_val is not None:
            try:
                return convert(env_val)
            except ValueError:
                noun = "an integer" if convert is int else "a number"
                raise SchemaError(f"{env} must be {noun}, got {env_val!r}") from None
        if key not in scenario:
            return default
        value = scenario[key]
        if convert is not str:
            return _number(value, key, convert)
        if not isinstance(value, str):
            raise SchemaError(f"{key} must be a string, got {value!r}")
        return value

    tol = pick(args.tol, "FLATPENCIL_TOL", "tolerance", 1e-6, float)
    order = pick(args.order, "FLATPENCIL_ORDER", "order", DEFAULT_ORDER, int)
    seed = pick(args.seed, "FLATPENCIL_SEED", "seed", 0, int)
    out = pick(args.out, "FLATPENCIL_OUT", "out", None, str)
    dump = pick(args.dump_csv, "FLATPENCIL_DUMP_CSV", "dump_csv", None, str)
    if order not in (2, 4):
        raise SchemaError(f"order must be 2 or 4, got {order}")
    if not 0 < tol < float("inf"):  # NaN fails too
        raise SchemaError(f"tolerance must be positive and finite, got {tol}")
    return {"tolerance": tol, "order": order, "seed": seed, "out": out,
            "dump_csv": dump}


def _cmd_run(args) -> int:
    try:
        with open(args.scenario) as handle:
            scenario = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(scenario, dict):
        print("error: scenario must be a JSON object", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        settings = _resolve_settings(args, scenario)
        report, fields = run_scenario(scenario, settings)
        if settings["dump_csv"]:
            _write_csv_fields(fields, settings["dump_csv"])
    except (FlatpencilError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text = dumps(report) + "\n"
    if settings["out"]:
        try:
            with open(settings["out"], "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
    sys.stdout.write(text)
    elapsed = time.perf_counter() - started
    print(f"flatpencil: {report['verdict']} in {elapsed:.2f}s", file=sys.stderr)
    return 0 if report["verdict"] == "pass" else 2


def _cmd_catalog(_args) -> int:
    width = max(len(entry.name) for entry in cat.ENTRIES)
    for entry in cat.ENTRIES:
        print(f"{entry.name:<{width}}  {entry.summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatpencil",
        description="Numerical checks and constructions for compatible metric pairs.",
    )
    parser.add_argument("--version", action="version", version=f"flatpencil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and emit a report")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", help="also write the report to this path")
    run_p.add_argument("--dump-csv", dest="dump_csv", metavar="DIR",
                       help="write residual-per-node CSV files where supported")
    run_p.add_argument("--tol", type=float, help="residual tolerance override")
    run_p.add_argument("--order", type=int, choices=(2, 4),
                       help="finite-difference order")
    run_p.add_argument("--seed", type=int, help="seed for probe-based checks")
    run_p.set_defaults(fn=_cmd_run)

    cat_p = sub.add_parser("catalog", help="list built-in example entries")
    cat_p.set_defaults(fn=_cmd_catalog)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
