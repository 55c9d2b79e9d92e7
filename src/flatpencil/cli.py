"""Scenario-driven command line front end.

``flatpencil run scenario.json`` loads a JSON scenario, executes the named
pipeline, prints a machine-readable report, and exits 0 when every check
passes, 2 when some check fails, and 1 on configuration or runtime errors.
``flatpencil catalog`` lists the built-in examples.

Reports are byte-stable: floats are serialized in their shortest
round-trip form, row order is fixed by construction, and wall-clock timing
goes to stderr instead of the report body.  Flags may also be supplied
through environment variables with the prefix ``FLATPENCIL_``
(``FLATPENCIL_TOL``, ``FLATPENCIL_SEED``, ``FLATPENCIL_OUT``,
``FLATPENCIL_DUMP_CSV``); an explicit flag wins over the environment, and
both win over the scenario file.  Any other set ``FLATPENCIL_`` variable
exits 1.

Each kind declares its fields once, beside its runner; :func:`_read` checks
a scenario against them before anything is sampled, and an unknown, missing,
wrong-typed, non-finite, out-of-range or conflicting field exits 1.  Only the
kinds that form combinations of two metrics declare ``lambda_samples``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from functools import partial
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

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
from .grid_calculus import GridChart, interior_max, sample


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
# declared fields, and the one reader of them


_REQUIRED = object()  # the default of a field that must be given


class Field(NamedTuple):
    """``read(value, name, where)`` types a field's JSON value; ``default`` fills it in."""
    read: Callable
    default: object = _REQUIRED


class Table(NamedTuple):
    """An object's fields, and ``one_of``: groups of them, exactly one given in full."""
    fields: dict
    one_of: tuple = ()


def _read(obj: dict, table: Table, where: str, prefix: str = "") -> SimpleNamespace:
    """``obj``'s fields typed by ``table``'s readers, as ``prefix + key``, or its
    defaults; one :class:`SchemaError`, naming the field and ``where``, for an
    unknown, missing, wrong-typed or conflicting field."""
    fields = table.fields
    for key in obj:
        if key not in fields:
            takes = f"; it takes {', '.join(fields)}" if fields else ""
            raise SchemaError(f"{where} has no field {key!r}{takes}")
    given = [group for group in table.one_of if any(key in obj for key in group)]
    if len(given) > 1:
        first, second = (next(key for key in group if key in obj) for group in given[:2])
        raise SchemaError(f"{where} takes {first!r} or {second!r}, not both")
    if table.one_of and not given:
        options = " or ".join(" and ".join(map(repr, group)) for group in table.one_of)
        raise SchemaError(f"{where} needs {options}")
    for key, field in fields.items():
        if key not in obj and (field.default is _REQUIRED or any(key in g for g in given)):
            raise SchemaError(f"{where} requires field {key!r}")
    return SimpleNamespace(**{key: field.read(obj[key], prefix + key, where) if key in obj
                              else field.default for key, field in fields.items()})


def _real(value, name: str, _where=None, convert=float):
    """A JSON number (a boolean is not), ``convert``-ed; an integer must be integral."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        out = convert(value)
        if convert is int and out != value:  # int() truncates 9.9 to 9
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if convert is int else "a number"
        raise SchemaError(f"{name} must be {noun}, got {value!r}") from None
    return out


def _number(value, name: str, _where=None) -> float:
    """A finite number: JSON's ``NaN`` and ``Infinity`` are refused."""
    if not math.isfinite(out := _real(value, name)):
        raise SchemaError(f"{name} must be a finite number, got {value!r}")
    return out


def _positive(value, name: str, _where=None) -> float:
    """A finite number above zero."""
    if (out := _number(value, name)) <= 0:
        raise SchemaError(f"{name} must be positive, got {value!r}")
    return out


def _at_least(low: int, value, name: str, _where=None) -> int:
    """An integer no less than ``low``."""
    if (out := _integer(value, name)) < low:
        raise SchemaError(f"{name} must be at least {low}, got {value!r}")
    return out


def _expression(value, name: str, _where=None):
    """A finite number or an expression string, as written."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{name} must be a number or an expression, got {value!r}")
    return _number(value, name)


def _check(test, noun: str, value, name: str, _where=None):
    """A value that passes ``test``, as it is."""
    if not test(value):
        raise SchemaError(f"{name} must be {noun}, got {value!r}")
    return value


def _choice(*options: str):
    return partial(_check, lambda value: isinstance(value, str) and value in options,
                   f"one of {', '.join(options)}")


_integer = partial(_real, convert=int)
_boolean = partial(_check, lambda value: isinstance(value, bool), "true or false")
_string = partial(_check, lambda value: isinstance(value, str), "a string")
#: an inline metric's rows, which :func:`_metric_source` checks once the chart
#: fixes their dimension, before anything is sampled
_rows = partial(_check, lambda value: True, "")


def _sized(values, n: int, name: str, noun: str = "numbers"):
    if len(values) != n:
        raise SchemaError(f"{name} needs {n} {noun}, got {len(values)}")
    return values


def _list(item, noun: str, value, name: str, _where=None, length: int | None = None):
    """A list of what ``item`` reads, ``length`` long if given; a bad entry is
    reported as a bad list."""
    finite = ""
    if isinstance(value, (list, tuple)):
        try:
            out = tuple(item(entry, name) for entry in value)
        except SchemaError:
            if any(isinstance(v, float) and not math.isfinite(v) for v in value):
                finite = "finite "
        else:  # the count of a list of integers is in "numbers" too
            count = "numbers" if item is _integer else noun
            return out if length is None else _sized(out, length, name, count)
    raise SchemaError(f"{name} must be a list of {finite}{noun}, got {value!r}")


def _each(item, label: str, noun: str, value, name: str, _where=None):
    """A non-empty list, each entry read by ``item`` under the name ``label``."""
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(f"{name} must be a non-empty list of {noun}, got {value!r}")
    return tuple(item(entry, label) for entry in value)


def _object(table: Table, value, name: str, where: str, prefix: bool = True):
    """An object read against ``table``, whose fields' messages name it first
    (``chart lower``) where ``prefix``."""
    if not isinstance(value, dict):
        required = [key for key, field in table.fields.items() if field.default is _REQUIRED]
        with_ = f" with {' and '.join(required)}" if required else ""
        raise SchemaError(f"{name} must be an object{with_}, got {value!r}")
    return _read(value, table, f"{name} in {where}", f"{name} " if prefix else "")


def _tagged(kinds: dict, noun: str, value, name: str, where=None):
    """An object whose ``kind`` picks its table, ``kinds[kind][0]``: ``(kind, fields)``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be an object, got {value!r}")
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise SchemaError(f"unknown {noun} kind {kind!r}; expected one of {', '.join(kinds)}")
    here = f"{noun} kind {kind!r}" + (f" in {where}" if where else "")
    return kind, _read({k: v for k, v in value.items() if k != "kind"}, kinds[kind][0], here)


_NUMBERS = partial(_list, _number, "numbers")
_EXPRESSIONS = partial(_list, _expression, "expressions")
_CHART = partial(_object, Table({"lower": Field(_NUMBERS), "upper": Field(_NUMBERS),
                                 "points": Field(partial(_list, _integer, "integers"))}))
_OPTIONAL_CHART = Field(_CHART, None)
_METRIC = Field(partial(_object, Table({"catalog": Field(_choice(*cat.metric_names()), None),
                                        "contravariant": Field(_rows, None)},
                                       (("catalog",), ("contravariant",)))))
_INLINE_METRIC = Field(partial(_object, Table({"contravariant": Field(_rows)})))
_PROFILE = partial(_object, Table({"constant": Field(_NUMBERS, None),
                                   "expressions": Field(_EXPRESSIONS, None)},
                                  (("constant",), ("expressions",))))
_LAMBDA_SAMPLES = Field(partial(_each, partial(_list, _number, "numbers", length=2),
                                "each lambda sample", "[l1, l2] pairs"),
                        pc.DEFAULT_LAMBDA_SAMPLES)
#: potential kind -> (its table, its builder)
_POTENTIALS = {
    "log": (Table({"c": Field(_number, 1.0)}), lambda v: tc.log_potential(v.c)),
    "linear": (Table({"a": Field(_number, 0.0), "b": Field(_number, 0.0)}),
               lambda v: tc.linear_potential(v.a, v.b)),
    "product": (Table({}), lambda v: tc.product_potential()),
    "expression": (Table({"value": Field(_expression)}),
                   lambda v: tc.Potential(value=_compile(v.value, ("u1", "u2")))),
}
_GAUSSIAN_SET = partial(_object, Table({
    "components": Field(partial(_at_least, 1), 2), "amplitude": Field(_number, 0.2),
    "width": Field(_positive, 1.0), "include_diagonal": Field(_boolean, False)}), prefix=False)
#: the settings every kind takes; a flag or the environment overrides each, and
#: the tolerance that results must be positive and finite
_SETTINGS = {"tolerance": Field(_real, 1e-6), "seed": Field(partial(_at_least, 0), 0),
             "out": Field(_string, None), "dump_csv": Field(_string, None)}
#: scenario kind -> (its table, its runner)
_KINDS: dict[str, tuple[Table, Callable]] = {}


def _kind(name: str, /, *one_of, **fields):
    """Declares kind ``name``: its fields and ``one_of`` beside the settings, and
    its runner, (fields, settings) -> (rows, metadata, csv fields)."""
    def declare(runner):
        _KINDS[name] = (Table({**fields, **_SETTINGS}, one_of), runner)
        return runner
    return declare


def _chart(spec) -> GridChart:
    n = len(spec.lower)
    return GridChart(spec.lower, _sized(spec.upper, n, "chart upper"),
                     _sized(spec.points, n, "chart points"))


def _chart_meta(chart: GridChart) -> dict:
    return {key: list(getattr(chart, key)) for key in ("lower", "upper", "points", "spacing")}


def _coordinate_names(n: int) -> tuple[str, ...]:
    return tuple(f"u{i + 1}" for i in range(n))


def _compile(cell, variables) -> Callable:
    if isinstance(cell, str):
        return compile_expression(cell, variables)
    return lambda *args, value=cell: value


def _closure(cells, n: int) -> Callable:
    """Expressions in ``u1 … un``, or lists of them, as one function of the
    coordinates ``u`` that returns the same nesting."""
    if isinstance(cells, (list, tuple)):
        parts = [_closure(cell, n) for cell in cells]
        return lambda u: [part(u) for part in parts]
    fn = _compile(cells, _coordinate_names(n))
    return lambda u: fn(*u)


def _metric_source(rows, name: str, n: int) -> Callable:
    """An inline metric's ``n x n`` rows, checked, as one function of ``u``."""
    if not isinstance(rows, (list, tuple)) or len(rows) != n or any(
            not isinstance(row, (list, tuple)) or len(row) != n for row in rows):
        raise SchemaError(f"{name} must be a {n}x{n} matrix of entries, got {rows!r}")
    return _closure([[_expression(cell, f"each {name} entry") for cell in row]
                     for row in rows], n)


def _chart_and_source(v, kind: str) -> tuple[GridChart, Callable]:
    """(chart, contravariant source) of a scenario whose chart may come from a
    catalog metric; nothing is sampled, so N-tied fields can be checked first."""
    if v.metric.catalog is None:
        if v.chart is None:
            raise SchemaError(f"scenario kind {kind!r} needs a chart for inline metrics")
        chart = _chart(v.chart)
        return chart, _metric_source(v.metric.contravariant, "metric", chart.dim)
    if v.chart is not None:
        raise SchemaError(f"scenario kind {kind!r} takes 'chart' or a 'catalog' metric, not both")
    return cat.metric_source(v.metric.catalog)


def _profile(spec, n: int) -> ls.ReductionProfile:
    if spec.constant is not None:
        return ls.constant_profile(_sized(spec.constant, n, "profile constant"))
    exprs = _sized(spec.expressions, n, "profile expressions", "expressions")
    return ls.ReductionProfile(_compile(e, ("t",)) for e in exprs)


# ---------------------------------------------------------------------------
# the kinds, each declared beside its runner


@_kind("check-flat", chart=_OPTIONAL_CHART, metric=_METRIC)
def _run_check_flat(v, settings):
    chart, source = _chart_and_source(v, "check-flat")
    metric = geo.build_metric(source, chart)
    field = geo.curvature(metric).pointwise_max()  # max |R^i_{jkl}| at each node
    return ([CheckRow("flatness", interior_max(field, chart), settings["tolerance"])],
            {"chart": _chart_meta(chart)}, {"flatness": (chart, field)})


_PENCIL = {"chart": Field(_CHART), "metric": _INLINE_METRIC, "metric2": _INLINE_METRIC}


def _pencil_from_scenario(v):
    """Both metrics' entries are checked before either is sampled."""
    chart = _chart(v.chart)
    sources = [_metric_source(v.metric.contravariant, "metric", chart.dim),
               _metric_source(v.metric2.contravariant, "metric2", chart.dim)]
    return pc.PencilSpec(*(geo.build_metric(source, chart) for source in sources)), chart


@_kind("check-pencil", **_PENCIL,
       mode=Field(_choice("flat", "constant_curvature", "general"), "flat"),
       k1=Field(_number, 0.0), k2=Field(_number, 0.0), lambda_samples=_LAMBDA_SAMPLES)
def _run_check_pencil(v, settings):
    pencil, chart = _pencil_from_scenario(v)
    pencil = replace(pencil, lambda_samples=v.lambda_samples)
    rep = pc.check_compatible(pencil, v.mode, k1=v.k1, k2=v.k2)
    tol = settings["tolerance"]
    rows = [CheckRow("connection_linearity", rep.max_connection, tol),
            CheckRow(f"curvature_{v.mode}", rep.max_curvature, tol),
            *(CheckRow(name, value, tol) for name, value in rep.endpoint_residuals.items())]
    fields = {f"{name}-curvature": (chart, values)
              for name, values in rep.endpoint_curvature.items()}
    meta = {"chart": _chart_meta(chart), "mode": v.mode,
            "lambda_samples": [list(p) for p in pencil.lambda_samples]}
    return rows, meta, fields


@_kind("nijenhuis", **_PENCIL)
def _run_nijenhuis(v, settings):
    pencil, chart = _pencil_from_scenario(v)
    aff = pc.affinor(pencil)
    spectrum = pc.nonsingularity(aff)
    rows = [CheckRow("nijenhuis", pc.nijenhuis(aff), settings["tolerance"]),
            CheckRow("spectrum_gap", spectrum.min_gap, spectrum.threshold, "ge")]
    meta = {"complex": spectrum.has_complex_pairs, "scale": spectrum.eigen_scale}
    return rows, {"chart": _chart_meta(chart), "spectrum": meta}, {}


@_kind("diagonal-form", **_PENCIL)
def _run_diagonal_form(v, settings):
    pencil, chart = _pencil_from_scenario(v)
    rep = pc.check_diagonal_form(pencil)
    rows = [CheckRow("ratio_cross_derivative", rep.residual, settings["tolerance"])]
    return rows, {"chart": _chart_meta(chart), "off_diagonal_max": rep.off_diagonal_max}, {}


@_kind("dubrovin", chart=Field(_CHART), metric=_INLINE_METRIC, covector=Field(_EXPRESSIONS),
       c=Field(_number, 0.0), lambda_samples=_LAMBDA_SAMPLES)
def _run_dubrovin(v, settings):
    chart = _chart(v.chart)
    source = _metric_source(v.metric.contravariant, "metric", chart.dim)
    f = _closure(_sized(v.covector, chart.dim, "covector", "components"), chart.dim)
    rep = pc.dubrovin_construct(geo.build_metric(source, chart), f, v.c, v.lambda_samples)
    tol = settings["tolerance"]
    rows = [CheckRow("quadratic_relation", rep.quadratic_residual, tol),
            CheckRow("bracket", rep.bracket_residual, tol),
            CheckRow("delta_consistency", rep.delta_consistency, tol),
            CheckRow("cross_check_flat", rep.compatibility.max_residual, tol)]
    return rows, {"chart": _chart_meta(chart)}, {}


@_kind("potentials", chart=Field(_CHART),
       eta=Field(partial(_each, _NUMBERS, "each eta row", "rows of numbers")),
       potentials=Field(_EXPRESSIONS), lambda_samples=_LAMBDA_SAMPLES)
def _run_potentials(v, settings):
    """Dubrovin's candidate at ``c = 0`` over the constant metric ``eta``; a
    degenerate candidate is reported, not raised (the route is a search
    device), and the pair is checked only for a candidate flat to ``tol``."""
    chart = _chart(v.chart)
    if len(v.eta) != chart.dim:
        raise SchemaError(f"eta needs {chart.dim} rows of {chart.dim} numbers")
    eta_rows = [_sized(row, chart.dim, "each eta row") for row in v.eta]
    h = _closure(_sized(v.potentials, chart.dim, "potentials", "components"), chart.dim)
    eta = geo.build_metric(lambda u: eta_rows, chart)
    tol = settings["tolerance"]
    try:
        g1 = pc.partner_metric(eta, h)[0]
    except DegenerateMetric:
        g1 = None
    flat = float("inf") if g1 is None else geo.flatness_residual(g1)
    rows = [CheckRow("candidate_flat", flat, tol)]
    if rows[0].passed:
        rep = pc.check_compatible(pc.PencilSpec(g1, eta, v.lambda_samples), "flat")
        rows.append(CheckRow("compatibility", rep.max_residual, tol))
    return rows, {"chart": _chart_meta(chart), "degenerate": g1 is None}, {}


_LAME = {"chart": _OPTIONAL_CHART, "metric": _METRIC,
         "eps": Field(partial(_list, _integer, "integers"), None)}


def _frame_from_scenario(v, kind: str, profile=None):
    """(frame, chart, profile) of a ``lame`` or ``reduce`` scenario: ``eps`` and
    ``profile`` are checked against N before the metric is sampled."""
    chart, source = _chart_and_source(v, kind)
    eps = None if v.eps is None else _sized(v.eps, chart.dim, "eps")
    profile = None if profile is None else _profile(profile, chart.dim)
    return ls.frame_from_metric(geo.build_metric(source, chart), eps=eps), chart, profile


@_kind("lame", **_LAME)
def _run_lame(v, settings):
    frame, chart, _ = _frame_from_scenario(v, "lame")
    rep = ls.lame_residuals(frame)
    rows = [CheckRow("off_diagonal_system", rep.r_offdiag, settings["tolerance"]),
            CheckRow("diagonal_system", rep.r_diag, settings["tolerance"])]
    return rows, {"chart": _chart_meta(chart), "eps": list(frame.eps)}, {}


@_kind("reduce", **_LAME, profile=Field(_PROFILE))
def _run_reduce(v, settings):
    frame, chart, profile = _frame_from_scenario(v, "reduce", v.profile)
    tilde = ls.tilde_frame(frame, profile)
    tol = settings["tolerance"]
    rows = [CheckRow("lame", ls.lame_residuals(frame).max_residual, tol),
            CheckRow("reduction", ls.reduction_residual(frame, profile).residual, tol),
            CheckRow("tilde_lame", ls.lame_residuals(tilde).max_residual, tol)]
    meta = {"chart": _chart_meta(chart), "eps": list(frame.eps),
            "tilde_eps": list(tilde.eps)}
    return rows, meta, {}


@_kind("dress", potentials=Field(_GAUSSIAN_SET), point=Field(_NUMBERS),
       profile=Field(_PROFILE, None))
def _run_dress(v, settings):
    g = v.potentials
    point = _sized(v.point, g.components, "point")
    profile = None if v.profile is None else _profile(v.profile, g.components)
    pots = zd.gaussian_set(g.components, g.amplitude, g.width, g.include_diagonal)
    points = np.array([point])
    field = zd.extract_beta(pots, points)
    ident = zd.reduction_identity_residual(zd.PotentialKernel(pots, point), seed=settings["seed"])
    rows = [CheckRow("collocation_residual", field.max_residual, zd.COLLOCATION_BOUND),
            CheckRow("translation_identity", ident, zd.IDENTITY_BOUND)]
    if profile is not None:
        tilde = zd.verify_tilde_consistency(pots, profile, points, field)
        rows.append(CheckRow("tilde_kernel", tilde.kernel_deviation, zd.IDENTITY_BOUND))
        rows.append(CheckRow("tilde_beta", tilde.beta_deviation, zd.IDENTITY_BOUND))
    meta = {"components": pots.n, "point": list(point), "panels": field.panels,
            "conditioning": field.cond_probe, "quadrature_error": field.quadrature_error}
    return rows, meta, {}


def _pair_spec(v) -> tc.TwoComponentSpec:
    chart = _chart(v.chart)
    if chart.dim != 2:
        raise SchemaError("two-component scenarios need a 2-D chart")
    kind, potential = v.potential
    profile = (ls.identity_profile(2) if v.f is None
               else ls.ReductionProfile(_compile(e, ("t",)) for e in v.f))
    spec = tc.TwoComponentSpec(chart=chart, potential=_POTENTIALS[kind][1](potential),
                               eps=v.eps, f=profile)
    if v.integrate is not None:
        return spec
    return spec.with_b(*(sample(_closure(b, 2), chart).values for b in (v.b1, v.b2)))


def two_component_spec(scenario) -> tc.TwoComponentSpec:
    """The pair a ``two-component`` scenario describes; its ``b`` fields are
    sampled from ``b1``/``b2`` expressions, or left unset for an
    ``integrate`` block to supply."""
    return _pair_spec(_read_scenario(scenario)[1])


@_kind("two-component", ("b1", "b2"), ("integrate",), chart=Field(_CHART),
       potential=Field(partial(_tagged, _POTENTIALS, "potential")),
       eps=Field(partial(_list, _integer, "integers", length=2), (-1, 1)),
       f=Field(partial(_list, _expression, "expressions", length=2), None),
       b1=Field(_expression, None), b2=Field(_expression, None),
       integrate=Field(partial(_object, Table({"b1_edge": Field(_expression),
                                               "b2_edge": Field(_expression)})), None),
       lambda_samples=_LAMBDA_SAMPLES)
def _run_two_component(v, settings):
    spec = _pair_spec(v)
    tol = settings["tolerance"]
    rows = [CheckRow("lequa", tc.lequa_residual(spec), tol)]
    meta = {"chart": _chart_meta(spec.chart), "eps": list(spec.eps)}
    if v.integrate is not None:
        result = tc.integrate_b(spec, _compile(v.integrate.b1_edge, ("u1",)),
                                _compile(v.integrate.b2_edge, ("u2",)))
        spec = spec.with_b(result.b1, result.b2)
        rows.append(CheckRow("integration_consistency", result.max_consistency, tol))
        meta["b_source"] = "integrated"
    else:
        rows.append(CheckRow("system", tc.system_residual(spec), tol))
        meta["b_source"] = "expressions"
    pen = tc.build_pair(spec, v.lambda_samples)
    rows.append(CheckRow("pair_flat", pc.check_compatible(pen, "flat").max_residual, tol))
    return rows, meta, {}


@_kind("catalog", name=Field(lambda value, _name, _where=None: cat.get(value)))
def _run_catalog(v, _settings):
    entry = v.name
    meta = {"catalog_entry": entry.name, "kind": entry.kind, "summary": entry.summary}
    return entry.run(), meta, {}


KINDS = tuple(_KINDS)


def _read_scenario(scenario) -> tuple[str, SimpleNamespace]:
    """A scenario's kind, and its fields read against the kind's table."""
    return _tagged(_KINDS, "scenario", scenario, "scenario")


def run_scenario(scenario: dict, settings: dict) -> tuple[dict, dict]:
    kind, fields = _read_scenario(scenario)
    rows, meta, csv_fields = _KINDS[kind][1](fields, settings)
    report = {
        "flatpencil_version": __version__,
        "scenario": scenario,
        "settings": {key: settings[key] for key in ("tolerance", "seed")},
        "checks": [row.as_dict() for row in rows],
        "metadata": {**meta, "timing": "stderr"},
        "verdict": "pass" if all(row.passed for row in rows) else "fail",
    }
    return report, csv_fields


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
    """Each setting from its flag, else its environment variable, else the
    scenario, whose table gives its default; a flag's or the environment's
    value is read by the setting's declared reader too."""
    flags = (("tolerance", "tol", float), ("seed", "seed", int),
             ("out", "out", str), ("dump_csv", "dump_csv", str))
    names = [f"FLATPENCIL_{flag.upper()}" for _, flag, _ in flags]
    if bad := sorted(v for v in os.environ if v.startswith("FLATPENCIL_") and v not in names):
        raise SchemaError(f"not a setting: {', '.join(bad)} (the settings are {', '.join(names)})")
    fields, settings = _read_scenario(scenario)[1], {}
    for (key, flag, convert), env in zip(flags, names):
        value = getattr(args, flag)
        if value is None and env in os.environ:
            try:
                value = convert(os.environ[env])
            except ValueError:
                noun = "an integer" if convert is int else "a number"
                raise SchemaError(f"{env} must be {noun}, got {os.environ[env]!r}") from None
        settings[key] = (getattr(fields, key) if value is None
                         else _SETTINGS[key].read(convert(value), key))
    if not 0 < settings["tolerance"] < float("inf"):  # NaN fails too
        raise SchemaError(f"tolerance must be positive and finite, got {settings['tolerance']}")
    return settings


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
