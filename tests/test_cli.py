"""End-to-end coverage of the scenario runner and its report contract."""

import copy
import filecmp
import hashlib
import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from flatpencil import catalog, cli
from flatpencil import geometry_core as geo
from flatpencil import grid_calculus as gc
from flatpencil import pencil_checker as pc
from flatpencil import zakharov_dressing as zd
from flatpencil.grid_calculus import GridChart

from conftest import count_calls


FLAT_EUCLID = {"kind": "check-flat", "metric": {"catalog": "euclidean"},
               "tolerance": 1e-12}
FLAT_SPHERE = {"kind": "check-flat", "metric": {"catalog": "sphere"}}
FLAT_POLAR = {"kind": "check-flat", "metric": {"catalog": "polar"}}

PENCIL = {
    "kind": "check-pencil",
    "chart": {"lower": [1.0, 1.0], "upper": [2.0, 2.0], "points": [65, 65]},
    "metric": {"contravariant": [["2*u1", "0"], ["0", "2*u2"]]},
    "metric2": {"contravariant": [["1", "0"], ["0", "1"]]},
    "lambda_samples": [[1, 0], [0, 1], [1, 1], [3, -1], [1, 2]],
    "mode": "flat",
}

NIJ_COUNTER = {
    "kind": "nijenhuis",
    "chart": {"lower": [1.0, 0.5], "upper": [2.0, 1.5], "points": [65, 65]},
    "metric": {"contravariant": [["1 + u2*u2", "0"], ["0", "1"]]},
    "metric2": {"contravariant": [["1", "0"], ["0", "1"]]},
    "tolerance": 1e-2,
}

DRESS = {
    "kind": "dress",
    "potentials": {"preset": "gaussian", "components": 2, "amplitude": 0.4,
                   "include_diagonal": True},
    "point": [0.1, -0.1],
    # unequal and t-dependent: under equal constants the tilde rows compare
    # a solve with itself
    "profile": {"expressions": ["2 + 0.2*t", "3 - 0.1*t"]},
}

DUBROVIN = {
    "kind": "dubrovin",
    "chart": {"lower": [1.0, 1.0], "upper": [2.0, 2.0], "points": [17, 17]},
    "metric": {"contravariant": [["1", "0"], ["0", "1"]]},
    "covector": ["0.5*u1*u1", "0.5*u2*u2"],
}

POTENTIALS = {
    "kind": "potentials",
    "chart": {"lower": [1.0, 1.0], "upper": [2.0, 2.0], "points": [17, 17]},
    "eta": [[1, 0], [0, 1]],
    "potentials": ["0.5*u1*u1", "0.5*u2*u2"],
}

TWO_COMPONENT_INTEGRATE = {
    "kind": "two-component",
    "chart": {"lower": [2.0, 0.5], "upper": [3.0, 1.0], "points": [65, 65]},
    "potential": {"kind": "log", "c": 0.5},
    "eps": [-1, 1],
    "integrate": {"b1_edge": "sqrt(u1 - 0.5)", "b2_edge": "sqrt(2.0 - u2)"},
    "lambda_samples": [[1, 0], [0, 1], [1, 1], [2, 3], [2, -3]],
    "tolerance": 1e-5,
}

DIAGONAL_FORM = {
    "kind": "diagonal-form",
    "chart": {"lower": [1.0, 1.0], "upper": [2.0, 2.0], "points": [17, 17]},
    "metric": {"contravariant": [["u1", "0"], ["0", "2 + u2"]]},
    "metric2": {"contravariant": [[1, 0], [0, 1]]},
}

LAME = {"kind": "lame", "metric": {"catalog": "polar"}, "eps": [1, 1]}

REDUCE = {"kind": "reduce", "metric": {"catalog": "diag-u"}, "profile": {"constant": [2.0, 3.0]}}

CATALOG = {"kind": "catalog", "name": "euclidean"}

#: the module's scenarios, at least one of each kind
FIXTURES = {
    "FLAT_EUCLID": FLAT_EUCLID, "FLAT_SPHERE": FLAT_SPHERE, "FLAT_POLAR": FLAT_POLAR,
    "PENCIL": PENCIL, "NIJ_COUNTER": NIJ_COUNTER, "DIAGONAL_FORM": DIAGONAL_FORM,
    "DUBROVIN": DUBROVIN, "POTENTIALS": POTENTIALS, "LAME": LAME, "REDUCE": REDUCE,
    "DRESS": DRESS, "TWO_COMPONENT_INTEGRATE": TWO_COMPONENT_INTEGRATE, "CATALOG": CATALOG,
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("FLATPENCIL_TOL", "FLATPENCIL_ORDER", "FLATPENCIL_SEED",
                "FLATPENCIL_OUT", "FLATPENCIL_DUMP_CSV"):
        monkeypatch.delenv(var, raising=False)


def write(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


def run(tmp_path, scenario, *args, capsys=None):
    code = cli.main(["run", write(tmp_path, scenario), *args])
    out, err = capsys.readouterr()
    report = json.loads(out) if out.strip().startswith("{") else None
    return code, report, err


def test_passing_scenario(tmp_path, capsys):
    code, report, err = run(tmp_path, FLAT_EUCLID, capsys=capsys)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["settings"]["tolerance"] == 1e-12
    assert report["checks"][0]["check"] == "flatness"
    assert report["checks"][0]["residual"] == 0.0
    assert report["metadata"]["timing"] == "stderr"
    assert "flatpencil_version" in report
    assert "elapsed" in err or "s" in err  # timing goes to stderr only


def test_failing_scenario_exits_two(tmp_path, capsys):
    code, report, _ = run(tmp_path, FLAT_SPHERE, capsys=capsys)
    assert code == 2
    assert report["verdict"] == "fail"
    assert report["checks"][0]["residual"] > 0.5


def test_scenario_tolerance_is_honored(tmp_path, capsys):
    loose = dict(FLAT_SPHERE, tolerance=10.0)
    code, report, _ = run(tmp_path, loose, capsys=capsys)
    assert code == 0
    assert report["verdict"] == "pass"


def test_flag_beats_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLATPENCIL_TOL", "1e-10")
    code, report, _ = run(tmp_path, FLAT_POLAR, capsys=capsys)
    assert code == 2  # env tightens below the polar truncation floor
    code, report, _ = run(tmp_path, FLAT_POLAR, "--tol", "1e-6", capsys=capsys)
    assert code == 0
    assert report["settings"]["tolerance"] == 1e-6


def test_order_env_switches_stencils(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLATPENCIL_ORDER", "2")
    code, report, _ = run(tmp_path, FLAT_POLAR, capsys=capsys)
    assert report["settings"]["order"] == 2
    assert report["checks"][0]["residual"] > 1e-5  # second-order truncation
    # the catalog metric is rebuilt on its chart at order 2
    polar = catalog.metric_field("polar")
    chart2 = replace(polar.chart, order=2)
    assert report["checks"][0]["residual"] == geo.flatness_residual(
        geo.build_metric(polar.contra.values, chart2))


def test_invalid_order_flag_rejected_by_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", write(tmp_path, FLAT_EUCLID), "--order", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_invalid_order_env_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLATPENCIL_ORDER", "3")
    code, _, err = run(tmp_path, FLAT_EUCLID, capsys=capsys)
    assert code == 1
    assert "order" in err.lower()


@pytest.mark.parametrize("field, value", [("order", 4.7), ("seed", 7.9), ("seed", "7"),
                                          ("tolerance", "1e-6"), ("order", True)])
def test_scenario_settings_are_not_truncated(tmp_path, capsys, field, value):
    """``order`` 4.7 must not run at order 4, nor ``seed`` 7.9 at seed 7."""
    code, report, err = run(tmp_path, dict(FLAT_EUCLID, **{field: value}), capsys=capsys)
    assert code == 1 and report is None
    assert err.count("error:") == 1 and field in err


@pytest.mark.parametrize("var, value", [("FLATPENCIL_ORDER", "four"), ("FLATPENCIL_ORDER", "4.0"),
                                        ("FLATPENCIL_SEED", "7.9"), ("FLATPENCIL_TOL", "tight")])
def test_non_numeric_environment_settings_are_schema_errors(tmp_path, capsys, monkeypatch,
                                                            var, value):
    monkeypatch.setenv(var, value)
    code, report, err = run(tmp_path, FLAT_EUCLID, capsys=capsys)
    assert code == 1 and report is None
    assert err == f"error: {var} must be {'a number' if var == 'FLATPENCIL_TOL' else 'an integer'}, got {value!r}\n"


def test_integral_float_settings_are_read_as_integers(tmp_path, capsys):
    code, report, _ = run(tmp_path, dict(FLAT_EUCLID, order=2.0, seed=7.0), capsys=capsys)
    assert code == 0 and report["settings"]["order"] == 2 and report["settings"]["seed"] == 7


def test_pencil_scenario(tmp_path, capsys):
    code, report, _ = run(tmp_path, PENCIL, capsys=capsys)
    assert code == 0
    names = [c["check"] for c in report["checks"]]
    assert "connection_linearity" in names
    assert any(n.startswith("curvature") for n in names)


def test_nijenhuis_counter_case_fails(tmp_path, capsys):
    code, report, _ = run(tmp_path, NIJ_COUNTER, capsys=capsys)
    assert code == 2
    nij = next(c for c in report["checks"] if c["check"] == "nijenhuis")
    assert nij["residual"] == pytest.approx(5.94091796875, rel=1e-6)
    gap = next(c for c in report["checks"] if c["check"] == "spectrum_gap")
    assert gap["comparison"] == "ge"


def test_nijenhuis_kind_forms_no_combination(tmp_path, capsys):
    """g1 - g2 = diag(u1 - 1, 1) is singular at u1 = 1, yet the pencil of
    diag(u1, 2) and the identity is nonsingular and torsion-free."""
    scenario = {
        "kind": "nijenhuis",
        "chart": {"lower": [0.5, 0.5], "upper": [1.5, 1.5], "points": [17, 17]},
        "metric": {"contravariant": [["u1", "0"], ["0", "2"]]},
        "metric2": {"contravariant": [["1", "0"], ["0", "1"]]},
    }
    assert (1.0, -1.0) in pc.DEFAULT_LAMBDA_SAMPLES  # a combination it does not form
    code, report, _ = run(tmp_path, scenario, capsys=capsys)
    assert code == 0
    rows = {c["check"]: c["residual"] for c in report["checks"]}
    assert rows["nijenhuis"] <= 1e-10 and rows["spectrum_gap"] == 0.5


@pytest.mark.parametrize("b1, node", [
    ("sqrt(u2 - 0.75)", "(0, 0) (u = (2, 0.5))"),
    ("1/(u2 - 0.75)", "(0, 32) (u = (2, 0.75))"),
], ids=["nan", "inf"])
def test_non_finite_b_is_named(tmp_path, capsys, b1, node):
    base = {k: v for k, v in TWO_COMPONENT_INTEGRATE.items() if k != "integrate"}
    code, report, err = run(tmp_path, {**base, "b1": b1, "b2": "sqrt(u1 - u2)"},
                            capsys=capsys)
    assert code == 1 and report is None
    assert err.splitlines() == [f"error: non-finite sample at grid node {node}"]


def test_two_component_integration_scenario(tmp_path, capsys):
    code, report, _ = run(tmp_path, TWO_COMPONENT_INTEGRATE, capsys=capsys)
    assert code == 0
    names = [c["check"] for c in report["checks"]]
    assert names[0] == "lequa"
    assert "integration_consistency" in names
    assert names[-1] == "pair_flat"


@pytest.mark.parametrize("b_source", [
    {"b1": "sqrt(u1 - u2)", "b2": "sqrt(u1 - u2)"},
    {"integrate": TWO_COMPONENT_INTEGRATE["integrate"]},
], ids=["expressions", "integrate"])
def test_expression_potential_matches_the_analytic_one(tmp_path, capsys, b_source):
    """An expression potential gets its partials by finite differences."""
    base = {k: v for k, v in TWO_COMPONENT_INTEGRATE.items() if k != "integrate"}
    rows = {}
    for name, potential in (("log", {"kind": "log", "c": 0.5}),
                            ("fd", {"kind": "expression", "value": "0.5*log(u1-u2)"})):
        code, report, _ = run(tmp_path, {**base, **b_source, "potential": potential},
                              capsys=capsys)
        assert code == 0
        rows[name] = {c["check"]: c for c in report["checks"]}
    assert list(rows["fd"]) == list(rows["log"])
    assert rows["fd"]["lequa"]["residual"] <= 1e-9
    for check, row in rows["fd"].items():
        assert row["verdict"] == rows["log"][check]["verdict"] == "pass"
        if check != "lequa":
            assert abs(row["residual"] - rows["log"][check]["residual"]) <= 1e-11


@pytest.mark.parametrize("source", ["flag", "env", "scenario"])
@pytest.mark.parametrize("value, literal", [("nan", "NaN"), ("inf", "1e400"),
                                            ("-inf", "-1e400")])
def test_non_finite_tolerance_is_rejected(tmp_path, capsys, monkeypatch,
                                          source, value, literal):
    """On the sphere (flatness residual about 1) an infinite bound would pass
    every row and a NaN bound fail every one."""
    text, args = json.dumps(FLAT_SPHERE), []
    if source == "flag":
        args = [f"--tol={value}"]
    elif source == "env":
        monkeypatch.setenv("FLATPENCIL_TOL", value)
    else:  # JSON reads 1e400 as inf
        text = text[:-1] + f', "tolerance": {literal}}}'
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = cli.main(["run", str(path), *args])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "positive and finite" in err


def test_catalog_scenario_and_metadata(tmp_path, capsys):
    code, report, _ = run(tmp_path, {"kind": "catalog", "name": "polar"},
                          capsys=capsys)
    assert code == 0
    assert report["metadata"]["catalog_entry"] == "polar"


def test_catalog_kind_runs_at_order_four_only(tmp_path, capsys):
    """Catalog bounds were calibrated at order 4; order 2 is refused, not run."""
    code, report, err = run(tmp_path, {"kind": "catalog", "name": "polar"}, "--order", "2",
                            capsys=capsys)
    assert code == 1 and report is None
    assert err.startswith("error: ") and err.count("error:") == 1 and "order" in err


def test_unknown_catalog_entry_is_schema_error(tmp_path, capsys):
    code, _, err = run(tmp_path, {"kind": "catalog", "name": "nope"},
                       capsys=capsys)
    assert code == 1
    assert "nope" in err


def test_unknown_kind(tmp_path, capsys):
    code, _, err = run(tmp_path, {"kind": "meow"}, capsys=capsys)
    assert code == 1
    assert "meow" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["run", str(path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert err


@pytest.mark.parametrize("scenario, message", [
    (dict(PENCIL, lambda_samples=[1, 2]),
     "each lambda sample must be a list of numbers, got 1"),
    (dict(PENCIL, chart={"lower": 0.5, "upper": [2.0, 2.0], "points": [9, 9]}),
     "chart lower must be a list of numbers, got 0.5"),
    (dict(TWO_COMPONENT_INTEGRATE, eps=5), "eps must be a list of integers, got 5"),
    (dict(PENCIL, k1=[1]), "k1 must be a number, got [1]"),
    (dict(PENCIL, k2="0"), "k2 must be a number, got '0'"),
    (dict(DUBROVIN, c=[0]), "c must be a number, got [0]"),
    (dict(TWO_COMPONENT_INTEGRATE, potential={"kind": "log", "c": [0.5]}),
     "c must be a number, got [0.5]"),
    (dict(TWO_COMPONENT_INTEGRATE, potential={"kind": "linear", "a": [0.3]}),
     "a must be a number, got [0.3]"),
    (dict(TWO_COMPONENT_INTEGRATE, potential={"kind": "linear", "b": True}),
     "b must be a number, got True"),
    (dict(DRESS, s=[0]), "s must be a number, got [0]"),
    (dict(DRESS, length=[3]), "length must be a number, got [3]"),
    (dict(DRESS, panels=[16]), "panels must be an integer, got [16]"),
    (dict(DRESS, nodes_per_panel="6"), "nodes_per_panel must be an integer, got '6'"),
    (dict(DRESS, potentials={**DRESS["potentials"], "amplitude": [0.4]}),
     "amplitude must be a number, got [0.4]"),
    (dict(DRESS, potentials={**DRESS["potentials"], "width": [1]}),
     "width must be a number, got [1]"),
    (dict(DRESS, potentials={**DRESS["potentials"], "components": [2]}),
     "components must be an integer, got [2]"),
    ({"kind": ["check-flat"]},
     f"unknown scenario kind ['check-flat']; expected one of {', '.join(cli.KINDS)}"),
    ({"kind": "catalog", "name": ["polar"]},
     f"unknown catalog entry ['polar']; known entries: {', '.join(catalog.names())}"),
    (dict(PENCIL, metric={"contravariant": 5}), "metric must be a 2x2 matrix of entries, got 5"),
    (dict(TWO_COMPONENT_INTEGRATE, integrate="b1_edge b2_edge"),
     "integrate must be an object with b1_edge and b2_edge, got 'b1_edge b2_edge'"),
    ({"kind": "lame", "metric": {"catalog": "polar"}, "eps": [1, 1, 1]},
     "eps needs 2 numbers, got 3"),
    ({"kind": "reduce", "metric": {"catalog": "diag-u"}, "eps": [1],
      "profile": {"constant": [1, 2]}}, "eps needs 2 numbers, got 1"),
], ids=["lambda_samples", "chart", "eps", "k1", "k2", "c", "log_c", "a", "b", "s",
        "length", "panels", "nodes_per_panel", "amplitude", "width", "components",
        "kind", "catalog_name", "contravariant", "integrate", "lame_eps_length",
        "reduce_eps_length"])
def test_wrong_typed_fields_are_schema_errors(tmp_path, capsys, scenario, message):
    code, report, err = run(tmp_path, scenario, capsys=capsys)
    assert code == 1 and report is None
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("scenario, message", [
    (dict(FLAT_EUCLID, chart={"lower": [0.5, 0.5], "upper": [1.5, 1.5], "points": [9.9, 9]},
          metric={"contravariant": [["1", "0"], ["0", "1"]]}),
     "chart points must be a list of integers, got [9.9, 9]"),
    ({"kind": "lame", "metric": {"catalog": "polar"}, "eps": [1.7, 1]},
     "eps must be a list of integers, got [1.7, 1]"),
    (dict(DRESS, potentials={**DRESS["potentials"], "components": 2.7}),
     "components must be an integer, got 2.7"),
    (dict(DRESS, panels=16.5), "panels must be an integer, got 16.5"),
    (dict(DRESS, nodes_per_panel=6.5), "nodes_per_panel must be an integer, got 6.5"),
    (dict(DRESS, potentials={**DRESS["potentials"], "include_diagonal": "false"}),
     "include_diagonal must be true or false, got 'false'"),
], ids=["points", "eps", "components", "panels", "nodes_per_panel", "include_diagonal"])
def test_integer_and_boolean_fields_are_not_repaired(tmp_path, capsys, scenario, message):
    """int() would truncate 9.9 to 9 and bool("false") is True: both exit 1."""
    code, report, err = run(tmp_path, scenario, capsys=capsys)
    assert code == 1 and report is None
    assert err.splitlines() == [f"error: {message}"]


def test_every_kind_has_a_fixture_that_runs(tmp_path, capsys):
    assert {scenario["kind"] for scenario in FIXTURES.values()} == set(cli.KINDS)
    for scenario in FIXTURES.values():
        code, report, err = run(tmp_path, scenario, capsys=capsys)
        assert code in (0, 2) and report["scenario"] == scenario, err


@pytest.fixture
def no_sampling(monkeypatch):
    """Fails a test that reaches a grid: schema errors come before sampling."""
    def sampled(*args, **kwargs):
        raise AssertionError("a grid was sampled before the schema was checked")

    monkeypatch.setattr(geo, "build_metric", sampled)
    monkeypatch.setattr(cli, "sample", sampled)
    monkeypatch.setattr(catalog, "metric_field", sampled)


def test_misspelt_fields_are_refused_before_sampling(tmp_path, capsys, no_sampling):
    """Ignored, the misspelt keys would run this pencil in flat mode at
    tolerance 1e-6, pass it, and echo the typos in the report."""
    scenario = {"kind": "check-pencil", "mdoe": "constant_curvature", "k_1": 0.25,
                "tolerence": 1e-30, **{key: PENCIL[key] for key in ("chart", "metric", "metric2")}}
    code, report, err = run(tmp_path, scenario, capsys=capsys)
    assert code == 1 and report is None
    assert err.splitlines() == [
        "error: scenario kind 'check-pencil' has no field 'mdoe'; it takes chart, metric, "
        "metric2, mode, k1, k2, lambda_samples, tolerance, order, seed, out, dump_csv"]


OTHER_CHART = {"lower": [0.5, 0.5], "upper": [1.5, 1.5], "points": [9, 9]}


@pytest.mark.parametrize("scenario, message", [
    (dict(FLAT_EUCLID, metric={"catalog": "euclidean", "contravariant": [[1, 0], [0, 1]]}),
     "metric in scenario kind 'check-flat' takes 'catalog' or 'contravariant', not both"),
    (dict(REDUCE, profile={"constant": [2.0, 3.0], "expressions": ["t", "t"]}),
     "profile in scenario kind 'reduce' takes 'constant' or 'expressions', not both"),
    (dict(TWO_COMPONENT_INTEGRATE, b1="u1 - u2", b2="u1 - u2"),
     "scenario kind 'two-component' takes 'b1' or 'integrate', not both"),
    (dict(TWO_COMPONENT_INTEGRATE, potential={"kind": "product", "c": 7}),
     "potential kind 'product' in scenario kind 'two-component' has no field 'c'"),
    (dict(FLAT_POLAR, chart=OTHER_CHART),
     "scenario kind 'check-flat' takes 'chart' or a 'catalog' metric, not both"),
    (dict(LAME, chart=OTHER_CHART),
     "scenario kind 'lame' takes 'chart' or a 'catalog' metric, not both"),
    (dict(REDUCE, chart=OTHER_CHART),
     "scenario kind 'reduce' takes 'chart' or a 'catalog' metric, not both"),
    (dict(CATALOG, chart=OTHER_CHART),
     "scenario kind 'catalog' has no field 'chart'; it takes name, tolerance, order, seed, "
     "out, dump_csv"),
    (dict(PENCIL, metric={"catalog": "euclidean"}),
     "metric in scenario kind 'check-pencil' has no field 'catalog'; it takes contravariant"),
    ({k: v for k, v in TWO_COMPONENT_INTEGRATE.items() if k != "integrate"},
     "scenario kind 'two-component' needs 'b1' and 'b2' or 'integrate'"),
    (dict({k: v for k, v in TWO_COMPONENT_INTEGRATE.items() if k != "integrate"}, b1="u1"),
     "scenario kind 'two-component' requires field 'b2'"),
    (dict(NIJ_COUNTER, lambda_samples=[[1, -1]]),
     "scenario kind 'nijenhuis' has no field 'lambda_samples'; it takes chart, metric, "
     "metric2, tolerance, order, seed, out, dump_csv"),
    (dict(DIAGONAL_FORM, lambda_samples=[[1, -1]]),
     "scenario kind 'diagonal-form' has no field 'lambda_samples'; it takes chart, metric, "
     "metric2, tolerance, order, seed, out, dump_csv"),
], ids=["metric", "profile", "b_and_integrate", "potential", "check_flat_chart", "lame_chart",
        "reduce_chart", "catalog_chart", "pencil_catalog_metric", "no_b", "b1_alone",
        "nijenhuis_lambda_samples", "diagonal_form_lambda_samples"])
def test_conflicting_and_undeclared_fields_are_schema_errors(tmp_path, capsys, no_sampling,
                                                             scenario, message):
    """Of two fields that exclude each other neither silently wins, and a
    field the kind does not read is not silently ignored."""
    code, report, err = run(tmp_path, scenario, capsys=capsys)
    assert code == 1 and report is None
    assert err.splitlines() == [f"error: {message}"]


def _numeric_leaves(value, path=()):
    """The path of every number in a scenario."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _numeric_leaves(item, (*path, index))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


#: fields that messages name otherwise: a list's entries and a metric's rows
#: by the list and the metric, a catalog entry's name as the entry
SAID = {"lambda_samples": "lambda sample", "name": "catalog entry"}


def names_field(message: str, path) -> bool:
    """Whether ``message`` names the field at ``path``, or for an entry of a
    list the list, as a word."""
    keys = [key for key in path if isinstance(key, str)]
    field = keys[-2] if keys[-1] == "contravariant" else keys[-1]
    return any(re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", message)
               for word in (field, SAID.get(field, field)))


NON_FINITE = [(name, path, literal) for name, scenario in FIXTURES.items()
              for path in _numeric_leaves(scenario) for literal in ("NaN", "Infinity")]


@pytest.mark.parametrize("name, path, literal", NON_FINITE,
                         ids=[f"{n}-{'.'.join(map(str, p))}-{lit}" for n, p, lit in NON_FINITE])
def test_non_finite_numbers_are_schema_errors(tmp_path, capsys, no_sampling, name, path, literal):
    """Python's json reads NaN and Infinity: unchecked, a non-finite amplitude
    ends in an OverflowError traceback and a non-finite length in a
    misleading kernel error."""
    scenario = copy.deepcopy(FIXTURES[name])
    *parents, last = path
    holder = scenario
    for key in parents:
        holder = holder[key]
    holder[last] = float(literal.lower())
    path_ = tmp_path / "scenario.json"
    path_.write_text(json.dumps(scenario))
    assert literal in path_.read_text()
    code = cli.main(["run", str(path_)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and names_field(line, path), line


def test_integral_floats_are_integers(tmp_path, capsys):
    scenario = dict(FLAT_EUCLID, metric={"contravariant": [["1", "0"], ["0", "1"]]},
                    chart={"lower": [0.5, 0.5], "upper": [1.5, 1.5], "points": [9.0, 9]})
    code, report, _ = run(tmp_path, scenario, capsys=capsys)
    assert code == 0 and report["metadata"]["chart"]["points"] == [9, 9]


def test_potentials_eta_passes_the_metric_gates(tmp_path, capsys):
    """eta is built by build_metric: a degenerate one exits 1 rather than
    reading as a degenerate candidate."""
    code, report, err = run(tmp_path, dict(POTENTIALS, eta=[[1, 0], [0, 0]]), capsys=capsys)
    assert code == 1 and report is None
    assert len(err.splitlines()) == 1 and err.startswith("error: |det g| = 0")
    code, report, err = run(tmp_path, dict(POTENTIALS, eta=[[1, 0]]), capsys=capsys)
    assert code == 1 and err.splitlines() == ["error: eta needs 2 rows of 2 numbers"]


def test_diagonal_form_judges_each_metric_at_its_own_scale(tmp_path, capsys):
    """g2's off-diagonal entry is half its diagonal, though 1e9 times below
    g1's scale."""
    scenario = {
        "kind": "diagonal-form",
        "chart": {"lower": [1.0, 1.0], "upper": [2.0, 2.0], "points": [17, 17]},
        "metric": {"contravariant": [["1e6*u1", 0], [0, 1e6]]},
        "metric2": {"contravariant": [[1e-3, 5e-4], [5e-4, 1e-3]]},
    }
    code, report, err = run(tmp_path, scenario, capsys=capsys)
    assert code == 1 and report is None
    assert err.splitlines() == ["error: off-diagonal magnitude 5.000e-04 exceeds 1.000e-11"]


@pytest.mark.parametrize("key, value", [("out", 5), ("dump_csv", True)])
def test_path_settings_must_be_strings(tmp_path, capsys, monkeypatch, key, value):
    """str() would write the report to a file named 5, or the CSV files into a
    directory named True."""
    monkeypatch.chdir(tmp_path)
    code, report, err = run(tmp_path, dict(FLAT_EUCLID, **{key: value}), capsys=capsys)
    assert code == 1 and report is None
    assert err.splitlines() == [f"error: {key} must be a string, got {value!r}"]
    assert [path.name for path in tmp_path.iterdir()] == ["scenario.json"]


SCENARIO_ENTRIES = [e for e in catalog.ENTRIES if isinstance(e.runner, catalog.ScenarioRunner)]


def test_eleven_catalog_entries_are_scenarios():
    """The entries the file test below runs."""
    assert [e.name for e in SCENARIO_ENTRIES] == [
        "euclidean", "polar", "diag-u", "s4-log-pencil", "s4-constant-curvature",
        "tc-log-unit", "tc-separable", "tc-linear-exp", "tc-product-bad", "tc-log-wrong-b",
        "dubrovin-quadratic"]


@pytest.mark.parametrize("entry", SCENARIO_ENTRIES, ids=lambda e: e.name)
def test_catalog_scenarios_run_as_files(tmp_path, capsys, entry):
    """The scenario entries are worked examples of the schema: each of an
    entry's scenarios runs from a JSON file, and each row is the worst of the
    residuals it reads there."""
    residuals = []
    for scenario in entry.runner.scenarios:
        code, report, _ = run(tmp_path, scenario, capsys=capsys)
        assert code in (0, 2)  # a negative control's report fails at the default tolerance
        residuals.append({check["check"]: check["residual"] for check in report["checks"]})
    expected = [gc.worst(residuals[at][key] for key in keys)
                for _, at, keys, _, _ in entry.runner.rows]
    assert expected == [row.residual for row in entry.run()]


def test_missing_file(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "absent.json")])
    _, err = capsys.readouterr()
    assert code == 1


def test_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(tmp_path, FLAT_EUCLID, "--out", str(out_path),
                     capsys=capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["verdict"] == "pass"


def test_reports_are_byte_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for f in (f1, f2):
        code, _, _ = run(tmp_path, DRESS, "--seed", "7", "--out", str(f),
                         capsys=capsys)
        assert code == 0
    assert filecmp.cmp(f1, f2, shallow=False)
    assert f1.read_bytes()  # non-empty


def test_dress_reports_its_quadrature_error(tmp_path, capsys):
    """The change of beta from 16 panels, the default, to the next rung, 20."""
    _, report, _ = run(tmp_path, DRESS, capsys=capsys)
    pots = zd.gaussian_set(2, amplitude=0.4, include_diagonal=True)
    beta = {
        panels: zd.solve_marchenko(zd.DressingProblem(pots, (0.1, -0.1), panels=panels)).beta()
        for panels in (16, 20)
    }
    error = report["metadata"]["quadrature_error"]
    assert error == float(np.max(np.abs(beta[20] - beta[16])))
    assert error <= zd.QUADRATURE_TOL
    _, coarse, _ = run(tmp_path, dict(DRESS, panels=4), capsys=capsys)
    assert coarse["metadata"]["quadrature_error"] > zd.QUADRATURE_TOL


def test_seventeen_digit_floats(tmp_path, capsys):
    _, report, _ = run(tmp_path, dict(FLAT_POLAR, tolerance=1e-6),
                       capsys=capsys)
    raw = json.dumps(report)  # round-trip sanity only
    _, captured, _ = run(tmp_path, dict(FLAT_POLAR, tolerance=1e-6),
                         capsys=capsys)
    # the serializer prints the shortest round-trip form: 1e-6 re-reads exactly
    assert captured["settings"]["tolerance"] == 1e-6
    assert captured["checks"][0]["residual"] == report["checks"][0]["residual"]


def test_csv_dump(tmp_path, capsys):
    csv_dir = tmp_path / "csv"
    code, _, _ = run(tmp_path, FLAT_EUCLID, "--dump-csv", str(csv_dir),
                     capsys=capsys)
    assert code == 0
    csv_file = csv_dir / "flatness.csv"
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "u1,u2,residual"
    assert len(lines) == 1 + 33 * 33


def test_csv_rows_match_the_node_by_node_writer(tmp_path):
    chart = GridChart((-0.3, 1.0, 0.1), (0.7, 1.1, 2.0), (4, 3, 5))
    values = (np.arange(60.0).reshape(chart.shape) - 29.5) / 7.0e5
    values[0, 1, 2], values[1, 1, 1], values[2, 0, 0] = np.nan, np.inf, -0.0
    cli._write_csv_fields({"field": (chart, values)}, str(tmp_path))
    written = (tmp_path / "field.csv").read_bytes()
    expected = "u1,u2,u3,residual\n" + "".join(
        ",".join(cli._format_float(float(v)) for v in (*chart.node(idx), values[idx])) + "\n"
        for idx in np.ndindex(chart.shape)
    )
    assert written == expected.encode()
    # the bytes the node-by-node writer produced before it was replaced
    assert hashlib.sha256(written).hexdigest() == (
        "24dc113598a28ae38830507d0cd642201cb168b601d67b8a2171200b8d0125d3"
    )


def test_check_flat_computes_one_curvature(tmp_path, capsys, monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, ("curvature",), geo, pc)
    code, report, _ = run(tmp_path, FLAT_POLAR, "--dump-csv", str(tmp_path / "csv"),
                          capsys=capsys)
    assert code == 0 and report["verdict"] == "pass"
    assert calls["curvature"] == 1
    assert (tmp_path / "csv" / "flatness.csv").is_file()


#: a 3-D metric with every off-diagonal entry nonzero, flat to no order
CURVED_3D = {
    "chart": {"lower": [1.0, 1.0, 1.0], "upper": [2.0, 2.0, 2.0], "points": [13, 13, 13]},
    "metric": {"contravariant": [["2 + u1 * u2", "0.3 * u3", "0.1 * u1"],
                                 ["0.3 * u3", "2 + u2 * u3", "0.2 * u2"],
                                 ["0.1 * u1", "0.2 * u2", "2 + u3 * u1"]]},
}


def test_flatness_reads_the_pointwise_maximum():
    """``check-flat`` and a flat pencil's endpoints reduce the pointwise
    maximum of ``|R^i_{jkl}|`` they keep for dumps: the residual is the
    maximum over every component, bit for bit, on a non-diagonal metric."""
    settings = {"tolerance": 1e-6, "order": 4, "seed": 0}
    _, fields = cli._read_scenario({"kind": "check-flat", **CURVED_3D})
    metric, chart = cli._optional_chart_metric(fields, "check-flat", 4)
    every = gc.interior_max(geo.curvature(metric).mixed.values, chart)
    report, _ = cli.run_scenario({"kind": "check-flat", **CURVED_3D}, settings)
    assert report["checks"][0]["residual"] == every > 1e-3
    identity = {"contravariant": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    report, _ = cli.run_scenario({"kind": "check-pencil", **CURVED_3D, "metric2": identity,
                                  "lambda_samples": [[1, 0], [0, 1], [1, 1]]}, settings)
    rows = {check["check"]: check["residual"] for check in report["checks"]}
    assert rows["g1_flatness"] == every and rows["g2_flatness"] == 0.0


def test_nijenhuis_kind_builds_one_affinor(monkeypatch):
    """The torsion and the spectrum read one affinor and its eigenvalues."""
    calls = Counter()
    count_calls(monkeypatch, calls, ("affinor",), pc)
    report, _ = cli.run_scenario(NIJ_COUNTER, {"tolerance": 1e-2, "order": 4, "seed": 0})
    assert [check["check"] for check in report["checks"]] == ["nijenhuis", "spectrum_gap"]
    assert calls == {"affinor": 1}


def test_check_pencil_takes_csv_fields_from_the_check(tmp_path, capsys, monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, ("curvature",), geo, pc)
    code, _, _ = run(tmp_path, PENCIL, "--dump-csv", str(tmp_path / "csv"), capsys=capsys)
    assert code == 0
    # the samples [1, 0] and [0, 1] are g1 and g2, curved once each
    assert calls["curvature"] == len(PENCIL["lambda_samples"])
    lines = (tmp_path / "csv" / "g1-curvature.csv").read_text().splitlines()
    assert lines[0] == "u1,u2,residual" and len(lines) == 1 + 65 * 65
    assert (tmp_path / "csv" / "g2-curvature.csv").is_file()


def test_catalog_listing(capsys):
    assert cli.main(["catalog"]) == 0
    out, _ = capsys.readouterr()
    for name in ("euclidean", "s4-log-pencil", "dressing-reduced"):
        assert name in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert "0.1.0" in out


def test_dress_solves_its_base_problem_once(monkeypatch):
    """The base problem, its finer rung for quadrature_error, and the scaled
    problem: the tilde check reuses the base solution."""
    calls = Counter()
    count_calls(monkeypatch, calls, ("solve_marchenko",), zd)
    report, _ = cli.run_scenario(DRESS, {"tolerance": 1e-6, "order": 4, "seed": 0})
    assert report["verdict"] == "pass"
    assert calls["solve_marchenko"] == 3


def test_seed_is_echoed(tmp_path, capsys):
    _, report, _ = run(tmp_path, DRESS, "--seed", "11", capsys=capsys)
    assert report["settings"]["seed"] == 11
