"""The declared field tables of the scenario kinds: every shipped scenario
refuses a renamed or retyped field by name, before anything is sampled, and
docs/SCHEMA.md documents each table as it is declared."""

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flatpencil import cli
from flatpencil import zakharov_dressing as zd
from flatpencil.errors import FlatpencilError
from flatpencil.grid_calculus import GridChart

from test_cli import FIXTURES, SCENARIO_ENTRIES, names_field

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = (ROOT / "docs" / "SCHEMA.md").read_text()


def readme_example() -> dict:
    """README's minimal ``check-pencil`` scenario."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("A minimal example:", 1)[1].split("```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


#: every scenario the project ships: the catalog's, README's and this suite's
SHIPPED = {
    **{f"{entry.name}-{at}": scenario for entry in SCENARIO_ENTRIES
       for at, scenario in enumerate(entry.runner.scenarios)},
    "README": readme_example(),
    **FIXTURES,
}


def _paths(scenario: dict, path=()):
    """The path of every field, top-level or in a nested object."""
    for key, value in scenario.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from _paths(value, (*path, key))


CASES = [(name, path) for name, scenario in SHIPPED.items() for path in _paths(scenario)]

#: one value of each JSON type
PROBES = [None, True, 7, 2.5, "text", [7], {"x": 7}]


def _table(reader, value) -> cli.Table:
    """The table a nested object's reader reads ``value`` against."""
    if reader.func is cli._tagged:
        return reader.args[0][value["kind"]][0]
    assert reader.func is cli._object
    return reader.args[0]


def declared(scenario: dict, path) -> cli.Field | None:
    """The declared field at ``path`` of a scenario; ``None`` for a ``kind``."""
    table, value = cli._KINDS[scenario["kind"]][0], scenario
    for key in path[:-1]:
        value = value[key]
        table = _table(table.fields[key].read, value)
    return table.fields.get(path[-1])


def refuses(field: cli.Field | None, value) -> bool:
    """Whether a field's declared reader refuses ``value`` on its own."""
    if field is None:  # a kind: no probe names one
        return True
    try:
        field.read(value, "field", "scenario")
    except FlatpencilError:
        return True
    return False


class Sampled(Exception):
    """A grid or a dressing set was about to be built."""


def outcome(scenario: dict) -> str | None:
    """The error line ``flatpencil run`` prints for ``scenario``, or ``None``
    when the scenario was read and a grid was about to be sampled."""
    def sampled(*args, **kwargs):
        raise Sampled

    args = cli.build_parser().parse_args(["run", "scenario.json"])
    with pytest.MonkeyPatch.context() as patch:
        for var in ("TOL", "SEED", "OUT", "DUMP_CSV"):
            patch.delenv(f"FLATPENCIL_{var}", raising=False)
        patch.setattr(GridChart, "meshgrid", sampled)
        patch.setattr(zd, "gaussian_set", sampled)
        try:
            cli.run_scenario(scenario, cli._resolve_settings(args, scenario))
        except Sampled:
            return None
        except (FlatpencilError, ValueError) as exc:  # what _cmd_run prints
            return str(exc)
    raise AssertionError("the scenario ran to the end without sampling")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), rename=st.booleans(),
       suffix=st.text("ABXYZ", min_size=1, max_size=3), probe=st.sampled_from(PROBES))
def test_a_renamed_or_retyped_field_is_a_schema_error_naming_it(case, rename, suffix, probe):
    """Rename any one field of a shipped scenario, or give it a value of a
    JSON type its reader refuses: the run exits 1 naming the field before
    any grid is sampled, never with a traceback and never with a report."""
    name, path = case
    scenario = copy.deepcopy(SHIPPED[name])
    holder = scenario
    for key in path[:-1]:
        holder = holder[key]
    if rename:
        holder[path[-1] + suffix] = holder.pop(path[-1])
        message = outcome(scenario)
        assert message is not None
        assert repr(path[-1] + suffix) in message or names_field(message, path), message
        return
    refused = refuses(declared(SHIPPED[name], path), probe)
    holder[path[-1]] = probe
    message = outcome(scenario)
    if refused:
        assert message is not None and names_field(message, path), message


def test_the_property_reaches_every_kind_and_nested_object():
    kinds = {scenario["kind"] for scenario in SHIPPED.values()}
    assert kinds == set(cli.KINDS)
    nested = {path[-2] for _, path in CASES if len(path) > 1}
    assert {"chart", "metric", "metric2", "profile", "potential", "potentials",
            "integrate"} <= nested


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_every_shipped_scenario_reads(name):
    kind, fields = cli._read_scenario(SHIPPED[name])
    assert kind == SHIPPED[name]["kind"]
    assert set(vars(fields)) == set(cli._KINDS[kind][0].fields)


def test_the_readme_example_reads_as_a_flat_pencil():
    kind, fields = cli._read_scenario(readme_example())
    assert kind == "check-pencil" and fields.mode == "flat"
    assert fields.chart.points == (65, 65) and fields.k1 == fields.k2 == 0.0
    assert fields.lambda_samples == ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (3.0, -1.0),
                                     (1.0, 2.0))
    assert fields.tolerance == 1e-6 and fields.out is None


# ---------------------------------------------------------------------------
# docs/SCHEMA.md against the declarations


def _sections() -> dict[str, str]:
    """Heading text -> the text below it, up to the next heading."""
    parts = re.split(r"^#{2,4} (.+)$", SCHEMA, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def documented(text: str) -> dict[str, str]:
    """Field -> its ``required`` cell, from the one field table in ``text``."""
    tables = re.findall(r"^\| field \| required \| meaning \|\n\| --- .*\n((?:\|.*\n)+)",
                        text, flags=re.M)
    assert len(tables) == 1, text[:200]
    rows = {}
    for line in tables[0].splitlines():
        fields, required = (cell.strip() for cell in line.strip("|").split("|")[:2])
        for field in fields.split(", "):
            rows[field.strip("`")] = required
    return rows


def _declared_tables() -> dict[str, tuple[dict, set]]:
    """Section heading -> (declared fields, required ones) it documents."""
    def of(table):
        fields = {key: field for key, field in table.fields.items() if key not in cli._SETTINGS}
        return fields, {key for key, field in fields.items() if field.default is cli._REQUIRED}

    kinds = {f"`{kind}`": of(table) for kind, (table, _) in cli._KINDS.items()}
    tables = [table for table, _ in cli._POTENTIALS.values()]
    potential = ({"kind": None, **{key: f for t in tables for key, f in t.fields.items()}},
                 {"kind"} | {key for t in tables for key, f in t.fields.items()
                             if f.default is cli._REQUIRED})
    two = cli._KINDS["two-component"][0].fields
    return {
        **kinds,
        "Chart": of(cli._CHART.args[0]),
        "Metric": of(cli._METRIC.read.args[0]),
        "Profile": of(cli._PROFILE.args[0]),
        "The `potentials` object": of(cli._GAUSSIAN_SET.args[0]),
        "The `potential` object": potential,
        "The `integrate` object": of(two["integrate"].read.args[0]),
    }


@pytest.mark.parametrize("heading", sorted(_declared_tables()))
def test_schema_tables_match_the_declarations(heading):
    """Each table lists the declared fields, with ``yes`` exactly where one is
    required; alternatives read ``one of``, and a chart that a catalog metric
    may supply reads ``for inline metrics``."""
    fields, required = _declared_tables()[heading]
    rows = documented(_sections()[heading])
    assert set(rows) == set(fields)
    assert {field for field, cell in rows.items() if cell == "yes"} == required
    assert set(rows.values()) <= {"yes", "no", "one of", "for inline metrics"}


def test_every_kind_has_a_table():
    headings = {heading for heading in _sections() if heading.startswith("`")}
    assert {f"`{kind}`" for kind in cli.KINDS} <= headings


def test_the_settings_table_matches_the_declaration():
    table = _sections()["Settings and precedence"].split("\n\n")[1]
    keys = [row.split("|")[4].strip().strip("`") for row in table.splitlines()[2:]]
    defaults = [row.split("|")[5].strip().strip("`") for row in table.splitlines()[2:]]
    assert keys == list(cli._SETTINGS)
    assert [None if text == "none" else float(text) for text in defaults] == [
        field.default for field in cli._SETTINGS.values()]


def test_the_documented_messages_are_the_ones_printed():
    """The error lines SCHEMA.md quotes for unknown fields and non-finite and
    out-of-range numbers."""
    cases = [(dict(FIXTURES["PENCIL"], mdoe="constant_curvature"),
              "scenario kind 'check-pencil' has no field 'mdoe'; it takes chart, metric, "
              "metric2, mode, k1, k2, lambda_samples, tolerance, seed, out, dump_csv"),
             ({"kind": "check-flat", "metric": {"contravariant": [[1, 0], [0, 1]]},
               "chart": {"lowr": [0, 0], "upper": [1, 1], "points": [9, 9]}},
              "chart in scenario kind 'check-flat' has no field 'lowr'; it takes lower, "
              "upper, points"),
             (dict(FIXTURES["DRESS"], point=[float("nan"), -0.1]),
              "point must be a list of finite numbers, got [nan, -0.1]"),
             ({"kind": "dress", "potentials": {"amplitude": float("nan")}, "point": [0.1, -0.1]},
              "amplitude must be a finite number, got nan"),
             ({"kind": "dress", "potentials": {"components": -1}, "point": [0.1]},
              "components must be at least 1, got -1"),
             ({"kind": "dress", "potentials": {"width": 0}, "point": [0.1, -0.1]},
              "width must be positive, got 0"),
             (dict(FIXTURES["DRESS"], seed=-5), "seed must be at least 0, got -5")]
    flat = " ".join(SCHEMA.split())
    for scenario, message in cases:
        assert outcome(scenario) == message
        assert f"`error: {message}`" in flat
