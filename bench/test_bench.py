"""Tests of the benchmark's own machinery: the correctness gate, the
outside-in tracer, and the agreement of BENCHMARK.json with the runner.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
from layers import COUNTS, PER_LAYER, round_metrics
from tracing import Patches, ResidualProbe, Tracer
from workloads import (
    WORKLOADS,
    Op,
    Outcome,
    _scenario_op,
    _settings,
    _window_chart,
    cli_round,
    judge,
    potential_set,
    window_pipeline,
)

import flatpencil
from flatpencil import expressions, geometry_core, grid_calculus, pencil_checker
from flatpencil import lame_system as ls
from flatpencil import zakharov_dressing as zd
from flatpencil.grid_calculus import GridChart

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def probe():
    patches = Patches()
    probe = ResidualProbe()
    probe.install(patches)
    yield probe
    patches.restore()


def _sphere(points: int = 17) -> dict:
    return {
        "kind": "check-flat",
        "chart": {"lower": [0.6, 0.4], "upper": [1.2, 1.2], "points": [points, points]},
        "metric": {"contravariant": [["1", 0], [0, "1/(sin(u1)*sin(u1))"]]},
    }


def _separable_pencil(points: int = 17) -> dict:
    return {
        "kind": "check-pencil",
        "mode": "flat",
        "chart": {"lower": [0.5, 0.5], "upper": [1.5, 1.5], "points": [points, points]},
        "metric": {"contravariant": [["(1 + u1*u1)*(2 + u1)", 0], [0, "(2 + u2)*(5 + exp(u2))"]]},
        "metric2": {"contravariant": [["1 + u1*u1", 0], [0, "2 + u2"]]},
        "lambda_samples": [[1, 0], [0, 1], [1, 2]],
    }


# ---------------------------------------------------------------------------
# the correctness gate


def test_wrong_expected_verdict_is_a_failure(probe):
    # the sphere is not flat, so "pass" is the wrong expectation
    op = _scenario_op("sphere", _sphere(), "pass", _settings(0))
    [record] = run.run_round([op], probe)
    assert record.failure == "verdict 'fail', expected 'pass'"
    assert record.nodes == 0
    result = json.loads(run._result([record], {}))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_right_expected_verdict_passes(probe):
    op = _scenario_op("sphere", _sphere(), "fail", _settings(0))
    [record] = run.run_round([op], probe)
    assert record.failure is None
    assert record.nodes == 17 * 17


def test_nan_residual_hidden_by_max_is_a_failure(probe):
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (9, 9))

    def call():
        clean = grid_calculus.interior_max(np.zeros(chart.shape), chart)
        dirty = grid_calculus.interior_max(np.full(chart.shape, np.nan), chart)
        return max(clean, dirty)  # max() drops the NaN: this is 0.0

    op = Op("nan", "pass", call, lambda r: Outcome("pass" if r <= 1e-6 else "fail", (r,)))
    [record] = run.run_round([op], probe)
    assert record.failure == "1 non-finite residual(s)"


def test_nan_residual_in_the_result_is_a_failure():
    assert judge("pass", Outcome("pass", (1e-9, float("nan"))), []) == "1 non-finite residual(s)"
    assert judge("pass", Outcome("pass", (1e-9,)), [float("inf")]) == "1 non-finite residual(s)"
    assert judge("pass", Outcome("pass", (1e-9,)), [2e-9]) is None


def test_raising_operation_is_a_failure(probe):
    def call():
        raise ValueError("boom")

    [record] = run.run_round([Op("raise", "pass", call, None)], probe)
    assert record.failure == "raised ValueError: boom"


# ---------------------------------------------------------------------------
# the tracer


def test_tracer_wraps_every_binding_and_restores():
    connection = geometry_core.connection
    compile_expression = expressions.compile_expression
    kernel_eval = zd.PotentialKernel.eval
    patches = Patches()
    Tracer().install(patches)
    try:
        assert geometry_core.connection is not connection
        assert pencil_checker.connection is geometry_core.connection
        assert flatpencil.connection is geometry_core.connection
        assert sys.modules["flatpencil.cli"].compile_expression is not compile_expression
        assert zd.PotentialKernel.eval is not kernel_eval
    finally:
        patches.restore()
    assert geometry_core.connection is connection
    assert pencil_checker.connection is connection
    assert flatpencil.connection is connection
    assert sys.modules["flatpencil.cli"].compile_expression is compile_expression
    assert zd.PotentialKernel.eval is kernel_eval


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    leaf = tracer.wrap("t.leaf", lambda: time.sleep(0.01))

    def outer():
        time.sleep(0.01)
        leaf()
        leaf()

    tracer.begin_op(0)
    tracer.wrap("t.outer", outer)()
    spans = tracer.arrays()
    # spans are numbered on entry: outer first, then its two children
    assert list(spans["parent"]) == [-1, 0, 0]
    assert spans["self"][0] == pytest.approx(
        spans["duration"][0] - spans["duration"][1] - spans["duration"][2])
    assert 0.009 < spans["self"][0] < spans["duration"][0] - 0.019
    assert list(spans["self"][1:]) == list(spans["duration"][1:])


def _traced_counts(ops, probe) -> dict:
    tracer = Tracer()
    patches = Patches()
    try:
        tracer.install(patches)
        records = run.run_round(ops, probe, tracer)
    finally:
        patches.restore()
    assert all(r.failure is None for r in records)
    metrics = round_metrics(tracer, tracer.arrays(), list(range(len(ops))))
    return {name: metrics[name] for name in COUNTS if name in metrics}


def test_counts_repeat_exactly_and_show_todays_waste(probe):
    profile = ls.constant_profile((2.0, 2.0))
    ops = [
        _scenario_op("pencil", _separable_pencil(), "pass", _settings(0)),
        Op("window", "pass",
           lambda: window_pipeline(potential_set(2), _window_chart((0.0, 0.0), 9), profile),
           lambda r: Outcome("pass", (r[0].max_residual,))),
    ]
    first = _traced_counts(ops, probe)
    assert _traced_counts(ops, probe) == first
    assert first["expressions.eval.calls"] == 4 * 17 * 17  # four non-constant cells
    assert first["grid_calculus.sample.nodes"] == 2 * 17 * 17
    # flat checks rebuild every combination three times and every
    # connection twice; a 2-component solve evaluates the kernel 28 times
    assert first["pencil_checker.combine_per_sample"] == 3.0
    assert first["pencil_checker.connection_per_member"] == 2.0
    assert first["zakharov_dressing.kernel_evals_per_solve"] == 28.0
    assert first["zakharov_dressing.solve_marchenko.calls"] == 81
    assert first["zakharov_dressing.cond_estimates"] == 1


# ---------------------------------------------------------------------------
# inputs and the benchmark contract


def test_inputs_depend_only_on_the_seed():
    def labels(rounds):
        return sorted(label for label, _, _ in rounds)

    a = cli_round(np.random.default_rng(3))
    assert a == cli_round(np.random.default_rng(3))
    b = cli_round(np.random.default_rng(4))
    assert a != b
    assert labels(a) == labels(b)  # every seed runs the same kinds and sizes


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_setup_is_timed_in_fresh_processes():
    seconds = run.setup_sample("dressing-window", 1)
    assert 0 < seconds < 60


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
