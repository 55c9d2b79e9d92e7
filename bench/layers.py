"""Per-layer metrics of a traced round, and the cross-check against the
baseline table in ROADMAP.md ("Open items")."""

from __future__ import annotations

from collections import Counter

import numpy as np

from tracing import LAYERS, Tracer

#: (name, unit, better); every traced run reports all of them
PER_LAYER = (
    ("expressions.eval.calls", "count", "lower"),
    ("expressions.eval.self_ms", "ms", "lower"),
    ("grid_calculus.sample.nodes", "count", "lower"),
    ("grid_calculus.sample.self_ms", "ms", "lower"),
    ("geometry_core.build_metric.calls", "count", "lower"),
    ("geometry_core.build_metric.self_ms", "ms", "lower"),
    ("geometry_core.connection.calls", "count", "lower"),
    ("geometry_core.connection.self_ms", "ms", "lower"),
    ("geometry_core.curvature.calls", "count", "lower"),
    ("geometry_core.curvature.self_ms", "ms", "lower"),
    ("pencil_checker.combine_per_sample", "ratio", "lower"),
    ("pencil_checker.connection_per_member", "ratio", "lower"),
    ("pencil_checker.check_compatible.self_ms", "ms", "lower"),
    ("grid_calculus.differentiate_array.calls", "count", "lower"),
    ("grid_calculus.differentiate_array.self_ms", "ms", "lower"),
    ("grid_calculus.differentiate_array.mbytes", "MB-computed", "lower"),
    ("grid_calculus.interior_max.self_ms", "ms", "lower"),
    ("zakharov_dressing.solve_marchenko.calls", "count", "lower"),
    ("zakharov_dressing.solve_marchenko.self_ms", "ms", "lower"),
    ("zakharov_dressing.solve_marchenko.gflop", "GFLOP-computed", "lower"),
    ("zakharov_dressing.PotentialKernel.eval.calls", "count", "lower"),
    ("zakharov_dressing.PotentialKernel.eval.self_ms", "ms", "lower"),
    ("zakharov_dressing.kernel_evals_per_solve", "ratio", "lower"),
    ("zakharov_dressing.cond_estimates", "count", "lower"),
    ("zakharov_dressing.extract_beta.self_ms", "ms", "lower"),
    ("zakharov_dressing.max_collocation_residual", "residual", "lower"),
    ("two_component.integrate_b.self_ms", "ms", "lower"),
    ("cli.run_scenario.self_ms", "ms", "lower"),
    ("cli.dumps.self_ms", "ms", "lower"),
    ("catalog.run_entry.self_ms", "ms", "lower"),
    *((f"{layer}.self_ms", "ms", "lower") for layer in LAYERS),
    ("trace.ops", "count", "higher"),
    ("trace.untraced_op_ms.p50", "ms", "lower"),
    ("trace.traced_op_ms.p50", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)

#: metrics that are counts of the program's work: they repeat exactly
#: between two traced runs of one seed
COUNTS = tuple(
    name for name, unit, _ in PER_LAYER
    if unit in ("count", "ratio", "MB-computed", "GFLOP-computed", "residual")
)

_WORK_KEYS = (
    "grid_calculus.sample.nodes",
    "grid_calculus.differentiate_array.mbytes",
    "zakharov_dressing.solve_marchenko.gflop",
    "zakharov_dressing.cond_estimates",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(tracer: Tracer, spans: dict, ops: list[int]) -> dict[str, float]:
    """Every per-layer metric except the ``trace.*`` ones, for one round."""
    in_round = np.isin(spans["op"], ops)
    names = spans["name"][in_round]
    calls = Counter()
    self_ms = Counter()
    for k, (n, s) in enumerate(zip(
        np.bincount(names, minlength=len(tracer.names)),
        np.bincount(names, weights=spans["self"][in_round], minlength=len(tracer.names)),
    )):
        calls[tracer.names[k]] = int(n)
        self_ms[tracer.names[k]] = 1e3 * float(s)
    work = Counter()
    for op in ops:
        work.update(tracer.work.get(op, Counter()))
    residual = max(
        (tracer.work[op]["zakharov_dressing.max_collocation_residual"] for op in ops
         if op in tracer.work), default=0.0,
    )

    # combine calls per λ sample, over operations that checked a pencil
    checked = [op for op in ops if tracer.work.get(op, {}).get("pencil_checker.lambda_samples")]
    combine = tracer.name_index.get("pencil_checker.combine", -1)
    combines = int(np.sum((spans["name"] == combine) & np.isin(spans["op"], checked)))

    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name in _WORK_KEYS:
            out[name] = float(work[name])
        elif name.endswith(".calls"):
            out[name] = float(calls[name[: -len(".calls")]])
        elif name.endswith(".self_ms") and name[: -len(".self_ms")] in LAYERS:
            layer = name[: -len(".self_ms")] + "."
            out[name] = sum(v for k, v in self_ms.items() if k.startswith(layer))
        elif name.endswith(".self_ms"):
            out[name] = self_ms[name[: -len(".self_ms")]]
    out["pencil_checker.combine_per_sample"] = _ratio(
        combines, work["pencil_checker.lambda_samples"])
    out["pencil_checker.connection_per_member"] = _ratio(
        work["pencil_checker.member_connections"], work["pencil_checker.members"])
    out["zakharov_dressing.kernel_evals_per_solve"] = _ratio(
        calls["zakharov_dressing.PotentialKernel.eval"],
        calls["zakharov_dressing.solve_marchenko"])
    out["zakharov_dressing.max_collocation_residual"] = float(residual)
    return out


# ---------------------------------------------------------------------------
# baseline cross-check

#: (ROADMAP row, span name, size tag, baseline ms); durations include children
BASELINE = (
    ("extract_beta, 3 components, 9^3", "zakharov_dressing.extract_beta", "3c 9x9x9", 4530.0),
    ("solve_marchenko, 288 unknowns, no cond", "zakharov_dressing.solve_marchenko",
     "N=288", 4.5),
    ("solve_marchenko, 288 unknowns, with cond", "zakharov_dressing.solve_marchenko",
     "N=288 cond", 12.5),
    ("check_compatible flat, s4 pair, 5 samples, 97x65", "pencil_checker.check_compatible",
     "flat 97x65 5lam", 395.0),
    ("catalog s4-log-pencil end to end", "catalog.run_entry", "s4-log-pencil", 1340.0),
    ("build_metric 97x65", "geometry_core.build_metric", "97x65", 7.4),
    ("connection 97x65", "geometry_core.connection", "97x65", 12.0),
    ("curvature incl. connection 97x65", "geometry_core.curvature", "97x65", 35.4),
    ("cli.run_scenario check-pencil 129^2", "cli.run_scenario", "check-pencil 129x129", 2340.0),
    ("flatness_residual 3-D diagonal 33^3", "geometry_core.flatness_residual", "33x33x33", 650.0),
)


def cross_check(tracer: Tracer, spans: dict, ops: list[int]) -> list[dict]:
    """Median traced duration of each baseline row this workload runs."""
    in_round = np.isin(spans["op"], ops)
    rows = []
    for label, name, tag, baseline in BASELINE:
        k = tracer.name_index.get(name, -1)
        t = tracer.tag_index.get(tag, -1)
        sel = in_round & (spans["name"] == k) & (spans["tag"] == t)
        if not np.any(sel):
            continue
        ms = 1e3 * float(np.median(spans["duration"][sel]))
        ratio = ms / baseline
        rows.append({
            "row": label, "baseline_ms": baseline, "traced_ms": round(ms, 3),
            "samples": int(np.sum(sel)), "ratio": round(ratio, 3),
            "disagrees": not 0.5 <= ratio <= 2.0,
        })
    return rows
