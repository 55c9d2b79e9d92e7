"""Outside-in interposition on flatpencil's public functions.

Nothing here edits the library.  :class:`Patches` swaps a function for a
replacement in *every* module namespace that binds it (``pencil_checker``
imports ``connection`` by name, ``cli`` imports ``compile_expression`` by
name, the package ``__init__`` re-exports most of them) and puts the
originals back on :meth:`Patches.restore`.

Two consumers use it:

* :class:`ResidualProbe`, installed in every run, records each value that
  ``grid_calculus.interior_max`` returns and the chart it reduced over.  The
  correctness gate checks those values one by one, because report maxima are
  taken with ``max()``, which drops a NaN that is not first.
* :class:`Tracer`, installed only for traced rounds, records one span per
  call of every public function of the nine layer modules (plus
  ``PotentialKernel.eval`` and the closures ``compile_expression`` returns),
  keeps the spans in compact in-memory arrays and computes self times
  afterwards: a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

PACKAGE = "flatpencil"

#: the package's modules, bottom-up; each is one layer
LAYERS = (
    "grid_calculus",
    "expressions",
    "geometry_core",
    "pencil_checker",
    "lame_system",
    "two_component",
    "zakharov_dressing",
    "catalog",
    "cli",
)


def _namespaces() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patches:
    """Replacements installed in every namespace that binds the original."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original: Callable, replacement: Callable):
        """Rebind ``original`` to ``replacement`` wherever a module binds it."""
        for namespace in _namespaces():
            for name, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, name, replacement)
                    self._undo.append((namespace, name, original))

    def replace_attribute(self, owner: object, name: str, replacement: Callable):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def public_functions(module) -> dict[str, Callable]:
    """Functions a layer module defines and exports (no leading underscore)."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _nodes(chart) -> int:
    return math.prod(chart.shape)


# ---------------------------------------------------------------------------
# the correctness probe


class ResidualProbe:
    """Every residual ``interior_max`` returns during one operation."""

    def __init__(self):
        self.values: list[float] = []
        self.charts: set = set()

    def install(self, patches: Patches):
        from flatpencil import grid_calculus

        original = grid_calculus.interior_max

        @functools.wraps(original)
        def probed(*args, **kwargs):
            out = original(*args, **kwargs)
            self.values.append(out)
            self.charts.add(_arg(args, kwargs, 1, "chart"))
            return out

        patches.replace(original, probed)

    def take(self) -> tuple[list[float], int]:
        """Residuals seen since the last call, and the nodes they cover."""
        values, nodes = self.values, sum(_nodes(c) for c in self.charts)
        self.values, self.charts = [], set()
        return values, nodes


# ---------------------------------------------------------------------------
# spans


def _shape(chart) -> str:
    return "x".join(str(n) for n in chart.shape)


def _marchenko_size(args, kwargs) -> tuple[int, int, bool]:
    """Components, unknowns and whether conditioning is estimated."""
    problem = _arg(args, kwargs, 0, "problem")
    kernel = args[1] if len(args) > 1 else kwargs.get("kernel")
    n = kernel.n if kernel is not None else problem.potentials.n
    cond = args[2] if len(args) > 2 else kwargs.get("estimate_cond", True)
    return n, n * problem.panels * problem.nodes_per_panel, bool(cond)


def marchenko_gflop(unknowns: int, rhs: int, cond: bool) -> float:
    """Computed flops of one collocation solve, in GFLOP.

    LU ``2N^3/3``, forward and back substitution ``2N^2`` per right-hand
    side, and, when conditioning is estimated, the singular values of the
    matrix by bidiagonalisation ``8N^3/3`` (Golub and Van Loan).
    """
    n = float(unknowns)
    flops = 2.0 * n**3 / 3.0 + 2.0 * n**2 * rhs
    if cond:
        flops += 8.0 * n**3 / 3.0
    return flops / 1e9


def _marchenko_tag(args, kwargs) -> str:
    _, unknowns, cond = _marchenko_size(args, kwargs)
    return f"N={unknowns}" + (" cond" if cond else "")


def _scenario_tag(args, kwargs) -> str:
    scenario = _arg(args, kwargs, 0, "scenario")
    points = (scenario.get("chart") or {}).get("points", ())
    return f"{scenario.get('kind')} " + "x".join(str(n) for n in points)


#: span name -> tag function; tags let the cross-check pick sizes out
_TAGS: dict[str, Callable] = {
    "geometry_core.build_metric": lambda a, k: _shape(_arg(a, k, 1, "chart")),
    "geometry_core.connection": lambda a, k: _shape(_arg(a, k, 0, "metric").chart),
    "geometry_core.curvature": lambda a, k: _shape(_arg(a, k, 0, "metric").chart),
    "geometry_core.flatness_residual": lambda a, k: _shape(
        _arg(a, k, 0, "metric").chart
    ),
    "pencil_checker.check_compatible": lambda a, k: "{} {} {}lam".format(
        a[1] if len(a) > 1 else k.get("mode", "flat"),
        _shape(_arg(a, k, 0, "pencil").chart),
        len(_arg(a, k, 0, "pencil").lambda_samples),
    ),
    "zakharov_dressing.solve_marchenko": _marchenko_tag,
    "zakharov_dressing.extract_beta": lambda a, k: "{}c {}".format(
        _arg(a, k, 0, "potentials").n, _shape(_arg(a, k, 1, "chart"))
    ),
    "catalog.run_entry": lambda a, k: str(_arg(a, k, 0, "name")),
    "cli.run_scenario": _scenario_tag,
}


class Tracer:
    """Spans and computed work counts, kept in memory until the run ends.

    Each span records its name, start, end, parent span and operation id,
    plus a size tag for the few functions the baseline cross-check needs.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.tags: list[str] = [""]
        self.tag_index: dict[str, int] = {"": 0}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.work: dict[int, Counter] = {}
        self._pencil_depth = 0

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.work[op_id] = Counter()
        self._stack.clear()
        self._pencil_depth = 0

    def _count(self, key: str, amount: float = 1):
        self.work[self.op_id][key] += amount

    # -- wrapping ---------------------------------------------------------

    def _index(self, table: dict, items: list, key: str) -> int:
        idx = table.get(key)
        if idx is None:
            idx = table[key] = len(items)
            items.append(key)
        return idx

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""
        k = self._index(self.name_index, self.names, name)
        start, end, names, parent, ops, tags = (
            self.start, self.end, self.name, self.parent, self.op, self.tag,
        )
        stack = self._stack
        clock = time.perf_counter
        tag_fn = _TAGS.get(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(start)
            names.append(k)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            tags.append(
                0 if tag_fn is None
                else tracer._index(tracer.tag_index, tracer.tags, tag_fn(args, kwargs))
            )
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def install(self, patches: Patches):
        """Wrap every public function of every layer module, everywhere."""
        modules = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for fname, fn in public_functions(module).items():
                patches.replace(fn, self.wrap(f"{layer}.{fname}", fn))
        kernel_cls = sys.modules[f"{PACKAGE}.zakharov_dressing"].PotentialKernel
        patches.replace_attribute(
            kernel_cls,
            "eval",
            self.wrap("zakharov_dressing.PotentialKernel.eval", kernel_cls.eval),
        )

    # -- hooks: computed work and waste counters --------------------------

    def _after_expressions_compile_expression(self, args, kwargs, fn):
        return self.wrap("expressions.eval", fn)

    def _before_grid_calculus_sample(self, args, kwargs):
        self._count("grid_calculus.sample.nodes", _nodes(_arg(args, kwargs, 1, "chart")))

    def _before_grid_calculus_differentiate_array(self, args, kwargs):
        # float64 in, float64 out, same shape
        values = _arg(args, kwargs, 0, "values")
        self._count("grid_calculus.differentiate_array.mbytes", 16 * np.size(values) / 1e6)

    def _before_zakharov_dressing_solve_marchenko(self, args, kwargs):
        n, unknowns, cond = _marchenko_size(args, kwargs)
        self._count("zakharov_dressing.solve_marchenko.gflop",
                    marchenko_gflop(unknowns, n, cond))
        self._count("zakharov_dressing.cond_estimates", int(cond))

    def _after_zakharov_dressing_extract_beta(self, args, kwargs, field):
        work = self.work[self.op_id]
        key = "zakharov_dressing.max_collocation_residual"
        work[key] = max(work[key], field.max_residual)
        return field

    def _before_pencil_checker_check_compatible(self, args, kwargs):
        if self._pencil_depth == 0:
            # members checked: both metrics and one combination per sample
            samples = len(_arg(args, kwargs, 0, "pencil").lambda_samples)
            self._count("pencil_checker.lambda_samples", samples)
            self._count("pencil_checker.members", 2 + samples)
        self._pencil_depth += 1

    def _after_pencil_checker_check_compatible(self, args, kwargs, report):
        self._pencil_depth -= 1
        return report

    def _before_geometry_core_connection(self, args, kwargs):
        if self._pencil_depth > 0:
            self._count("pencil_checker.member_connections")

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=len(duration))
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "tag": np.array(self.tag, dtype=np.int64),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - covered,
        }

    def save(self, path):
        spans = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            tags=np.array(self.tags),
            **{key: spans[key] for key in ("name", "parent", "op", "tag", "start", "end")},
        )
