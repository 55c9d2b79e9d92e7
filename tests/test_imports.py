"""Every name a package module imports is used in that module, and every
name it exports is defined there.

A stdlib-only lint: a module's imported names must appear as a name in its
code or in its ``__all__`` (which is how ``__init__`` re-exports), and each
``__all__`` entry must be bound at module level.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flatpencil"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> list[str]:
    return [
        elt.value for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(_exported(tree))


def test_the_package_has_modules():
    assert {"grid_calculus.py", "catalog.py", "zakharov_dressing.py"} <= {
        path.name for path in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``function(parameter)`` for every parameter a ``def`` never reads.

    Names starting with ``_`` are exempt: they keep a dispatch signature
    whose callers pass the argument to every implementation.
    """
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            sub.id for stmt in node.body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unread += [
            f"{node.name}({param.arg})" for param in params
            if param is not None and not param.arg.startswith("_")
            and param.arg not in ("self", "cls") and param.arg not in read
        ]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = _unread_parameters(tree)
    assert not unread, f"{path.name}: parameters never read: {unread}"


def _raised_names(tree: ast.Module) -> set[str]:
    """Names of the classes a module raises, as ``raise X(...)`` or ``raise X``."""
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                raised.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return raised


def test_every_error_class_is_raised():
    """An error class nothing raises is a gate that is gone; the base class,
    caught by the command line, is exempt."""
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(_raised_names(ast.parse(path.read_text())) for path in MODULES))
    unraised = defined - raised - {"FlatpencilError"}
    assert not unraised, f"error classes never raised: {sorted(unraised)}"


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level: definitions, assignments and imports."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


EXPORTING = [path for path in MODULES if _exported(ast.parse(path.read_text()))]


def test_the_exporting_modules_are_linted():
    assert {"__init__.py", "catalog.py", "expressions.py"} <= {path.name for path in EXPORTING}


@pytest.mark.parametrize("path", EXPORTING, ids=lambda path: path.name)
def test_every_exported_name_is_defined(path):
    """A stale ``__all__`` entry passes the unused-import lint, since that
    lint counts ``__all__`` as a use; this one fails it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = [name for name in _exported(tree) if name not in _defined(tree)]
    assert not missing, f"{path.name}: exported but not defined: {missing}"


#: the names of the second stencil order and of the order setting
REMOVED_ORDER_NAMES = {"DEFAULT_ORDER", "_STENCILS", "_interior_order2"}


def _order_uses(tree: ast.Module) -> list[str]:
    """``function(order)`` for every parameter named ``order``, and ``line N:``
    for every ``order`` field, ``.order`` attribute or ``'order'`` key and
    every use or definition of a name in :data:`REMOVED_ORDER_NAMES`."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            name = getattr(node, "name", "lambda")
            uses += [f"{name}(order)" for p in params if p is not None and p.arg == "order"]
            if name in REMOVED_ORDER_NAMES:
                uses.append(f"line {node.lineno}: def {name}")
        elif isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "order":
            uses.append(f"line {node.lineno}: order field")
        elif isinstance(node, ast.Attribute) and node.attr in {"order", *REMOVED_ORDER_NAMES}:
            uses.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in REMOVED_ORDER_NAMES:
            uses.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in REMOVED_ORDER_NAMES:
            uses.append(f"import {node.name}")
        elif isinstance(node, ast.Constant) and node.value == "order":
            uses.append(f"line {node.lineno}: 'order'")
    return uses


def test_the_order_lint_reads_every_kind_of_use():
    tree = ast.parse("from .grid_calculus import DEFAULT_ORDER\n"
                     "class C:\n    order: int = 4\n"
                     "def f(order): return chart.order, gc._STENCILS, settings['order']\n"
                     "def _interior_order2(): pass\n")
    assert sorted(_order_uses(tree)) == [
        "f(order)", "import DEFAULT_ORDER", "line 3: order field", "line 4: 'order'",
        "line 4: ._STENCILS", "line 4: .order", "line 5: def _interior_order2"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_knows_a_stencil_order(path):
    """Order 4 is the one stencil order: no module has an ``order`` field,
    parameter or setting or reads ``.order``, and ``DEFAULT_ORDER``,
    ``_STENCILS`` and ``_interior_order2`` are gone."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = _order_uses(tree)
    assert not uses, f"{path.name}: knows a stencil order: {uses}"


def _plane_reads(tree: ast.Module) -> list[int]:
    """The lines that read an attribute ``planes``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "planes"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "geometry_core.py"],
                         ids=lambda path: path.name)
def test_curvature_planes_stay_in_geometry_core(path):
    """How curvature is stored is known only to :mod:`geometry_core`; the
    others go through ``pointwise_max``, ``deviation`` and ``contra``."""
    assert _plane_reads(ast.parse("curv.planes[0]\nr = x.contra\n")) == [1]
    reads = _plane_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not reads, f"{path.name}: reads .planes on lines {reads}"


def _callers(tree: ast.Module, name: str, module: str | None = None) -> list[str]:
    """The innermost enclosing ``def`` (or ``<module>``) of every call of a
    name or attribute ``name``; with ``module``, only of ``module.name``."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                value = getattr(func, "value", None)
                if getattr(func, "id", getattr(func, "attr", None)) == name and module in (
                        None, getattr(value, "id", getattr(value, "attr", None))):
                    callers.append(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(tree, "<module>")
    return callers


def _package_callers(name: str, module: str | None = None) -> dict[str, list[str]]:
    callers = {path.name: _callers(ast.parse(path.read_text()), name, module) for path in MODULES}
    return {module: c for module, c in callers.items() if c}


def test_combinations_are_built_only_by_the_check():
    """A pencil is its two metrics: the one place that forms a combination
    ``l1 g1 + l2 g2`` is the compatibility pass, which reduces and drops each
    one, so nothing builds or holds the combinations ahead of a check."""
    assert _package_callers("combine") == {"pencil_checker.py": ["_one_pass"]}


def test_no_condition_number_of_a_dense_matrix():
    """A dressing kernel's ``cond`` comes from its 2r x 2r Woodbury block, so
    the (nq)^2 SVD behind ``np.linalg.cond`` runs nowhere in the package."""
    assert _package_callers("cond") == {}


def test_one_nystrom_solve():
    """Every dressing kernel is solved through its separable terms: the
    package's one ``linalg.solve`` is the r x r core's, in ``_woodbury``."""
    assert _package_callers("solve", "linalg") == {"zakharov_dressing.py": ["_woodbury"]}


def _top_level_callers(name: str) -> dict[str, set[str]]:
    """The top-level ``def`` (or class) around every call of ``name`` in the
    package, nested functions counting as their outer one."""
    callers = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if any(isinstance(call, ast.Call)
                   and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
                   for call in ast.walk(node)):
                callers.setdefault(path.name, set()).add(getattr(node, "name", "<module>"))
    return callers


@pytest.mark.parametrize("name", ["_woodbury", "_panel_quadrature", "_cond_probe"])
def test_one_dressing_path(name):
    """``extract_beta`` is the one way to dress: nothing else in the package
    builds a rule, solves the r x r core or reads ``cond``."""
    assert _top_level_callers(name) == {"zakharov_dressing.py": {"extract_beta"}}


def _lapack_inverse_calls(tree: ast.Module) -> list[str]:
    """``line N: linalg.inv`` (or ``.det``) for every such call."""
    return [
        f"line {node.lineno}: linalg.{node.func.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("inv", "det")
        and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_pointwise_lapack_inverse(path):
    """``build_metric`` inverts by cofactors: ``np.linalg.inv`` and
    ``np.linalg.det`` make one LAPACK call per node of a grid stack."""
    calls = _lapack_inverse_calls(ast.parse(path.read_text()))
    assert not calls, f"{path.name}: pointwise LAPACK inverse: {calls}"


def test_diagonality_has_one_gate():
    """Every diagonal metric passes one gate with one tolerance:
    ``require_diagonal`` alone raises ``NotDiagonal``, and only its module
    binds a diagonality tolerance."""
    assert _package_callers("NotDiagonal") == {"geometry_core.py": ["require_diagonal"]}
    tolerances = {
        path.name for path in MODULES for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and "DIAG" in target.id and "TOL" in target.id
    }
    assert tolerances == {"geometry_core.py"}


def test_diagonal_metrics_have_one_builder():
    """The diagonal pair ``diag(eps w / h^2)`` of a frame, of the
    two-component normal form and of its ladder is assembled in one place."""
    builders = _package_callers("build_metric")
    assert builders["lame_system.py"] == ["diagonal_metric"]
    assert "two_component.py" not in builders


def test_each_kind_computation_has_one_caller():
    """A catalog entry that is a scenario runs through its command-line kind,
    so the computations behind the ``two-component`` and ``dubrovin`` kinds
    are called by their runners alone."""
    for name in ("lequa_residual", "system_residual", "build_pair"):
        assert _package_callers(name) == {"cli.py": ["_run_two_component"]}, name
    assert _package_callers("dubrovin_construct") == {"cli.py": ["_run_dubrovin"]}


def test_the_catalog_runs_no_kind_computation_itself():
    """An entry whose checks a kind reports is a scenario of that kind: the
    catalog checks a pencil only where no kind covers the entry, and neither
    measures flatness nor builds a frame or the ladder's metrics itself."""
    catalog = ast.parse((PACKAGE / "catalog.py").read_text())
    assert _callers(catalog, "check_compatible") == [
        "_run_potentials_quadratic", "_run_dressing_reduced"]
    for name in ("flatness_residual", "frame_from_metric", "g_family", "log_family_spec"):
        assert _callers(catalog, name) == [], name


def test_only_derived_tensors_skip_the_finiteness_scan():
    """``TensorField.owning`` keeps an array with no copy and no scan: the
    kernels that derive tensors from gated metrics call it, and so does
    ``sample`` for the fresh array its gate has just scanned.  Every other
    construction goes through the scanning constructor."""
    callers = _package_callers("owning")
    assert callers.pop("grid_calculus.py") == ["sample"]
    assert set(callers) == {"geometry_core.py", "pencil_checker.py"}


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name, attribute, parameter and definition in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_one_tensor_layout():
    """Every grid tensor is component-major, ``[tensor ..., grid ...]``.  Axes
    move only where a stacked-matrix routine takes grid-first views, in
    ``affinor``'s product and ``eigvals``, and in ``cumulative_integral`` for
    its own ``axis``; no layout switch, conversion helper or second view of a
    metric is left, and the geometry kernels multiply no stacked matrices."""
    callers = {module: set(c) for module, c in _package_callers("moveaxis", "np").items()}
    assert callers == {"pencil_checker.py": {"affinor"},
                       "grid_calculus.py": {"cumulative_integral"}}
    for path in MODULES:
        gone = _identifiers(ast.parse(path.read_text())) & {"grid_last", "_leading", "_trailing"}
        assert not gone, f"{path.name}: {sorted(gone)}"
    geometry = ast.parse((PACKAGE / "geometry_core.py").read_text())
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(geometry))  # @ and @=
    assert "matmul" not in _identifiers(geometry)
    [metric] = [node for node in geometry.body
                if isinstance(node, ast.ClassDef) and node.name == "MetricField"]
    assert "upper" not in _identifiers(metric)
