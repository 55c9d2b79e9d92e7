"""Acceptance gate: every shipped guarantee, one pass/fail line per criterion.

Each test prints ``CRITERION nn PASS|FAIL <description>`` on the real stdout
(bypassing capture) followed by the individual measurements, then asserts.
Bounds here are the published ones; loosening them is not an option.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flatpencil
from conftest import k_at
from flatpencil.grid_calculus import GridChart
from flatpencil import catalog
from flatpencil import geometry_core as geo
from flatpencil import lame_system as ls
from flatpencil import pencil_checker as pc
from flatpencil import two_component as tc
from flatpencil import zakharov_dressing as zd

LAMS_S4 = catalog.LAMS_S4
LAMS_UNIT = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (3.0, -1.0), (1.0, 2.0))

_CAPFD = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    """Let the per-criterion summary lines through pytest's capture."""
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _emit(num, desc, rows):
    """rows: (label, value, op, bound) with op in {'<=', '>=', 'agree'}."""
    failures = []
    lines = []
    for label, value, op, bound in rows:
        if op == "agree":
            ok = bool(value)
            lines.append(f"    {label}: {'agree' if ok else 'DISAGREE'}")
        elif op == "<=":
            ok = value <= bound
            lines.append(f"    {label}: {value:.3e} <= {bound:g}")
        else:
            ok = value >= bound
            lines.append(f"    {label}: {value:.3e} >= {bound:g}")
        if not ok:
            failures.append(label)
    verdict = "PASS" if not failures else "FAIL"
    text = "\n".join([f"CRITERION {num:02d} {verdict}  {desc}", *lines])
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(text, flush=True)
    else:
        print(text, flush=True)
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_01_metric_calculus():
    euclid = geo.flatness_residual(catalog.metric_field("euclidean"))
    polar = geo.flatness_residual(catalog.metric_field("polar"))
    sphere = geo.constant_curvature_residual(catalog.metric_field("sphere"),
                                             1.0)
    res = {}
    for pts in (101, 201):
        chart = GridChart((1.0, 0.5), (2.0, 1.5), (pts, pts))
        m = geo.build_metric(lambda u: [[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]], chart)
        res[pts] = geo.flatness_residual(m)
    order = float(np.log2(res[101] / res[201]))
    _emit(1, "gridded calculus reproduces closed-form geometry", [
        ("euclidean_flatness", euclid, "<=", 1e-12),
        ("polar_flatness_h_1e-2", polar, "<=", 1e-6),
        ("sphere_curvature_k1", sphere, "<=", 1e-5),
        ("fd_order_minus_4", abs(order - 4.0), "<=", 0.3),
    ])


def test_criterion_02_log_family_pencil():
    chart = catalog.s4_chart()
    spec = tc.log_family_spec(chart, k=0.25)
    g = {n: tc.g_family(spec, n) for n in range(4)}
    rows = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pen = pc.PencilSpec(g[j], g[i], lambda_samples=LAMS_S4)
        rep = pc.check_compatible(pen, "flat")
        rows.append((f"pair_G{j}_G{i}_flat", rep.max_residual, "<=", 1e-5))
    rows.append(("G3_not_flat", geo.flatness_residual(g[3]), ">=", 1e-2))
    rows.append(("G3_constant_curvature_quarter",
                 geo.constant_curvature_residual(g[3], 0.25), "<=", 1e-5))
    _emit(2, "closed-form log family yields the quadratic flat pencil", rows)


def test_criterion_03_two_component_characterization():
    chart = catalog.s4_chart()
    spec = tc.log_family_spec(chart)
    rows = [("log_potential_lequa", tc.lequa_residual(spec), "<=", 1e-10)]
    out = tc.integrate_b(spec,
                         b1_edge=lambda u1: np.sqrt(u1 - 0.5),
                         b2_edge=lambda u2: np.sqrt(2.0 - u2))
    U1, U2 = chart.meshgrid()
    worst = max(np.max(np.abs(out.b1 - np.sqrt(U1 - U2))),
                np.max(np.abs(out.b2 - np.sqrt(U1 - U2))))
    rows.append(("goursat_reproduces_sqrt", worst, "<=", 1e-6))
    for name in catalog.TWO_COMPONENT_POSITIVE + catalog.TWO_COMPONENT_NEGATIVE:
        for row in catalog.run_entry(name):
            rows.append((f"{name}/{row.name}", row.residual,
                         "<=" if row.comparison == "le" else ">=", row.bound))
    _emit(3, "solvability of the coupled system characterizes flat pairs",
          rows)


def test_criterion_04_lame_equivalence():
    rows = []
    prof = ls.identity_profile(2)
    for name in catalog.metric_names():
        m = catalog.metric_field(name)
        flat_ok = geo.flatness_residual(m) <= 1e-6
        fr = ls.frame_from_metric(m)
        rep = ls.lame_residuals(fr)
        worst = max([*rep.diagonal.values(),
                     *rep.off_diagonal.values()] or [0.0])
        lame_ok = worst <= 1e-5  # coupled bound: 10x the metric tolerance
        rows.append((f"{name}_lame_matches_flatness",
                     flat_ok == lame_ok, "agree", None))
        red_ok = ls.reduction_residual(fr, prof).residual <= 1e-5
        tilde_ok = geo.flatness_residual(
            ls.frame_metric(ls.tilde_frame(fr, prof))) <= 1e-6
        rows.append((f"{name}_reduction_matches_scaled_flatness",
                     red_ok == tilde_ok, "agree", None))
    _emit(4, "frame residuals decide flatness of the metric and its scaling",
          rows)


def test_criterion_05_torsion_test():
    rows = []
    chart = catalog.s4_chart()
    spec = tc.log_family_spec(chart)
    g = {n: tc.g_family(spec, n) for n in range(3)}
    pencils = {f"s4_G{j}_G{i}": pc.PencilSpec(g[j], g[i], lambda_samples=LAMS_S4)
               for i, j in ((0, 1), (0, 2), (1, 2))}
    for name in catalog.TWO_COMPONENT_POSITIVE:
        cspec, lams, _ = catalog.two_component_case(name)
        pencils[name] = tc.build_pair(cspec, lambda_samples=lams)
    eta_chart = GridChart((1.0, 1.0), (2.0, 2.0), (65, 65))
    eta = geo.build_metric(lambda u: np.eye(2), eta_chart)
    fA = lambda u: np.array([0.5 * u[0] ** 2, 0.5 * u[1] ** 2])
    dub = pc.dubrovin_construct(eta, fA, c=0.0, lambda_samples=LAMS_UNIT)
    pencils["dubrovin_pair"] = pc.PencilSpec(dub.g1, eta,
                                             lambda_samples=LAMS_UNIT)
    # the potentials route: one scalar potential per coordinate, c = 0
    pot = pc.partner_metric(eta, lambda u: [0.5 * u[0] ** 2, 0.5 * u[1] ** 2])[0]
    pencils["potentials_pair"] = pc.PencilSpec(pot, eta,
                                               lambda_samples=LAMS_UNIT)
    for name, pen in pencils.items():
        rows.append((f"{name}_torsion", pc.nijenhuis(pc.affinor(pen)),
                     "<=", 1e-5))
    counter_chart = GridChart((0.5, 0.5), (1.5, 1.5), (65, 65))
    g1c = geo.build_metric(lambda u: [[1.0 + u[1] ** 2, 0.0], [0.0, 1.0]],
                           counter_chart)
    idc = geo.build_metric(lambda u: np.eye(2), counter_chart)
    counter = pc.PencilSpec(g1c, idc,
                            lambda_samples=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
                                            (1.0, 2.0), (3.0, 1.0)))
    rows.append(("counter_example_torsion",
                 pc.nijenhuis(pc.affinor(counter)), ">=", 1e-2))
    _emit(5, "vanishing torsion accompanies every compatible catalog pencil",
          rows)


def test_criterion_06_dressing_solver():
    u2 = np.array([[0.1, -0.2]])
    zero = zd.extract_beta(zd.gaussian_set(2, amplitude=0.0), u2)
    rows = [("zero_kernel_exact", float(np.max(np.abs(zero.k_nodes))),
             "<=", 0.0)]

    # the envelope truncates at L = 10 from u = 0
    kernel, exact = catalog.rank1_case()
    sol = zd.extract_beta(kernel, np.zeros((1, 1)), panels=16)
    r1 = max(abs(k_at(kernel, sol.k_nodes[..., 0], sol.rule, sp)[0, 0] - exact(0.0, sp))
             for sp in (0.2, 0.9, 1.7, 2.6))
    rows.append(("rank_one_resolvent", r1, "<=", 1e-9))

    pots = zd.gaussian_set(2, amplitude=0.005)
    soln = zd.extract_beta(pots, u2, panels=24)
    F, s = zd.PotentialKernel(pots, u2[0]), 0.0
    x, w = np.polynomial.legendre.leggauss(120)
    edges = np.linspace(s, s + 12.0, 13)
    qs = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b)
                         for a, b in zip(edges[:-1], edges[1:])])
    ws = np.concatenate([0.5 * (b - a) * w
                         for a, b in zip(edges[:-1], edges[1:])])
    neumann = 0.0
    for sp in (0.3, 1.0, 2.2):
        K = k_at(F, soln.k_nodes[..., 0], soln.rule, sp)
        for i in range(2):
            for j in range(2):
                series = float(F.eval(i, j, s, sp)) + sum(
                    np.sum(ws * F.eval(i, l, np.full_like(qs, s), qs)
                           * F.eval(l, j, qs, np.full_like(qs, sp)))
                    for l in range(2))
                neumann = max(neumann, abs(K[i, j] - series))
    rows.append(("two_term_series", neumann, "<=", 1e-8))

    # 2-node panels, which converge slowly enough to show the h^4 rate
    pots = catalog.dressing_gaussian_set()
    u3 = np.array([[0.1, -0.2, 0.25]])
    kernel, length = zd.PotentialKernel(pots, u3[0]), pots.envelope + 0.25 + 1.0
    probs = {}
    for panels in (16, 32, 64):
        nodes, weights = zd._panel_quadrature(0.0, length, panels, 2)
        tables = zd._tabulate(kernel, 0.0, length, nodes, weights)
        idx = np.zeros((1, 3), dtype=int)
        y = zd._woodbury(tables, idx, u3, length)[0]
        u_y = zd._collocation_factors(tables, idx, weights)[0][0] @ y[0]
        k_nodes = u_y.reshape(3, len(nodes), 3).transpose(2, 0, 1)
        probs[panels] = np.stack([k_at(kernel, k_nodes, (nodes, weights), sp)
                                  for sp in (0.4, 1.1, 2.3)])
    d1 = np.max(np.abs(probs[16] - probs[32]))
    d2 = np.max(np.abs(probs[32] - probs[64]))
    ratio = d1 / d2
    rows.append(("doubling_ratio_low", ratio, ">=", 16.0 * 0.7))
    rows.append(("doubling_ratio_high", ratio, "<=", 16.0 * 1.3))
    _emit(6, "collocation solver: closed forms and quadrature convergence",
          rows)


# 11 points per axis leave 3 interior nodes per axis after the order-4 margin
CRITERION_07_CHART = GridChart((-0.25, -0.25, -0.25), (0.25, 0.25, 0.25), (11, 11, 11))


def test_criterion_07_three_component_window():
    pots = catalog.dressing_gaussian_set()
    chart = CRITERION_07_CHART
    profile = ls.constant_profile((2.0, 2.0, 2.0))
    field = zd.extract_beta(pots, chart, profile=profile)
    frame = field.frame()
    lam = ls.lame_residuals(frame)
    red = ls.reduction_residual(frame, profile)
    pen = ls.metric_pair_from_frame(frame, profile, tol=1e-4)
    flat = pc.check_compatible(pen, "flat")
    _emit(7, "dressed three-component window yields a compatible flat pair", [
        ("quadrature_error", field.quadrature_error, "<=", zd.QUADRATURE_TOL),
        ("rotation_system", max(lam.off_diagonal.values()), "<=", 1e-5),
        ("diagonal_system", max(lam.diagonal.values()), "<=", 1e-5),
        ("reduction_system", red.residual, "<=", 1e-5),
        ("pair_flatness", flat.max_residual, "<=", 1e-4),
    ])


def test_dressed_windows_reduce_over_more_than_one_node():
    """A defect off the centre node of a dressed window must reach its rows."""
    _, _, field = catalog.reduced_pipeline()
    for chart in (CRITERION_07_CHART, field.chart):
        assert all(s.stop - s.start > 1 for s in chart.interior())


def test_criterion_08_reduction_pdes():
    probes = np.array([[0.2, 0.9], [-0.4, 0.3], [0.1, 1.4], [0.5, 2.0]])
    ident = lambda t: np.asarray(t, dtype=float)
    c4 = lambda t: np.full_like(np.asarray(t, dtype=float), 4.0)
    c1 = lambda t: np.full_like(np.asarray(t, dtype=float), 1.0)
    sep = zd.separable_sum_pair(0.3, 0.2, 1.0)
    log = tc.log_potential(0.7)  # c ln(x - y), read at the mirrored probes (x > y)
    prod = tc.product_potential()
    # a diagonal potential's equation is the pair equation with f^j = f^i
    _emit(8, "kernel families solve or violate the reduction equations", [
        ("offdiag_separable_constants",
         zd.pair_pde_residual(sep, c4, c1, probes), "<=", 1e-10),
        ("offdiag_log_identity",
         zd.pair_pde_residual(log, ident, ident, probes[:, ::-1]), "<=", 1e-10),
        ("diag_log_identity",
         zd.pair_pde_residual(log, ident, ident, probes[:, ::-1]), "<=", 1e-10),
        ("offdiag_product_violates",
         zd.pair_pde_residual(prod, c4, c1, probes), ">=", 1e-2),
        ("diag_product_violates",
         zd.pair_pde_residual(prod, ident, ident, probes), ">=", 1e-2),
    ])


def test_criterion_09_quadratic_construction():
    chart = GridChart((1.0, 1.0), (2.0, 2.0), (65, 65))
    eta = geo.build_metric(lambda u: np.eye(2), chart)
    f_good = lambda u: np.array([0.5 * u[0] ** 2, 0.5 * u[1] ** 2])
    rows = []
    for label, c in (("commuting_c0", 0.0), ("commuting_c1", 1.0)):
        rep = pc.dubrovin_construct(eta, f_good, c=c,
                                    lambda_samples=LAMS_UNIT)
        worst = max(rep.quadratic_residual, rep.bracket_residual,
                    rep.delta_consistency, rep.lowering_defect)
        rows.append((f"{label}_identities", worst, "<=", 1e-6))
        rows.append((f"{label}_pair_compatible",
                     rep.compatibility.max_residual, "<=", 1e-6))
    chart_bad = GridChart((1.5, 1.5), (2.5, 2.5), (65, 65))
    eta_bad = geo.build_metric(lambda u: np.eye(2), chart_bad)
    f_bad = lambda u: np.array([0.5 * u[0] ** 2, u[0] * u[1]])
    bad = pc.dubrovin_construct(eta_bad, f_bad, c=0.0,
                                lambda_samples=LAMS_UNIT)
    rows.append(("noncommuting_quadratic_defect", bad.quadratic_residual,
                 ">=", 1e-2))
    verdict = all(
        catalog.CheckRow(name, residual, 1e-6).passed
        for name, residual in (("quadratic", bad.quadratic_residual),
                               ("bracket", bad.bracket_residual),
                               ("compatibility", bad.compatibility.max_residual))
    )
    rows.append(("noncommuting_verdict_fail", not verdict, "agree", None))
    _emit(9, "quadratic pencil construction certifies and rejects potentials",
          rows)


def test_criterion_10_deterministic_reports(tmp_path):
    scenarios = {
        "dress.json": {
            "kind": "dress",
            "potentials": {"components": 2, "amplitude": 0.4, "include_diagonal": True},
            "point": [0.1, -0.1],
            "profile": {"constant": [2.0, 2.0]},
        },
        "catalog.json": {"kind": "catalog", "name": "tc-log-unit"},
    }
    # the child process imports the package this one imported, installed or not
    env = dict(os.environ)
    src = str(Path(flatpencil.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    rows = []
    for fname, scenario in scenarios.items():
        spath = tmp_path / fname
        spath.write_text(json.dumps(scenario))
        outs = []
        for k in (1, 2):
            opath = tmp_path / f"{fname}.{k}.out"
            r = subprocess.run(
                [sys.executable, "-m", "flatpencil", "run", str(spath),
                 "--seed", "7", "--out", str(opath)],
                capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            outs.append(opath)
        rows.append((f"{fname}_byte_identical",
                     filecmp.cmp(outs[0], outs[1], shallow=False),
                     "agree", None))
    _emit(10, "repeated scenario runs produce byte-identical reports", rows)
