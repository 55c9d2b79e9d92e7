import numpy as np
import pytest

from flatpencil.grid_calculus import GridChart
from flatpencil import geometry_core as geo


# Lambda samples whose combinations stay nondegenerate on every chart the
# tests use (all combination coefficients positive on positive metrics).
SAFE_LAMS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (3.0, 1.0))


def count_calls(monkeypatch, calls, names, *modules):
    """Count into ``calls`` every call of the functions ``names`` that goes
    through the module-level bindings of ``modules``."""
    for module in modules:
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)


def record_results(monkeypatch, made, names, *modules):
    """Append to ``made`` the result of every call of the functions ``names``
    that goes through the module-level bindings of ``modules``."""
    for module in modules:
        for name in names:
            original = getattr(module, name)

            def recorded(*args, _original=original, **kwargs):
                made.append(_original(*args, **kwargs))
                return made[-1]

            monkeypatch.setattr(module, name, recorded)


def k_at(kernel, k_nodes, rule, sp) -> np.ndarray:
    """The reference Nyström interpolation: ``K_{ij}(0, sp)`` from
    ``k_nodes[i, l, m] = K_il(0, q_m)`` on the rule ``(q, w)``."""
    n, (q, w) = kernel.n, rule
    pairs = [(i, j) for i in range(n) for j in range(n)]
    f_s = np.reshape([kernel.eval(i, j, 0.0, sp) for i, j in pairs], (n, n))
    f_q = np.reshape([kernel.eval(i, j, q, sp) for i, j in pairs], (n, n, -1))
    return f_s + np.einsum("ilm,m,ljm->ij", k_nodes, w, f_q)


def planes_of(full):
    """The planes ``full[:, :, k, l]``, ``k < l``, of an n^4 curvature tensor,
    once its ``k > l`` slices are found to be their exact negations and its
    ``k = l`` slices exactly 0: the planes then lose nothing."""
    n = full.shape[0]
    k, l = np.triu_indices(n, 1)
    assert np.all(full[:, :, range(n), range(n)] == 0.0)
    np.testing.assert_array_equal(full[:, :, l, k], -full[:, :, k, l])
    return full[:, :, k, l]


def full_curvature(planes):
    """The n^4 tensor ``R^i_{jkl}`` the planes ``planes[i, j, p]`` stand for."""
    n = planes.shape[0]
    k, l = np.triu_indices(n, 1)
    full = np.zeros((n,) * 4 + planes.shape[3:])
    full[:, :, k, l] = planes
    full[:, :, l, k] = -planes
    return full


@pytest.fixture(scope="session")
def polar_metric():
    """Flat plane in polar coordinates on r in [1,2], theta in [0.5,1.5]."""
    chart = GridChart((1.0, 0.5), (2.0, 1.5), (101, 101))
    return geo.build_metric(lambda u: [[1.0, 0.0], [0.0, 1.0 / u[0] ** 2]], chart)


@pytest.fixture(scope="session")
def euclidean_metric():
    chart = GridChart((0.5, 0.5), (1.5, 1.5), (33, 33))
    return geo.build_metric(lambda u: np.eye(2), chart)
