import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from symgf import jets

settings.register_profile(
    "dev",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dev")


def fd_grad(f, z, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    z = np.asarray(z, dtype=float)
    g = np.zeros_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        g[i] = (f(z + e) - f(z - e)) / (2 * h)
    return g


def fd_jac(f, z, h=1e-6):
    """Central-difference Jacobian of a vector function of a flat vector."""
    z = np.asarray(z, dtype=float)
    cols = []
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        cols.append((np.asarray(f(z + e)) - np.asarray(f(z - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def recorded_conditions(J):
    """The conditions ``_damped_newton`` records for the Jacobians ``J (B, q, q)`` of
    systems already at their solutions, and each row's norm bound
    ``sqrt(||J - I||_1 ||J - I||_inf)`` on ``||J - I||_2``."""
    from symgf.compose import NewtonOptions, _damped_newton
    B, q = J.shape[:2]
    sol = _damped_newton(lambda rows, Z: (np.zeros((len(Z), q)), J[rows], ()), np.zeros((B, q)),
                         NewtonOptions(), "test", lambda i: f"at row {i}")
    assert list(sol.iterations) == [0] * B
    D = np.abs(J - np.eye(q))
    return sol, np.sqrt(D.sum(axis=1).max(axis=1) * D.sum(axis=2).max(axis=1))


def normalization_residual(S, xs):
    """max over sample base points of |S(0,x)| and |grad_x S(0,x)|."""
    xs = np.atleast_2d(xs)
    j = S.eval_jet(np.zeros((len(xs), S.m)), xs, 1)
    return float(np.max(np.abs(np.column_stack([j.value, j.grad[:, S.m:]])), initial=0.0))


@pytest.fixture(autouse=True)
def unfreeze_heap():
    """``cli.main`` leaves its process's heap frozen; in this process every
    test that calls it would freeze the garbage of the tests before it."""
    yield
    gc.unfreeze()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def table_builds(monkeypatch):
    """The (exponent matrix, order) of each kernel table built during the test, in order."""
    built, build = [], jets._PartialTable

    def spy(E, order):
        built.append((E, order))
        return build(E, order)

    monkeypatch.setattr(jets, "_PartialTable", spy)
    return built
