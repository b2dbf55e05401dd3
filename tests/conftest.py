import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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


def normalization_residual(S, xs):
    """max over sample base points of |S(0,x)| and |grad_x S(0,x)|."""
    xs = np.atleast_2d(xs)
    j = S.eval_jet(np.zeros((len(xs), S.m)), xs, 1)
    return float(np.max(np.abs(np.column_stack([j.value, j.grad[:, S.m:]])), initial=0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
