import numpy as np
import pytest

from symgf import ConvergenceError, DegeneracyError
from symgf.maps import InverseMap, PolyMap

from conftest import fd_jac


def test_polymap_identity_and_linear():
    I = PolyMap.identity(3)
    x = np.array([0.2, -0.5, 1.0])
    np.testing.assert_array_equal(I.jet(x, 1).value, x)
    np.testing.assert_array_equal(I.jet(x, 1).jac, np.eye(3))

    A = np.array([[2.0, 1.0], [0.0, -1.0]])
    L = PolyMap.linear(A)
    y = np.array([0.4, 0.9])
    np.testing.assert_allclose(L.jet(y, 2).value, A @ y, rtol=1e-14)
    np.testing.assert_array_equal(L.jet(y, 2).jac, A)
    assert np.all(L.jet(y, 2).hess == 0.0)


def test_polymap_jacobian_matches_fd():
    phi = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    x = np.array([0.35, -0.6])
    mj = phi.jet(x, 1)
    jac = fd_jac(lambda z: phi.jet(z, 0).value, x)
    np.testing.assert_allclose(mj.jac, jac, atol=1e-8)


def test_inverse_map_round_trip():
    phi = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    inv = InverseMap(phi)
    y = np.array([0.21, -0.13])
    x = inv.jet(y, 0).value
    np.testing.assert_allclose(phi.jet(x, 0).value, y, atol=1e-12)


def test_inverse_map_jets_are_derivatives_of_the_inverse():
    phi = PolyMap([{(1, 0): 1.0, (0, 2): 0.25}, {(0, 1): 1.0, (2, 0): 0.1}], d_in=2)
    inv = InverseMap(phi)
    y = np.array([0.18, -0.22])
    mj = inv.jet(y, 3)

    jac = fd_jac(lambda w: inv.jet(w, 0).value, y)
    np.testing.assert_allclose(mj.jac, jac, atol=1e-7)

    hess = fd_jac(lambda w: inv.jet(w, 1).jac, y, h=1e-5)
    np.testing.assert_allclose(mj.hess, hess, atol=1e-6)

    third = fd_jac(lambda w: inv.jet(w, 2).hess, y, h=1e-4)
    np.testing.assert_allclose(mj.third, third, atol=1e-4)


def test_inverse_of_linear_is_exact():
    A = np.array([[1.0, 0.7], [-0.3, 2.0]])
    inv = InverseMap(PolyMap.linear(A))
    y = np.array([0.5, -0.4])
    mj = inv.jet(y, 2)
    np.testing.assert_allclose(mj.value, np.linalg.solve(A, y), rtol=1e-13)
    np.testing.assert_allclose(mj.jac, np.linalg.inv(A), rtol=1e-13)
    np.testing.assert_allclose(mj.hess, 0.0, atol=1e-12)


def test_inverse_map_nonconvergence_raises_convergence_error():
    # a CompositionError, which the CLI maps to exit 1 instead of a traceback
    phi = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    with pytest.raises(ConvergenceError):
        InverseMap(phi, max_iter=1).jet(np.array([0.21, -0.13]), 0)


def test_inverse_map_stack_matches_one_point_jets():
    # a stack is solved by one Newton with a line search per row: every row
    # equals the one-point jet
    phi = PolyMap([{(1, 0): 1.0, (0, 2): 0.25}, {(0, 1): 1.0, (2, 0): 0.1}], d_in=2)
    inv = InverseMap(phi)
    ys = np.array([[0.18, -0.22], [0.0, 0.0], [-0.3, 0.1], [0.05, 0.27]])
    for order in range(4):
        stacked = inv.jet(ys, order)
        for b, y in enumerate(ys):
            one = inv.jet(y, order)
            for f in ("value", "jac", "hess", "third")[:order + 1]:
                assert np.array_equal(getattr(stacked, f)[b], getattr(one, f)), (order, f, b)


def test_singular_inverse_raises_degeneracy_naming_the_point():
    # g = (x1^3, x2) has a singular Jacobian at 0, where Newton starts for
    # y = 0; the other rows are regular
    g = PolyMap([{(3, 0): 1.0}, {(0, 1): 1.0}], d_in=2)
    ys = np.array([[0.008, 0.2], [0.0, 0.0], [0.001, -0.1]])
    with pytest.raises(DegeneracyError, match=r"at y=\[0\. 0\.\]$"):
        InverseMap(g).jet(ys, 1)
    with pytest.raises(DegeneracyError, match=r"at y=\[0\. 0\.\]$"):
        InverseMap(g).jet(ys[1], 0)
    np.testing.assert_allclose(InverseMap(g).jet(ys[[0, 2]], 0).value,
                               [[0.2, 0.2], [0.1, -0.1]], rtol=1e-12)


def test_non_finite_jacobian_raises_degeneracy():
    # g' = 1 + 300 x^299 - 301 x^300 is inf - inf = nan at x = 20, where
    # Newton starts for y = 20: a degenerate point, not bad input
    g = PolyMap([{(1,): 1.0, (300,): 1.0, (301,): -1.0}], d_in=1)
    with pytest.raises(DegeneracyError, match=r"condition inf .* at y=\[20\.\]$"):
        InverseMap(g).jet(np.array([20.0]), 1)
