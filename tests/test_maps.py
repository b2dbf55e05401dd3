import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symgf import ConvergenceError, DegeneracyError, Jet, base_map, cotangent_lift
from symgf.maps import InverseMap, PolyMap

from symgf.compose import CERTIFIED, COND_LIMIT

from conftest import fd_jac, recorded_conditions


def test_polymap_identity_and_linear():
    I = PolyMap.linear(np.eye(3))
    x = np.array([0.2, -0.5, 1.0])
    np.testing.assert_array_equal(I.jet(x, 1).value, x)
    np.testing.assert_array_equal(I.jet(x, 1).grad, np.eye(3))

    A = np.array([[2.0, 1.0], [0.0, -1.0]])
    L = PolyMap.linear(A)
    y = np.array([0.4, 0.9])
    np.testing.assert_allclose(L.jet(y, 2).value, A @ y, rtol=1e-14)
    np.testing.assert_array_equal(L.jet(y, 2).grad, A)
    assert np.all(L.jet(y, 2).hess == 0.0)


WIDE = PolyMap([{(1, 0, 0): 1.0, (0, 2, 1): 0.3}, {(0, 1, 0): 1.0}], d_in=3)
SQUARE = PolyMap([{(1, 0): 1.0, (0, 2): 0.25}, {(0, 1): 1.0, (2, 0): 0.1}], d_in=2)


@pytest.mark.parametrize("phi", [WIDE, InverseMap(SQUARE), base_map(cotangent_lift(WIDE))],
                         ids=["poly", "inverse", "genfun-base"])
def test_every_map_jet_is_a_jet_with_a_leading_output_axis(phi):
    x = np.full(phi.d_in, 0.1)
    for pts in (x, np.stack([x, 0.5 * x])):  # one point, then a stack of two
        mj = phi.jet(pts, 1)
        assert isinstance(mj, Jet)
        assert mj.grad.shape == pts.shape[:-1] + (phi.d_out, phi.d_in)


def test_linear_polymap_keeps_its_term_order():
    # one unit exponent per nonzero entry, row by row in column order
    L = PolyMap.linear([[2.0, 0.0, -1.5], [0.0, 0.5, 0.0]])
    assert [list(c.items()) for c in L.components] == [
        [((1, 0, 0), 2.0), ((0, 0, 1), -1.5)], [((0, 1, 0), 0.5)]]


def test_polymap_jacobian_matches_fd():
    phi = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    x = np.array([0.35, -0.6])
    mj = phi.jet(x, 1)
    jac = fd_jac(lambda z: phi.jet(z, 0).value, x)
    np.testing.assert_allclose(mj.grad, jac, atol=1e-8)


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
    np.testing.assert_allclose(mj.grad, jac, atol=1e-7)

    hess = fd_jac(lambda w: inv.jet(w, 1).grad, y, h=1e-5)
    np.testing.assert_allclose(mj.hess, hess, atol=1e-6)

    third = fd_jac(lambda w: inv.jet(w, 2).hess, y, h=1e-4)
    np.testing.assert_allclose(mj.third, third, atol=1e-4)


def test_inverse_of_linear_is_exact():
    A = np.array([[1.0, 0.7], [-0.3, 2.0]])
    inv = InverseMap(PolyMap.linear(A))
    y = np.array([0.5, -0.4])
    mj = inv.jet(y, 2)
    np.testing.assert_allclose(mj.value, np.linalg.solve(A, y), rtol=1e-13)
    np.testing.assert_allclose(mj.grad, np.linalg.inv(A), rtol=1e-13)
    np.testing.assert_allclose(mj.hess, 0.0, atol=1e-12)


def test_inverse_map_nonconvergence_raises_convergence_error():
    # a CompositionError, which the CLI maps to exit 1 instead of a traceback:
    # x + x^2 >= -1/4 has no preimage of -0.6
    phi = PolyMap([{(1,): 1.0, (2,): 1.0}], d_in=1)
    with pytest.raises(ConvergenceError):
        InverseMap(phi).jet(np.array([-0.6]), 0)


def test_inverse_map_line_search_keeps_the_near_preimage():
    # the full first Newton step overshoots; without backtracking Newton
    # lands on the far preimage (3.8221, -1.7823) of the same point
    g = PolyMap([{(1, 0): 1, (2, 0): 1.2221, (0, 2): -3.4224, (0, 3): 1.9807},
                 {(0, 1): 1, (1, 1): 2.5067, (3, 0): 1.0278, (1, 2): -3.0672}], d_in=2)
    y = np.array([-0.4111, 1.2888])
    np.testing.assert_allclose(InverseMap(g).jet(y, 0).value, [0.08433536, 1.63235431],
                               rtol=0, atol=1e-7)


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
            for f in ("value", "grad", "hess", "third")[:order + 1]:
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


@given(data=st.data())
def test_certified_inverse_map_condition_is_never_below_the_exact_one(data):
    # Jacobians I + E of random size and spread, some rows past 3/4; the
    # exact condition rounds too, so it may pass a sharp bound by a few units
    q = data.draw(st.integers(1, 4), label="q")
    spread = data.draw(st.floats(0.0, 0.9), label="spread")
    E = data.draw(st.lists(st.floats(-1, 1), min_size=4 * q * q, max_size=4 * q * q))
    J = np.eye(q) + spread * np.array(E).reshape(4, q, q)
    sol, nu = recorded_conditions(J)
    certified = nu <= CERTIFIED
    exact = np.linalg.cond(J)
    assert np.all(sol.conditions[certified] >= exact[certified] * (1 - 16 * np.finfo(float).eps))
    assert np.all(sol.conditions[certified] <= 7.0)
    assert np.array_equal(sol.conditions[~certified], exact[~certified])


def test_near_singular_inverse_reports_its_exact_condition():
    # A = I + [[0, 1], [1, 1e-11 - 1]] is past the bound and has condition
    # about 4e11; the message gives np.linalg.cond's number
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]])
    c = np.linalg.cond(A)
    assert c > COND_LIMIT
    with pytest.raises(DegeneracyError, match=re.escape(f"(condition {c:.3e} exceeds")):
        InverseMap(PolyMap.linear(A)).jet(np.array([0.3, -0.2]), 0)
