import numpy as np
import pytest
from hypothesis import given, strategies as st

from symgf import (NormalizationError, PolyMap, base_map, cotangent_lift,
                   identity_genfun, poly_genfun, sample_ball, sample_box,
                   tensor, unit_genfun)

from conftest import fd_grad, normalization_residual


def test_identity_genfun_is_pairing():
    I = identity_genfun(3)
    p = np.array([0.3, -0.1, 0.7])
    x = np.array([1.2, 0.4, -0.9])
    assert I(p, x) == pytest.approx(p @ x, rel=1e-15)
    j = I.eval_jet(p, x, 2)
    np.testing.assert_array_equal(j.grad[:3], x)
    np.testing.assert_array_equal(j.grad[3:], p)


def test_normalization_rejects_momentum_free_terms():
    with pytest.raises(NormalizationError):
        poly_genfun({((0, 0), (1, 0)): 2.0}, 2, 2)
    with pytest.raises(NormalizationError):
        poly_genfun({((0, 0), (0, 0)): 1.0}, 2, 2)
    # momentum-carrying terms are fine
    poly_genfun({((1, 0), (1, 0)): 2.0}, 2, 2)


def test_normalization_residual_vanishes_for_valid_genfun():
    S = poly_genfun({((1, 1), (1, 0)): 0.7, ((2, 0), (0, 1)): -0.3}, 2, 2)
    xs = sample_box(20, 2, -1.0, 1.0, 0)
    assert normalization_residual(S, xs) == 0.0


@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
def test_genfun_gradients_match_fd(a, b):
    S = poly_genfun({((1, 0), (0, 1)): a, ((1, 1), (1, 0)): b,
                     ((2, 0), (0, 0)): 0.5}, 2, 2)
    p = np.array([0.4, -0.3])
    x = np.array([0.8, 0.6])
    j = S.eval_jet(p, x, 1)
    g = fd_grad(lambda z: S.value(z[:2], z[2:]), np.concatenate([p, x]))
    np.testing.assert_allclose(j.grad, g, atol=1e-6)


def test_tensor_of_polys_is_sum_on_disjoint_slots():
    F = poly_genfun({((1,), (1,)): 2.0}, 1, 1, label="F")
    G = poly_genfun({((2,), (0, 1)): 1.5}, 1, 2, label="G")
    T = tensor(F, G)
    assert (T.m, T.n) == (2, 3)
    p = np.array([0.3, -0.2])
    x = np.array([0.9, 0.5, -1.1])
    want = F(p[:1], x[:1]) + G(p[1:], x[1:])
    assert T(p, x) == pytest.approx(want, rel=1e-14)
    j = T.eval_jet(p, x, 2)
    g = fd_grad(lambda z: T.value(z[:2], z[2:]), np.concatenate([p, x]))
    np.testing.assert_allclose(j.grad, g, atol=1e-6)


def test_unit_genfun_has_no_momenta():
    U = unit_genfun(2)
    assert (U.m, U.n) == (0, 2)
    assert U(np.zeros(0), np.array([0.4, -0.2])) == 0.0


def test_cotangent_lift_of_poly_map_is_poly():
    phi = PolyMap([{(2, 0): 1.0, (0, 1): 0.5}, {(1, 0): -1.0}], d_in=2)
    L = cotangent_lift(phi)
    p = np.array([0.7, -0.4])
    x = np.array([0.3, 0.9])
    assert L(p, x) == pytest.approx(p @ phi.jet(x, 0).value, rel=1e-14)


def test_base_map_is_p_gradient_at_zero():
    # S = <p, phi(x)> has base map phi
    phi = PolyMap([{(1, 1): 1.0}, {(0, 2): 1.0, (1, 0): 0.5}], d_in=2)
    L = cotangent_lift(phi)
    bm = base_map(L)
    x = np.array([0.6, -0.8])
    np.testing.assert_allclose(bm.jet(x, 0).value, phi.jet(x, 0).value, rtol=1e-13)
    np.testing.assert_allclose(bm.jet(x, 1).jac, phi.jet(x, 1).jac, rtol=1e-12)


def test_lift_genfun_jets_match_fd():
    from symgf.maps import InverseMap
    phi = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    L = cotangent_lift(InverseMap(phi))  # non-poly branch
    p = np.array([0.25, -0.15])
    x = np.array([0.1, 0.2])
    j = L.eval_jet(p, x, 2)
    z0 = np.concatenate([p, x])
    g = fd_grad(lambda z: L.value(z[:2], z[2:]), z0)
    np.testing.assert_allclose(j.grad, g, atol=1e-6)
    for i in range(4):
        row = fd_grad(lambda z: L.eval_jet(z[:2], z[2:], 1).grad[i], z0, h=1e-5)
        np.testing.assert_allclose(j.hess[i], row, atol=1e-6)


def test_domain_radius_minimum_under_tensor():
    F = poly_genfun({((1,), (1,)): 1.0}, 1, 1, domain_radius=0.3)
    G = poly_genfun({((1,), (1,)): 1.0}, 1, 1, domain_radius=0.8)
    assert tensor(F, G).domain_radius == pytest.approx(0.3)
