import sys
import tracemalloc

import numpy as np
import pytest

from symgf import (LieStructure, Order2GateError, PolyPoisson, abelian_monoid,
                   builtin_rep, fit_tree_weights, group_law_poly_eval, group_log,
                   kontsevich_monoid, lie_monoid, sample_ball, sample_box,
                   standard_bivector, symplectic_monoid, truncated_group_law)
from symgf.monoids import (_expansion, _fit_instances, _fit_rows, _jacobi_residual,
                           _richardson_leading, _symbols)


# -- structure constants and representations -------------------------------

def test_so3_structure_is_cross_product():
    st = LieStructure.so3()
    e1, e2, e3 = np.eye(3)
    np.testing.assert_array_equal(st.bracket(e1, e2), e3)
    np.testing.assert_array_equal(st.bracket(e2, e3), e1)
    np.testing.assert_array_equal(st.bracket(e3, e1), e2)


def test_structure_constants_validated():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0  # not antisymmetric: c[0,1,0] missing
    with pytest.raises(ValueError):
        LieStructure(2, c, name="broken")


def test_jacobi_violation_rejected():
    # c^3_{12} = c^1_{13} = c^2_{23} = 1 fails Jacobi on (1,2,3)
    c = np.zeros((3, 3, 3))
    for (k, i, j) in ((2, 0, 1), (0, 0, 2), (1, 1, 2)):
        c[k, i, j] = 1.0
        c[k, j, i] = -1.0
    with pytest.raises(ValueError):
        LieStructure(3, c, name="non-jacobi")


def _random_antisymmetric(d, seed):
    a = np.random.default_rng(seed).standard_normal((d, d, d))
    return a - a.transpose(0, 2, 1)


def _jacobi_reference(c):
    # the cyclic sum as one (d, d, d, d) array
    jac = (np.einsum("mij,lmk->lijk", c, c) + np.einsum("mjk,lmi->lijk", c, c)
           + np.einsum("mki,lmj->lijk", c, c))
    return float(np.max(np.abs(jac), initial=0.0))


@pytest.mark.parametrize("c, lie", [(LieStructure.so3().c, True),
                                     (LieStructure.heisenberg().c, True),
                                     (_random_antisymmetric(5, seed=7), False)],
                         ids=["so3", "heisenberg", "random"])
def test_jacobi_residual_matches_the_four_index_sum(c, lie):
    want = _jacobi_reference(c)
    assert (want == 0.0) == lie
    assert _jacobi_residual(c) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_jacobi_check_memory_at_the_dimension_bound():
    # one (64, 64, 64, 64) array of the Jacobi sum alone is 134 MB; one
    # upper index at a time peaks near 6 MB
    c = _random_antisymmetric(64, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="violate the Jacobi identity"):
            LieStructure(64, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


def test_reps_reproduce_brackets():
    for name in ("so3", "heisenberg"):
        st = getattr(LieStructure, name)()
        rep = builtin_rep(name)
        # [B_i, B_j] - sum_k c^k_{ij} B_k over every basis pair
        B = rep.basis
        comm = np.einsum("iab,jbc->ijac", B, B) - np.einsum("jab,ibc->ijac", B, B)
        target = np.einsum("kij,kab->ijab", st.c, B)
        assert np.max(np.abs(comm - target)) < 1e-14


def test_vee_rejects_vectors_outside_span():
    rep = builtin_rep("heisenberg")
    with pytest.raises(ValueError):
        rep.vee(np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]))  # diagonal not in span


# -- truncated group law vs the matrix-log oracle --------------------------

def _bch_error(name, trunc, scale, n=16):
    st = getattr(LieStructure, name)()
    rep = builtin_rep(name)
    A = truncated_group_law(st, trunc)
    us = sample_ball(n, 3, 0.2, 21)
    vs = sample_ball(n, 3, 0.2, 22)
    worst = 0.0
    for u, v in zip(us, vs):
        truth = group_log(rep, scale * u, scale * v)
        approx = group_law_poly_eval(A, scale * u, scale * v)
        worst = max(worst, np.max(np.abs(approx - truth)))
    return worst


@pytest.mark.parametrize("trunc,lo,hi", [(2, 6.4, 9.6), (3, 12.8, 19.2), (4, 25.6, 38.4)])
def test_so3_truncation_error_halving_ratio(trunc, lo, hi):
    e1 = _bch_error("so3", trunc, 1.0)
    e2 = _bch_error("so3", trunc, 0.5)
    assert lo < e1 / e2 < hi


def test_heisenberg_group_law_exact_from_trunc_2():
    # nilpotent of class 2: the series terminates, no truncation error at all
    for trunc in (2, 3, 4):
        assert _bch_error("heisenberg", trunc, 1.0) < 1e-12


def test_lie_monoid_unit_terms():
    S = lie_monoid(LieStructure.so3(), trunc=4)
    ps = sample_ball(20, 3, 0.1, 3)
    xs = sample_box(20, 3, -1.0, 1.0, 4)
    zero = np.zeros(3)
    for p, x in zip(ps, xs):
        assert S(np.concatenate([p, zero]), x) == pytest.approx(p @ x, abs=1e-15)
        assert S(np.concatenate([zero, p]), x) == pytest.approx(p @ x, abs=1e-15)


def test_lie_monoid_value_is_x_dot_group_law():
    st = LieStructure.so3()
    S = lie_monoid(st, trunc=3)
    A = truncated_group_law(st, 3)
    p1 = np.array([0.04, -0.02, 0.05])
    p2 = np.array([-0.03, 0.06, 0.01])
    x = np.array([0.7, -0.4, 1.1])
    want = x @ group_law_poly_eval(A, p1, p2)
    assert S(np.concatenate([p1, p2]), x) == pytest.approx(want, rel=1e-13)


# -- symplectic monoid ------------------------------------------------------

def test_standard_bivector_blocks():
    J = standard_bivector(4)
    np.testing.assert_array_equal(J[:2, 2:], np.eye(2))
    np.testing.assert_array_equal(J[2:, :2], -np.eye(2))
    np.testing.assert_array_equal(J, -J.T)


def test_symplectic_monoid_closed_form_value():
    S = symplectic_monoid(2)
    J = standard_bivector(2)
    p1 = np.array([0.3, -0.1])
    p2 = np.array([0.2, 0.4])
    x = np.array([1.1, -0.7])
    want = (p1 + p2) @ x + 0.5 * p1 @ J @ p2
    assert S(np.concatenate([p1, p2]), x) == pytest.approx(want, rel=1e-14)


def test_symplectic_monoid_rejects_bad_jinv():
    with pytest.raises(ValueError):
        symplectic_monoid(2, jinv=np.array([[0.0, 1.0], [1.0, 0.0]]))  # symmetric
    with pytest.raises(ValueError):
        symplectic_monoid(2, jinv=np.zeros((2, 2)))  # singular


# -- polynomial bivectors ---------------------------------------------------

def test_poly_poisson_antisymmetry_and_eval():
    alpha = PolyPoisson(2, {(0, 1): {(0, 0): 0.4, (1, 0): 0.3}})
    A, dA = alpha.matrix_jet(np.array([2.0, 0.0]), 1)
    assert A[0, 1] == pytest.approx(1.0)
    assert A[1, 0] == pytest.approx(-1.0)
    assert dA[0, 1, 0] == pytest.approx(0.3)
    assert dA[1, 0, 0] == pytest.approx(-0.3)


def test_linear_from_structure_is_kirillov_kostant():
    st = LieStructure.so3()
    alpha = PolyPoisson.linear_from_structure(st)
    x = np.array([0.3, -0.7, 1.2])
    A, _ = alpha.matrix_jet(x, 0)
    for i in range(3):
        for j in range(3):
            assert A[i, j] == pytest.approx(st.c[:, i, j] @ x, abs=1e-15)


def test_jacobi_residual_flags_broken_bivector():
    good = PolyPoisson.linear_from_structure(LieStructure.so3())
    bad = PolyPoisson(3, {(0, 1): {(2, 0, 0): 1.0}, (0, 2): {(0, 1, 0): 1.0},
                          (1, 2): {(1, 0, 0): 1.0}})
    xs = sample_box(30, 3, -1.0, 1.0, 5)
    assert good.jacobi_residual(xs) < 1e-14
    assert bad.jacobi_residual(xs) > 1e-2


# -- semiclassical monoids --------------------------------------------------

def test_kontsevich_constant_bivector_reproduces_symplectic_terms():
    # with alpha = Jinv and eps = 1 the coefficient dictionaries agree exactly
    J = standard_bivector(2)
    S_k = kontsevich_monoid(PolyPoisson.from_constant(J), eps=1.0, order=1)
    S_s = symplectic_monoid(2)
    assert S_k.terms == S_s.terms


def test_kontsevich_rejects_non_jacobi_bivector():
    bad = PolyPoisson(3, {(0, 1): {(2, 0, 0): 1.0}, (0, 2): {(0, 1, 0): 1.0},
                          (1, 2): {(1, 0, 0): 1.0}})
    with pytest.raises(ValueError):
        kontsevich_monoid(bad, eps=0.1)


def test_kontsevich_linear_order2_matches_lie_monoid_trunc3():
    # for a linear bivector at eps=1 the order-2 monoid is the cubic group law
    st = LieStructure.so3()
    alpha = PolyPoisson.linear_from_structure(st)
    fit = fit_tree_weights()
    S_k = kontsevich_monoid(alpha, eps=1.0, order=2, weights=(fit.c1, fit.c2))
    S_l = lie_monoid(st, trunc=3)
    keys = set(S_k.terms) | set(S_l.terms)
    for k in keys:
        assert S_k.terms.get(k, 0.0) == pytest.approx(S_l.terms.get(k, 0.0), abs=1e-9)


def test_fit_tree_weights_recovers_twelfths():
    fit = fit_tree_weights()
    assert fit.passed
    assert fit.floor < 1e-9
    assert fit.c1 == pytest.approx(-1.0 / 12.0, abs=1e-7)
    assert fit.c2 == pytest.approx(+1.0 / 12.0, abs=1e-7)


def test_fit_gates_each_bivector_once(monkeypatch):
    # the fit assembles its weight-free monoids from symbols built once per
    # instance: one Jacobi gate per bivector, no call into the builder, and
    # one stacked solve per instance, eps level and side
    from symgf import monoids
    composition = sys.modules["symgf.compose"]  # the package exports its function as compose
    calls = {"gate": 0, "builder": 0, "solve": 0}
    gate, builder, solve = (PolyPoisson.jacobi_residual, monoids.kontsevich_monoid,
                            composition._solve)

    def counted_gate(self, xs):
        calls["gate"] += 1
        return gate(self, xs)

    def counted_builder(*args, **kwargs):
        calls["builder"] += 1
        return builder(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(PolyPoisson, "jacobi_residual", counted_gate)
    monkeypatch.setattr(monoids, "kontsevich_monoid", counted_builder)
    monkeypatch.setattr(composition, "_solve", counted_solve)
    fit = fit_tree_weights.__wrapped__()
    assert fit.passed
    # two fit instances x 4 eps levels x 2 sides of the defect
    assert calls == {"gate": 2, "builder": 0, "solve": 16}


def _three_candidate_rows(seed=11, n_points=24, eps=0.08, levels=4):
    """The fit's affine system from composites alone: the eps^2 defect
    coefficient of the monoids with weights (0, 0), (1, 0) and (0, 1), by
    Richardson elimination, and the columns as differences of those."""
    from symgf import compose, identity_genfun, tensor
    basis = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    leads = []
    for inst_idx, alpha in enumerate(_fit_instances()):
        d = alpha.d
        symbols = _symbols(alpha)
        I = identity_genfun(d)
        ps = sample_ball(n_points, 3 * d, 0.35, seed=seed + 100 * inst_idx)
        xs = sample_box(n_points, d, -0.9, 0.9, seed=seed + 100 * inst_idx + 1)
        defect = np.zeros((len(basis), levels, n_points))
        for ci, cand in enumerate(basis):
            for lev in range(levels):
                S = _expansion(alpha, symbols, eps / 2.0 ** lev, cand, 2)
                defect[ci, lev] = compose(S, tensor(S, I))(ps, xs) - compose(S, tensor(I, S))(ps, xs)
        leads.append(_richardson_leading(np.moveaxis(defect, 1, -1), eps))
    lead = np.concatenate(leads, axis=1)
    return np.stack([lead[1] - lead[0], lead[2] - lead[0]], axis=1), lead[0]


def test_fit_columns_are_the_coboundary_of_the_trees():
    # the closed-form columns agree with the composite differences, and the
    # weight-free monoid has exactly the terms of the (0, 0) candidate
    A, b = _fit_rows(11, 24, 0.08, 4)
    A_ref, b_ref = _three_candidate_rows()
    assert A.shape == A_ref.shape == (48, 2)
    assert np.max(np.abs(A - A_ref)) < 1e-10
    assert np.max(np.abs(A)) > 1e-3
    assert np.array_equal(b, b_ref)


def test_batched_richardson_matches_one_solve_per_series():
    # series stacked over two leading axes, 24 points x 4 eps levels each
    eps = 0.08
    values = np.random.default_rng(5).standard_normal((3, 24, 4)) * eps ** 2
    V = np.array([[(eps / 2.0 ** i) ** q for q in np.arange(2, 6)] for i in range(4)])
    want = np.array([[np.linalg.solve(V, v)[0] for v in row] for row in values])
    got = _richardson_leading(values, eps)
    assert got.shape == (3, 24) and np.array_equal(got, want)


def test_order2_gate_error_carries_fit():
    from symgf.monoids import TreeWeightFit
    fit = TreeWeightFit(c1=0.0, c2=0.0, floor=1.0, n_rows=4, seed=0, eps=0.1, levels=2)
    assert not fit.passed
    err = Order2GateError(fit)
    assert err.fit is fit
    assert "gate" in str(err)


def test_abelian_monoid_is_additive():
    S = abelian_monoid(3)
    p1 = np.array([0.1, 0.2, -0.3])
    p2 = np.array([0.05, -0.15, 0.2])
    x = np.array([1.0, -2.0, 0.5])
    assert S(np.concatenate([p1, p2]), x) == pytest.approx((p1 + p2) @ x, rel=1e-15)
