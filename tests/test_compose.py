import sys

import numpy as np
import pytest

from symgf import (DEFAULT_NEWTON, ConvergenceError, DegeneracyError, Diffeo,
                   LieStructure, NewtonOptions, PolyMap, PolyPoisson, change_coordinates,
                   compose, identity_genfun, kontsevich_monoid, lie_monoid, poisson_bivector,
                   poly_genfun, sample_ball, sample_box, source_target,
                   standard_bivector, stationary_point, symplectic_monoid, tensor)
from symgf.compose import _phase_condition, _residual_and_jac, _solve
from symgf.genfun import GenFun
from symgf.maps import InverseMap

from conftest import fd_grad, fd_jac, normalization_residual


# -- closed-form oracle -----------------------------------------------------

def test_quadratic_composition_closed_form():
    # F = p x + a/2 p^2, G = p x + c/2 p^2 + g p x: stationary point solvable
    # by hand, F o G = (1+g) p x + ((1+g)^2 a + c)/2 p^2
    a, c, g = 0.7, -0.4, 0.3
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): a / 2}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0 + g, ((2,), (0,)): c / 2}, 1, 1)
    C = compose(F, G)
    for p1, x3 in [(0.5, -0.8), (-1.2, 0.4), (2.0, 1.5)]:
        want = (1 + g) * p1 * x3 + 0.5 * ((1 + g) ** 2 * a + c) * p1 * p1
        assert C(np.array([p1]), np.array([x3])) == pytest.approx(want, abs=1e-12)
        j = C.eval_jet(np.array([p1]), np.array([x3]), 2)
        assert j.grad[0] == pytest.approx((1 + g) * x3 + ((1 + g) ** 2 * a + c) * p1,
                                          abs=1e-10)
        assert j.grad[1] == pytest.approx((1 + g) * p1, abs=1e-10)
        assert j.hess[0, 0] == pytest.approx((1 + g) ** 2 * a + c, abs=1e-10)
        assert j.hess[0, 1] == pytest.approx(1 + g, abs=1e-10)
        assert j.hess[1, 1] == pytest.approx(0.0, abs=1e-10)


def test_identity_unit_laws():
    S = symplectic_monoid(2)
    left = compose(identity_genfun(S.n), S)
    right = compose(S, identity_genfun(S.m))
    ps = sample_ball(10, 4, 0.3, 0)
    xs = sample_box(10, 2, -1.0, 1.0, 1)
    for p, x in zip(ps, xs):
        ref = S(p, x)
        assert left(p, x) == pytest.approx(ref, abs=1e-12)
        assert right(p, x) == pytest.approx(ref, abs=1e-12)


def _cubicish(seed, m, n, scale=0.25):
    """A normalized genfun with linear part <p, x> plus small mixed terms."""
    rng = np.random.default_rng(seed)
    terms = {}
    for i in range(min(m, n)):
        pe, xe = [0] * m, [0] * n
        pe[i] = xe[i] = 1
        terms[(tuple(pe), tuple(xe))] = 1.0
    nterm = 4
    for _ in range(nterm):
        pe, xe = [0] * m, [0] * n
        pe[rng.integers(m)] += 1
        if rng.random() < 0.5:
            pe[rng.integers(m)] += 1
        else:
            xe[rng.integers(n)] += 1
        if rng.random() < 0.4:
            xe[rng.integers(n)] += 1
        key = (tuple(pe), tuple(xe))
        terms[key] = terms.get(key, 0.0) + scale * (rng.random() - 0.5)
    return poly_genfun(terms, m, n, label=f"rand{seed}")


def test_composition_associativity_on_random_triples():
    for seed in (3, 5, 9):
        F = _cubicish(seed, 2, 2)
        G = _cubicish(seed + 50, 2, 2)
        H = _cubicish(seed + 100, 2, 2)
        lhs = compose(compose(F, G), H)
        rhs = compose(F, compose(G, H))
        ps = sample_ball(6, 2, 0.15, seed)
        xs = sample_box(6, 2, -0.5, 0.5, seed + 1)
        for p, x in zip(ps, xs):
            assert lhs(p, x) == pytest.approx(rhs(p, x), abs=1e-9)


def test_base_map_of_composition_is_contravariant():
    from symgf import base_map
    F = _cubicish(12, 2, 2)
    G = _cubicish(13, 2, 2)
    C = compose(F, G)
    x = np.array([0.3, -0.4])
    phi_F = base_map(F).jet(x, 0).value
    phi_GF = base_map(G).jet(phi_F, 0).value
    np.testing.assert_allclose(base_map(C).jet(x, 0).value, phi_GF, atol=1e-11)


# -- jets of the composed function -----------------------------------------

def test_composed_jets_match_finite_differences():
    F = _cubicish(21, 2, 2)
    G = _cubicish(22, 2, 2)
    C = compose(F, G)
    p = np.array([0.11, -0.07])
    x = np.array([0.25, 0.4])
    z0 = np.concatenate([p, x])
    j = C.eval_jet(p, x, 3)

    g = fd_grad(lambda z: C.value(z[:2], z[2:]), z0)
    np.testing.assert_allclose(j.grad, g, atol=2e-6)

    h = fd_jac(lambda z: C.eval_jet(z[:2], z[2:], 1).grad, z0, h=1e-5)
    np.testing.assert_allclose(j.hess, h, atol=2e-6)

    t = fd_jac(lambda z: C.eval_jet(z[:2], z[2:], 2).hess, z0, h=1e-4)
    np.testing.assert_allclose(j.third, t, atol=2e-5)


def test_envelope_gradients():
    # grad_p(F o G) = grad_p G at the critical point; grad_x(F o G) = grad_x F
    F = _cubicish(31, 2, 2)
    G = _cubicish(32, 2, 2)
    C = compose(F, G)
    p = np.array([0.09, 0.12])
    x = np.array([-0.3, 0.2])
    sp = C.stationary(p, x)
    jG = G.eval_jet(p, sp.x_mid, 1)
    jF = F.eval_jet(sp.p_mid, x, 1)
    j = C.eval_jet(p, x, 1)
    np.testing.assert_allclose(j.grad[:2], jG.grad[:2], atol=1e-11)
    np.testing.assert_allclose(j.grad[2:], jF.grad[2:], atol=1e-11)
    # and the critical equations themselves
    np.testing.assert_allclose(sp.p_mid, jG.grad[2:], atol=1e-11)
    np.testing.assert_allclose(sp.x_mid, jF.grad[:2], atol=1e-11)


def test_composed_value_is_renormalized():
    F = _cubicish(41, 2, 2)
    G = _cubicish(42, 2, 2)
    C = compose(F, G)
    xs = sample_box(8, 2, -0.6, 0.6, 2)
    assert normalization_residual(C, xs) < 1e-12


def _triple_product(S):
    return compose(S, tensor(S, identity_genfun(S.n)))


composites = pytest.mark.parametrize("make", [
    # lift(g^-1) o S o (lift(g) (+) lift(g)): the outer lift is a LiftGenFun
    # of an InverseMap
    lambda: change_coordinates(symplectic_monoid(2), Diffeo(PolyMap(
        [{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2))),
    lambda: _triple_product(lie_monoid(LieStructure.so3(), trunc=4)),
    lambda: _triple_product(kontsevich_monoid(
        PolyPoisson.linear_from_structure(LieStructure.so3()), eps=0.05, order=2,
        weights=(-1.0 / 12.0, 1.0 / 12.0))),
], ids=["coordinate-change", "so3-trunc4-triple", "kontsevich-order2-triple"])


@composites
def test_composite_is_exactly_normalized(make):
    # Newton stops at the anchor when p = 0, so S(0, x) = 0 with no
    # correction subtracted
    C = make()
    for x in sample_box(4, C.n, -0.25, 0.25, 9):
        assert C.renorm_constant(x) == 0.0


def test_composite_jet_makes_one_stationary_solve(monkeypatch):
    module = sys.modules["symgf.compose"]
    real = module._solve
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "_solve", counting)
    C = _triple_product(symplectic_monoid(2))
    x = np.array([0.4, -0.3])
    for p in (np.array([0.1, -0.2, 0.05, 0.03, 0.07, -0.04]), np.zeros(6)):
        for order in range(4):
            calls.clear()
            C.eval_jet(p, x, order)
            assert len(calls) == 1, (p, order)


@composites
def test_solve_returns_the_operand_jets_at_the_critical_point(make):
    C = make()
    p = sample_ball(1, C.m, 0.05, 4)[0]
    x = sample_box(1, C.n, -0.25, 0.25, 9)[0]
    sp = C.stationary(p, x)
    fresh = (C.F.eval_jet(sp.p_mid, x, 2), C.G.eval_jet(p, sp.x_mid, 2))
    for got, want in zip(_solve(C.F, C.G, p[None], x[None], C.opts).jets, fresh):
        assert got.order == 2 and got.value[0] == want.value
        assert np.array_equal(got.grad[0], want.grad)
        assert np.array_equal(got.hess[0], want.hess)


@composites
def test_stacked_solve_matches_one_point_solves(make):
    # a stack keeps one Newton per row: same iterates, same iteration
    # counts, same composite jets as one point at a time
    C = make()
    ps = sample_ball(5, C.m, 0.05, 4)
    xs = sample_box(5, C.n, -0.25, 0.25, 9)
    sol = _solve(C.F, C.G, ps, xs, C.opts)
    for order in range(4):
        stacked = C.eval_jet(ps, xs, order)
        for b, (p, x) in enumerate(zip(ps, xs)):
            one = C.eval_jet(p, x, order)
            assert stacked.value[b] == one.value
            for q in range(1, order + 1):
                got, want = (getattr(j, ("grad", "hess", "third")[q - 1]) for j in (stacked, one))
                assert np.array_equal(got[b], want), (order, q, b)
    for b, (p, x) in enumerate(zip(ps, xs)):
        sp = C.stationary(p, x)
        assert np.array_equal(sol.Z[b], np.concatenate([sp.p_mid, sp.x_mid]))
        assert sol.iterations[b] == sp.iterations


def test_stacked_solve_sends_only_stragglers_to_homotopy():
    # x_mid solves 1.5 p1 x^2 - x + p1 + 0.2 = 0: from the anchor, p1 = 0.3
    # needs six direct Newton steps, the others at most four
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (3,)): 0.5}, 1, 1)
    ps = np.array([[0.0], [0.3], [0.1], [0.2]])
    xs = np.full((4, 1), 0.2)
    opts = NewtonOptions(max_iter=4, homotopy_steps=10)
    with pytest.raises(ConvergenceError, match=r"p1=\[0\.3\]"):
        stationary_point(F, G, ps[1], xs[1], NewtonOptions(max_iter=4, homotopy_steps=0))
    sol = _solve(F, G, ps, xs, opts)
    for b, (p, x) in enumerate(zip(ps, xs)):
        sp = stationary_point(F, G, p, x, opts)
        assert np.array_equal(sol.Z[b], np.concatenate([sp.p_mid, sp.x_mid]))
        assert sol.iterations[b] == sp.iterations
    assert list(sol.iterations) == [0, 33, 3, 4]


def test_stacked_solve_names_the_degenerate_point():
    # the system of test_degenerate_phase_raises, singular at p1 = x3 = 1
    # only; the error names that point, not the stack
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): 0.5}, 1, 1)
    ps = np.array([[0.1], [1.0], [0.2]])
    xs = np.array([[0.1], [1.0], [-0.3]])
    with pytest.raises(DegeneracyError, match=r"at p1=\[1\.\], x3=\[1\.\]$"):
        _solve(F, G, ps, xs, DEFAULT_NEWTON)
    with pytest.raises(DegeneracyError, match=r"at p1=\[1\.\], x3=\[1\.\]$"):
        compose(F, G).eval_jet(ps, xs, 0)
    _solve(F, G, ps[[0, 2]], xs[[0, 2]], DEFAULT_NEWTON)


def test_non_finite_jacobian_is_degenerate():
    # G_xx = p^3 - p^4 overflows to inf - inf = nan at p1 = 1e110: the point
    # is degenerate, not bad input, and the other points still solve
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((3,), (2,)): 0.5, ((4,), (2,)): -0.5}, 1, 1)
    ps = np.array([[0.1], [1e110], [-0.2]])
    xs = np.full((3, 1), 0.3)
    with pytest.raises(DegeneracyError, match=r"condition inf .* at p1=\[1\.e\+110\]"):
        _solve(F, G, ps, xs, DEFAULT_NEWTON)
    _solve(F, G, ps[[0, 2]], xs[[0, 2]], DEFAULT_NEWTON)


@composites
def test_phase_condition_matches_the_svd(make):
    # at the anchors and at the critical points; the coordinate change's
    # inner operand is itself a composite, whose Hessian is symmetric only
    # to rounding
    C = make()
    ps = sample_ball(6, C.m, 0.05, 4)
    xs = sample_box(6, C.n, -0.25, 0.25, 9)
    anchor = np.concatenate([np.zeros((6, C.F.m)), C.F.eval_jet(np.zeros((6, C.F.m)), xs, 1)
                             .grad[:, :C.F.m]], axis=1)
    for Z in (anchor, _solve(C.F, C.G, ps, xs, C.opts).Z):
        J = _residual_and_jac(C.F, C.G, ps, xs, Z)[1]
        np.testing.assert_allclose(_phase_condition(J), np.linalg.cond(J), rtol=1e-12, atol=0)


def test_phase_condition_toward_a_singular_system():
    # the system of test_degenerate_phase_raises at p1 = x3 = xb = t has
    # J = [[1, -t], [-t, 1]] and condition (1 + t) / (1 - t); a backward
    # stable eigensolver is accurate to a few units of rounding times it
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): 0.5}, 1, 1)
    t = 1.0 - np.logspace(-1, -6, 6)[:, None]
    J = _residual_and_jac(F, G, t, t, np.concatenate([np.zeros_like(t), t], axis=1))[1]
    exact = ((1.0 + t) / (1.0 - t)).ravel()
    err = np.abs(_phase_condition(J) / exact - 1.0)
    assert np.all(err <= 16 * np.finfo(float).eps * exact), err
    # and random cubic operands at random iterates
    F, G = _cubicish(51, 2, 2), _cubicish(52, 2, 2)
    ps, xs = sample_ball(12, 2, 0.2, 7), sample_box(12, 2, -0.6, 0.6, 8)
    J = _residual_and_jac(F, G, ps, xs, sample_box(12, 4, -0.5, 0.5, 3))[1]
    np.testing.assert_allclose(_phase_condition(J), np.linalg.cond(J), rtol=1e-12, atol=0)


class _WrongHessian(GenFun):
    """A genfun that reports its Hessian with the wrong sign."""

    def __init__(self, inner):
        super().__init__(inner.m, inner.n)
        self.inner = inner
        self.calls = 0

    def eval_jet(self, p, x, order):
        self.calls += 1
        j = self.inner.eval_jet(p, x, order)
        if order >= 2:
            j.hess = -j.hess
        return j


def test_line_search_floor_ends_the_direct_solve():
    # with G_xx reported as -1.5 instead of 1.5 (and F_pp = 1.5) every Newton
    # step raises the residual; the solve ends in its first line search, at
    # damping 2**-20, instead of accepting a step that does not descend
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): 0.75}, 1, 1)
    G = _WrongHessian(poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): 0.75}, 1, 1))
    with pytest.raises(ConvergenceError, match="no descent step"):
        stationary_point(F, G, np.array([1.0]), np.array([0.2]),
                         NewtonOptions(homotopy_steps=0))
    assert G.calls == 1 + 21  # iterate 0, then lam = 1, 1/2, ..., 2**-20


def test_operands_are_evaluated_once_per_newton_iterate(monkeypatch):
    # the anchor's F jet serves iterate 0 and the accepted iterate's jets
    # serve orders 0-2 of the composite; only order 3 evaluates them again
    C = _triple_product(symplectic_monoid(2))
    p = np.array([0.1, -0.2, 0.05, 0.03, 0.07, -0.04])
    x = np.array([0.4, -0.3])
    orders = {"F": [], "G": []}
    for name, log in orders.items():
        op = getattr(C, name)

        def counting(q, y, order, _real=op.eval_jet, _log=log):
            _log.append(order)
            return _real(q, y, order)

        monkeypatch.setattr(op, "eval_jet", counting)
    sp = C.stationary(p, x)
    assert sp.iterations == 1
    for order in range(4):
        for log in orders.values():
            log.clear()
        C.eval_jet(p, x, order)
        want = [2] * (sp.iterations + 1) + [3] * (order == 3)
        assert orders == {"F": want, "G": want}, order


# -- solver behaviour -------------------------------------------------------

def test_newton_iteration_budget():
    F = _cubicish(51, 2, 2)
    G = _cubicish(52, 2, 2)
    C = compose(F, G)
    ps = sample_ball(12, 2, 0.2, 7)
    xs = sample_box(12, 2, -0.6, 0.6, 8)
    worst = 0
    for p, x in zip(ps, xs):
        sp = C.stationary(p, x)
        worst = max(worst, sp.iterations)
        assert sp.residual < 1e-12
    assert worst <= 6


def test_quadratic_needs_one_step():
    S = symplectic_monoid(2)
    C = compose(S, tensor(S, identity_genfun(2)))
    sp = C.stationary(np.array([0.1, -0.2, 0.05, 0.03, 0.07, -0.04]),
                      np.array([0.5, -0.5]))
    assert sp.iterations <= 1


def test_degenerate_phase_raises():
    # G_xx F_pp = 1 at the anchor makes the stationary system singular
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): 0.5}, 1, 1)
    C = compose(F, G)
    with pytest.raises(DegeneracyError):
        C.stationary(np.array([1.0]), np.array([1.0]))


def test_nonconvergence_raises_with_tiny_budget():
    # x_mid solves 0.45 x^2 - x + 0.5 = 0 here: several contraction steps away
    # from the anchor, so a one-iteration budget cannot reach 1e-12
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (3,)): 0.5}, 1, 1)
    p1 = np.array([0.3])
    x3 = np.array([0.2])
    opts = NewtonOptions(max_iter=1, homotopy_steps=1)
    with pytest.raises(ConvergenceError):
        stationary_point(F, G, p1, x3, opts)
    # the same problem is fine with the default budget
    sp = stationary_point(F, G, p1, x3)
    assert sp.residual < 1e-12 and sp.iterations <= 6


def test_branch_check_passes_on_well_behaved_problem():
    F = _cubicish(71, 2, 2)
    G = _cubicish(72, 2, 2)
    sp = stationary_point(F, G, np.array([0.1, 0.05]), np.array([0.2, -0.1]),
                          check_branch=True)
    assert sp.residual < 1e-12


def test_dimension_mismatch_rejected():
    F = poly_genfun({((1,), (1,)): 1.0}, 1, 1)
    G = symplectic_monoid(2)
    with pytest.raises(ValueError):
        compose(G, F)


# -- coordinate changes -----------------------------------------------------

def test_linear_change_of_coordinates_conjugates_bivector():
    A = np.array([[1.0, 0.6], [-0.2, 1.1]])
    S = symplectic_monoid(2)
    C = change_coordinates(S, Diffeo(PolyMap.linear(A),
                                     PolyMap.linear(np.linalg.inv(A))))
    J = standard_bivector(2)
    want = A @ J @ A.T
    field = poisson_bivector(C)
    for y in sample_box(6, 2, -0.5, 0.5, 3):
        np.testing.assert_allclose(field.matrix(y), want, atol=1e-10)


def test_quadratic_change_of_coordinates_covariance():
    g = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    S = symplectic_monoid(2)
    C = change_coordinates(S, Diffeo(g))
    fC = poisson_bivector(C)
    fS = poisson_bivector(S)
    ginv = InverseMap(g)
    for y in sample_box(8, 2, -0.25, 0.25, 5):
        x = ginv.jet(y, 0).value
        Dg = g.jet(x, 1).jac
        want = Dg @ fS.matrix(x) @ Dg.T
        np.testing.assert_allclose(fC.matrix(y), want, atol=1e-9)


def test_change_of_coordinates_transports_source_target():
    g = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    S = symplectic_monoid(2)
    C = change_coordinates(S, Diffeo(g))
    gmC = source_target(C)
    gmS = source_target(S)
    ginv = InverseMap(g)
    qs = sample_ball(6, 2, 0.05, 6)
    ys = sample_box(6, 2, -0.25, 0.25, 5)
    for q, y in zip(qs, ys):
        x = ginv.jet(y, 0).value
        p = g.jet(x, 1).jac.T @ q
        np.testing.assert_allclose(gmC.source(q, y),
                                   g.jet(gmS.source(p, x), 0).value, atol=1e-9)
        np.testing.assert_allclose(gmC.target(q, y),
                                   g.jet(gmS.target(p, x), 0).value, atol=1e-9)


def test_change_of_coordinates_requires_monoid_shape():
    g = PolyMap.identity(2)
    F = identity_genfun(2)  # m = n, not monoid-shaped
    with pytest.raises(ValueError):
        change_coordinates(F, Diffeo(g))
