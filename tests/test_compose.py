import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symgf import (ConvergenceError, DegeneracyError, Diffeo,
                   LieStructure, NewtonOptions, PolyMap, PolyPoisson, change_coordinates,
                   compose, identity_genfun, kontsevich_monoid, lie_monoid, poisson_bivector,
                   poly_genfun, sample_ball, sample_box, source_target,
                   standard_bivector, stationary_point, symplectic_monoid, tensor)
from symgf.compose import CERTIFIED, COND_LIMIT, _damped_newton, _pair, _residual_and_jac
from symgf.genfun import GenFun, LiftGenFun, TensorGenFun
from symgf.jets import Jet
from symgf.maps import InverseMap
from symgf.verify import check_associativity, check_groupoid, check_jacobi, check_unit

from conftest import fd_grad, fd_jac, normalization_residual, recorded_conditions


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
    sp = stationary_point(C.F, C.G, p, x, C.opts)
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


# y = g(x), a quadratic near-identity map of the plane
QUADRATIC_G = [{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}]


def _coordinate_change():
    # lift(g^-1) o S o (lift(g) (+) lift(g)): the outer lift is a LiftGenFun
    # of an InverseMap
    return change_coordinates(symplectic_monoid(2), Diffeo(PolyMap(QUADRATIC_G, d_in=2)))


composites = pytest.mark.parametrize("make", [
    _coordinate_change,
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
    sp = stationary_point(C.F, C.G, p, x, C.opts)
    fresh = (C.F.eval_jet(sp.p_mid, x, 2), C.G.eval_jet(p, sp.x_mid, 2))
    for got, want in zip(C._solve_jet(p[None], x[None], 0)[1].jets, fresh):
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
    sol = C._solve_jet(ps, xs, 0)[1]
    for order in range(4):
        stacked = C.eval_jet(ps, xs, order)
        for b, (p, x) in enumerate(zip(ps, xs)):
            one = C.eval_jet(p, x, order)
            assert stacked.value[b] == one.value
            for q in range(1, order + 1):
                got, want = (getattr(j, ("grad", "hess", "third")[q - 1]) for j in (stacked, one))
                assert np.array_equal(got[b], want), (order, q, b)
    for b, (p, x) in enumerate(zip(ps, xs)):
        sp = stationary_point(C.F, C.G, p, x, C.opts)
        assert np.array_equal(sol.Z[b], np.concatenate([sp.p_mid, sp.x_mid]))
        assert sol.iterations[b] == sp.iterations


@pytest.mark.parametrize("B", [1, 3, 64])
def test_stacked_pairing_equals_the_row_loop_bit_for_bit(B):
    # <pb, xb> of a composite and <p, x> of the unit check: the stacked
    # products round as the row-by-row u[i] @ v[i] does, on the column halves
    # of a solve's iterates as on contiguous rows, for magnitudes 1e-8 to 1e3,
    # mixed signs and signed zeros
    rng = np.random.default_rng(B)
    for k in range(1, 13):
        Z = rng.choice([-1.0, 1.0], (B, 2 * k)) * 10.0 ** rng.uniform(-8, 3, (B, 2 * k))
        Z[rng.random((B, 2 * k)) < 0.1] *= 0.0
        for u, v in ((Z[:, :k], Z[:, k:]), (Z[:, :k].copy(), Z[:, k:].copy())):
            got, want = _pair(u, v), np.array([a @ b for a, b in zip(u, v)])
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want)), k


def test_stacked_toy_solve_matches_one_point_solves():
    # x_mid solves 1.5 p1 x^2 - x + p1 + 0.2 = 0: from the anchor, p1 = 0.3
    # needs six Newton steps, the others at most four
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (3,)): 0.5}, 1, 1)
    ps = np.array([[0.0], [0.3], [0.1], [0.2]])
    xs = np.full((4, 1), 0.2)
    sol = compose(F, G)._solve_jet(ps, xs, 0)[1]
    for b, (p, x) in enumerate(zip(ps, xs)):
        sp = stationary_point(F, G, p, x)
        assert np.array_equal(sol.Z[b], np.concatenate([sp.p_mid, sp.x_mid]))
        assert sol.iterations[b] == sp.iterations
    assert list(sol.iterations) == [0, 6, 3, 4]
    short = compose(F, G, NewtonOptions(max_iter=4))
    with pytest.raises(ConvergenceError, match=r"in 4 iterations .* at p1=\[0\.3\], x3=\[0\.2\]$"):
        short._solve_jet(ps, xs, 0)
    with pytest.raises(ConvergenceError, match=r"p1=\[0\.3\]"):
        stationary_point(F, G, ps[1], xs[1], NewtonOptions(max_iter=4))


def test_point_without_a_real_critical_point_fails_by_name():
    # at p1 = 1, x3 = 0.2 the toy system's 1.5 x^2 - x + 1.2 = 0 has no real
    # root: the stack raises that sample's error, with no rescue attempted,
    # and its solvable row still solves alone
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (3,)): 0.5}, 1, 1)
    ps, xs = np.array([[0.1], [1.0]]), np.full((2, 1), 0.2)
    with pytest.raises(ConvergenceError, match=r"at p1=\[1\.\], x3=\[0\.2\]$") as err:
        compose(F, G)._solve_jet(ps, xs, 0)
    assert "homotopy" not in str(err.value)
    compose(F, G)._solve_jet(ps[:1], xs[:1], 0)


def test_stacked_solve_names_the_degenerate_point():
    # the system of test_degenerate_phase_raises, singular at p1 = x3 = 1
    # only; the error names that point, not the stack, and it is the solve's
    # at every order, so implicit differentiation never meets a singular block
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): 0.5}, 1, 1)
    ps = np.array([[0.1], [1.0], [0.2]])
    xs = np.array([[0.1], [1.0], [-0.3]])
    message = r"^stationary-point system is degenerate .* at p1=\[1\.\], x3=\[1\.\]$"
    for order in (0, 2, 3):
        with pytest.raises(DegeneracyError, match=message):
            compose(F, G)._solve_jet(ps, xs, order)
        with pytest.raises(DegeneracyError, match=message):
            compose(F, G).eval_jet(ps, xs, order)
        compose(F, G)._solve_jet(ps[[0, 2]], xs[[0, 2]], order)


def test_non_finite_jacobian_is_degenerate():
    # G_xx = p^3 - p^4 overflows to inf - inf = nan at p1 = 1e110: the point
    # is degenerate, not bad input, and the other points still solve
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((3,), (2,)): 0.5, ((4,), (2,)): -0.5}, 1, 1)
    ps = np.array([[0.1], [1e110], [-0.2]])
    xs = np.full((3, 1), 0.3)
    with pytest.raises(DegeneracyError, match=r"condition inf .* at p1=\[1\.e\+110\]"):
        compose(F, G)._solve_jet(ps, xs, 0)
    compose(F, G)._solve_jet(ps[[0, 2]], xs[[0, 2]], 0)


def test_phase_condition_toward_a_singular_system():
    # the system of test_degenerate_phase_raises at p1 = x3 = xb = t has
    # J = [[1, -t], [-t, 1]] and condition (1 + t) / (1 - t); every t > 3/4
    # takes the loop's exact path, a backward stable SVD accurate to a few
    # units of rounding times the condition
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): 0.5}, 1, 1)
    t = 1.0 - np.logspace(-1, -6, 6)[:, None]
    Z = np.concatenate([np.zeros_like(t), t], axis=1)
    J = _residual_and_jac(G, t, Z, F.eval_jet(Z[:, :1], t, 2))[1]
    exact = ((1.0 + t) / (1.0 - t)).ravel()
    err = np.abs(recorded_conditions(J)[0].conditions / exact - 1.0)
    assert np.all(err <= 16 * np.finfo(float).eps * exact), err


def _phase_jacobians(A, B):
    """Stationary Jacobians ``[[I, -A], [-B, I]]`` of stacks of k x k blocks."""
    I = np.broadcast_to(np.eye(A.shape[-1]), A.shape)
    return np.block([[I, -A], [-B, I]])


@given(data=st.data())
def test_certified_phase_condition_is_never_below_the_exact_one(data):
    # symmetric Hessian blocks of random size and spread, some rows past 3/4;
    # the exact condition rounds too, and where the bound is sharp (k = 1)
    # it may exceed the bound by a few units of rounding
    k = data.draw(st.integers(1, 3), label="k")
    spread = data.draw(st.floats(0.0, 0.9), label="spread")
    entries = data.draw(st.lists(st.floats(-1, 1), min_size=8 * k * k, max_size=8 * k * k))
    A, B = spread * np.array(entries).reshape(2, 4, k, k)
    J = _phase_jacobians(A + A.swapaxes(1, 2), B + B.swapaxes(1, 2))
    sol, nu = recorded_conditions(J)
    certified = nu <= CERTIFIED
    exact = np.linalg.cond(J)
    assert np.all(sol.conditions[certified] >= exact[certified] * (1 - 16 * np.finfo(float).eps))
    assert np.all(sol.conditions[certified] <= 7.0)
    assert np.array_equal(sol.conditions[~certified], exact[~certified])


def test_condition_is_exact_only_where_the_bound_cannot_certify(monkeypatch):
    # J = [[1, -t], [-t, 1]] has norm bound t and condition (1 + t) / (1 - t):
    # t = 3/4 is certified at 7, t = 0.8 takes the exact path at 9, and the
    # non-finite row goes to neither
    calls, cond = [], np.linalg.cond

    def spy(J):
        calls.append(J.copy())
        return cond(J)

    t = np.array([0.5, 0.75, 0.8, np.inf])[:, None, None]
    J = _phase_jacobians(t, t)
    monkeypatch.setattr(np.linalg, "cond", spy)
    sol, nu = recorded_conditions(J)
    assert nu[:3].tolist() == [0.5, 0.75, 0.8]
    assert sol.conditions.tolist() == [3.0, 7.0, cond(J[2:3])[0], np.inf]
    assert sol.conditions[2] == pytest.approx(9.0, rel=1e-14)
    assert len(calls) == 1 and np.array_equal(calls[0], J[2:3])
    assert [type(e) for e in sol.errors] == [type(None)] * 3 + [DegeneracyError]


def test_a_row_near_the_condition_limit_is_flagged_with_its_exact_condition():
    # condition (1 + t) / (1 - t): about 2e11 at t = 1 - 1e-11, past the
    # limit, and about 5e9 at t = 1 - 4e-10, below it
    t = 1.0 - np.array([1e-11, 4e-10])[:, None, None]
    J = _phase_jacobians(t, t)
    sol, _ = recorded_conditions(J)
    exact = np.linalg.cond(J)
    assert exact[0] > COND_LIMIT > exact[1]
    assert np.array_equal(sol.conditions, exact)
    assert str(sol.errors[0]) == (f"test system is degenerate (condition {exact[0]:.3e} "
                                  f"exceeds {COND_LIMIT:.1e}) at row 0")
    assert sol.errors[1] is None


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
        stationary_point(F, G, np.array([1.0]), np.array([0.2]))
    assert G.calls == 1 + 21  # iterate 0, then lam = 1, 1/2, ..., 2**-20


def _toy_system(kinds):
    """Scalar systems, one per row: 0 is z - 1, 1 is z - 1 with an infinite
    derivative, 2 is z**3 - 1 and 3 is z - 1 with the derivative's sign flipped."""

    def system(rows, Z):
        k = kinds[rows][:, None]
        r = np.where(k == 2, Z ** 3 - 1.0, Z - 1.0)
        d = np.select([k == 1, k == 2, k == 3], [np.inf, 3.0 * Z ** 2, -1.0], 1.0)
        return r, d[:, :, None], ()

    return system


def test_stacked_newton_keeps_mixed_outcomes_to_their_rows():
    # one stack that converges, is degenerate, runs out of iterations and
    # hits the damping floor, row for row as if each were solved alone
    kinds = np.array([0, 1, 2, 3])
    Z0 = np.array([[2.0], [2.0], [30.0], [2.0]])
    opts = NewtonOptions(max_iter=5)

    def solve(rows):
        return _damped_newton(_toy_system(kinds[rows]), Z0[rows], opts, "toy",
                              lambda i: f"at kind {kinds[rows][i]}")

    sol = solve(np.arange(4))
    assert [type(e) for e in sol.errors] == [type(None), DegeneracyError,
                                             ConvergenceError, ConvergenceError]
    assert "did not reach tol" in str(sol.errors[2])
    assert "no descent step" in str(sol.errors[3])
    assert list(sol.iterations) == [1, 0, 5, 0]
    for b in range(4):
        one = solve(np.array([b]))
        assert np.array_equal(sol.Z[b], one.Z[0])
        assert sol.iterations[b] == one.iterations[0]
        assert sol.residuals[b] == one.residuals[0]
        assert sol.conditions[b] == one.conditions[0]
        assert type(sol.errors[b]) is type(one.errors[0])
        assert str(sol.errors[b]) == str(one.errors[0])


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
    sp = stationary_point(C.F, C.G, p, x, C.opts)
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
        sp = stationary_point(C.F, C.G, p, x, C.opts)
        worst = max(worst, sp.iterations)
        assert sp.residual < 1e-12
    assert worst <= 6


def test_quadratic_needs_one_step():
    S = symplectic_monoid(2)
    C = compose(S, tensor(S, identity_genfun(2)))
    sp = stationary_point(C.F, C.G, np.array([0.1, -0.2, 0.05, 0.03, 0.07, -0.04]),
                          np.array([0.5, -0.5]), C.opts)
    assert sp.iterations <= 1


def test_degenerate_phase_raises():
    # G_xx F_pp = 1 at the anchor makes the stationary system singular
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (1,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): 0.5}, 1, 1)
    C = compose(F, G)
    with pytest.raises(DegeneracyError):
        stationary_point(C.F, C.G, np.array([1.0]), np.array([1.0]), C.opts)


def test_nonconvergence_raises_with_tiny_budget():
    # x_mid solves 0.45 x^2 - x + 0.5 = 0 here: several contraction steps away
    # from the anchor, so a one-iteration budget cannot reach 1e-12
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): 0.5}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0, ((1,), (3,)): 0.5}, 1, 1)
    p1 = np.array([0.3])
    x3 = np.array([0.2])
    opts = NewtonOptions(max_iter=1)
    with pytest.raises(ConvergenceError):
        stationary_point(F, G, p1, x3, opts)
    # the same problem is fine with the default budget
    sp = stationary_point(F, G, p1, x3)
    assert sp.residual < 1e-12 and sp.iterations <= 6


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
        Dg = g.jet(x, 1).grad
        want = Dg @ fS.matrix(x) @ Dg.T
        np.testing.assert_allclose(fC.matrix(y), want, atol=1e-9)


def test_change_of_coordinates_transports_source_target():
    g = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    S = symplectic_monoid(2)
    C = change_coordinates(S, Diffeo(g))
    ginv = InverseMap(g)
    qs = sample_ball(6, 2, 0.05, 6)
    ys = sample_box(6, 2, -0.25, 0.25, 5)
    for q, y in zip(qs, ys):
        x = ginv.jet(y, 0).value
        p = g.jet(x, 1).grad.T @ q
        for jC, jS in zip(source_target(C, q, y), source_target(S, p, x)):
            np.testing.assert_allclose(jC[0], g.jet(jS[0], 0).value, atol=1e-9)


def test_change_of_coordinates_requires_monoid_shape():
    g = PolyMap.linear(np.eye(2))
    F = identity_genfun(2)  # m = n, not monoid-shaped
    with pytest.raises(ValueError):
        change_coordinates(F, Diffeo(g))


# -- operands at fixed base points ------------------------------------------

one_genfun_per_kind = pytest.mark.parametrize("make", [
    lambda: _cubicish(61, 2, 3),
    lambda: TensorGenFun(_cubicish(62, 2, 2),
                         LiftGenFun(InverseMap(PolyMap(QUADRATIC_G, d_in=2)))),
    lambda: LiftGenFun(InverseMap(PolyMap(QUADRATIC_G, d_in=2))),
    _coordinate_change,
], ids=["poly", "tensor", "lift-of-inverse", "coordinate-change"])


@one_genfun_per_kind
def test_base_evaluator_equals_eval_jet(make):
    # an evaluator built at `order` answers every order up to it, on any
    # rows of its base points, exactly as eval_jet there
    S = make()
    P = sample_ball(5, S.m, 0.05, 4)
    X = sample_box(5, S.n, -0.25, 0.25, 9)
    for order in range(4):
        ev = S.at_base(X, order)
        for rows in (slice(None), slice(1, 4), np.array([3, 0, 3]), np.array([4])):
            for o in range(order + 1):
                got, want = ev(rows, P[rows], o), S.eval_jet(P[rows], X[rows], o)
                assert got.order == want.order == o
                for q, name in enumerate(("value", "grad", "hess", "third")[:o + 1]):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), \
                        (order, rows, o, name)


@one_genfun_per_kind
def test_one_point_is_row_of_its_stack(make):
    # GenFun.eval_jet evaluates one point as row 0 of a stack of one, so the
    # point's jet is the stack's row bit for bit, with a float value
    S = make()
    P = sample_ball(5, S.m, 0.05, 4)
    X = sample_box(5, S.n, -0.25, 0.25, 9)
    for o in range(4):
        stack = S.eval_jet(P, X, o)
        for b in range(len(P)):
            one = S.eval_jet(P[b], X[b], o)
            assert type(one.value) is float
            for name in ("value", "grad", "hess", "third")[:o + 1]:
                assert np.array_equal(getattr(one, name), getattr(stack, name)[b]), (o, b, name)


def test_inverse_map_jets_once_per_outer_solve(monkeypatch):
    # rows of InverseMap.jet per check of the coordinate-changed composite at
    # grid 3: the outer lift takes its map's jet once per stacked solve (one
    # solve of 6 rows for unit, of 3 for Jacobi's bivector) instead of at the
    # anchor, every iterate and every line-search trial; associativity builds
    # its evaluator of the composite on each sample's base point once, not
    # once per product row
    rows = []
    jet = InverseMap.jet
    monkeypatch.setattr(InverseMap, "jet",
                        lambda self, y, order: rows.append(len(np.atleast_2d(y)))
                        or jet(self, y, order))
    C = _coordinate_change()
    n, r, box, seed = 3, 0.05, 0.25, 15
    ps, ys = sample_ball(n, 2, r, seed), sample_box(n, 2, -box, box, seed + 1)
    checks = {
        "unit": lambda: check_unit(C, ps, ys),
        "associativity": lambda: check_associativity(
            C, sample_ball(n, 6, r, seed + 2), sample_box(n, 2, -box, box, seed + 3)),
        "groupoid": lambda: check_groupoid(C, ps, ys),
        "jacobi": lambda: check_jacobi(C, sample_box(n, 2, -box, box, seed + 4)),
    }
    counted = {}
    for name, check in checks.items():
        rows.clear()
        check()
        counted[name] = sum(rows)
    assert counted == {"unit": 6, "associativity": 21, "groupoid": 12, "jacobi": 3}


class _BentLift(LiftGenFun):
    """<p, phi(x)> + |p|^2 / 40: a lift's evaluator with F_pp = I / 20, so it is
    not momentum-linear and its composites take Newton iterates."""

    momentum_linear = False

    def _pair(self, p, mj) -> Jet:
        out, m = super()._pair(p, mj), self.m
        out.value = out.value + (p * p).sum(axis=-1) / 40
        if out.order >= 1:
            out.grad[..., :m] += p / 20
        if out.order >= 2:
            out.hess[..., :m, :m] += np.eye(m) / 20
        return out


def test_lift_outer_operand_starts_at_its_explicit_critical_point(monkeypatch):
    # grad_p F of a lift does not depend on pb, so xb = grad_p F(0, x3) and
    # pb = grad_x G(p1, xb) solve the system outright: every stacked solve
    # of lift(g^-1) o inner reads one order-2 jet of the inner composite per
    # row and takes no Newton iterate
    module = sys.modules["symgf.compose"]
    C = _coordinate_change()
    solve, solved, G_rows = module._solve, [], []
    jet = C.G.eval_jet

    def counting(Fev, G, P1, X3, opts, linear):
        sol = solve(Fev, G, P1, X3, opts, linear)
        if G is C.G:  # the outer solve; the inner composite's have G = lift (+) lift
            solved.append((len(P1), sol.iterations.tolist(), sol.residuals.max()))
        return sol

    monkeypatch.setattr(module, "_solve", counting)
    monkeypatch.setattr(C.G, "eval_jet", lambda P, X, order: G_rows.append((order, len(P)))
                        or jet(P, X, order))
    ps, xs = sample_ball(5, C.m, 0.05, 4), sample_box(5, C.n, -0.25, 0.25, 9)
    check_unit(C, ps[:, :2], xs)
    check_groupoid(C, ps[:, :2], xs)
    C.eval_jet(ps, xs, 2)
    assert len(solved) == 4
    assert G_rows == [(2, rows) for rows, _, _ in solved]
    assert all(its == [0] * rows and res == 0.0 for rows, its, res in solved)
    # a momentum-nonlinear outer operand on the same maps still takes Newton
    bent = _BentLift(C.F.phi)
    assert not bent.momentum_linear
    G_rows.clear()
    sol = compose(bent, C.G, C.opts)._solve_jet(ps, xs, 0)[1]
    assert sol.iterations.min() >= 1
    assert G_rows == [(2, 5)] * (1 + sol.iterations.max())


def test_explicit_start_still_checks_the_condition():
    # F = <p, x> is momentum-linear: its Jacobian [[1, -G_xx], [0, 1]] is
    # invertible for every finite G_xx = 2 c p, but its phase condition grows
    # like G_xx^2; iterate 0 is checked like any other, so a huge or
    # non-finite G_xx is degenerate while a moderate one solves in 0 iterations
    # (at 1e200 the condition itself overflows to inf, without a warning)
    F = identity_genfun(1)
    assert F.momentum_linear
    p1, x3 = np.array([0.5]), np.array([0.3])
    for c, ok in [(1e3, True), (1e6, False), (1e200, False), (1e308, False)]:
        G = poly_genfun({((1,), (1,)): 1.0, ((1,), (2,)): c}, 1, 1)
        if ok:
            sp = stationary_point(F, G, p1, x3)
            assert (sp.iterations, sp.residual) == (0, 0.0)
            assert sp.p_mid == pytest.approx(p1 * (1 + 2 * c * x3), rel=1e-15)
            assert sp.condition < COND_LIMIT
        else:
            with pytest.raises(DegeneracyError, match="stationary-point system is degenerate"):
                stationary_point(F, G, p1, x3)
