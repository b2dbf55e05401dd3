import re
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from symgf import (LieStructure, Order2GateError, PolyPoisson, abelian_monoid,
                   fit_tree_weights, kontsevich_monoid, lie_monoid, sample_ball, sample_box,
                   standard_bivector, symplectic_monoid, truncated_group_law)
from symgf.jets import unit_exponents
from symgf.monoids import (_fit_instances, _fit_rows, _jacobi_gate, _jacobi_residual,
                           _symbols, rounding_floor)

from oracles import (builtin_rep, composite_defect_eps2, group_law_poly_eval, group_log,
                     richardson_leading)


# -- structure constants and representations -------------------------------

def test_so3_structure_is_cross_product():
    st = LieStructure.so3()
    e1, e2, e3 = np.eye(3)
    for u, v, w in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        np.testing.assert_array_equal(np.einsum("kij,i,j->k", st.c, u, v), w)


def test_structure_constants_validated():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0  # not antisymmetric: c[0,1,0] missing
    with pytest.raises(ValueError):
        LieStructure(2, c, name="broken")


def test_structure_constants_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=re.escape(
            "structure constants must have shape (d, d, d) = (3, 3, 3), got (3, 3)")):
        LieStructure(3, np.zeros((3, 3)))


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
    """The Jacobiator's coefficients and the sums of their terms' absolute
    values, from the cyclic sum as one (d, d, d, d) array, as (d, triples)
    arrays: row l holds the coefficients of x_l, column t the triple
    (i, j, k) = triples[t], i < j < k."""
    triples = list(combinations(range(len(c)), 3))
    i, j, k = np.array(triples, dtype=int).reshape(-1, 3).T
    return [(np.einsum("mij,lmk->lijk", a, a) + np.einsum("mjk,lmi->lijk", a, a)
             + np.einsum("mki,lmj->lijk", a, a))[:, i, j, k] for a in (c, np.abs(c))], triples


@pytest.mark.parametrize("c, lie", [(LieStructure.so3().c, True),
                                     (LieStructure.heisenberg().c, True),
                                     (_random_antisymmetric(5, seed=7), False)],
                         ids=["so3", "heisenberg", "random"])
def test_jacobi_residual_matches_the_four_index_sum(c, lie):
    # the blocks hold the reference's coefficients and absolute sums, and the
    # gate names the coefficient furthest above its floor (all have n = 3d)
    (jac, size), triples = _jacobi_reference(c)
    blocks = list(_jacobi_residual(c))
    for col, want in enumerate((jac, size)):
        assert np.all(np.abs(np.stack([b[col] for b in blocks]) - want) <= 1e-14 * size)
    assert (not jac.any()) == lie
    if lie:
        _jacobi_gate("structure constants violate", _jacobi_residual(c))
        return
    l, t = np.unravel_index(np.argmax(np.abs(jac) / size), jac.shape)
    with pytest.raises(ValueError, match=re.escape(
            f"structure constants violate the Jacobi identity: its {triples[t]} coefficient "
            f"of x^{unit_exponents(len(c), l)} is {jac[l, t]:.3e}, above its rounding floor "
            f"{rounding_floor(size[l, t], 3 * len(c)):.3e}")):
        _jacobi_gate("structure constants violate", _jacobi_residual(c))


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


# -- polynomial bivectors ---------------------------------------------------

@pytest.mark.parametrize("A", [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.000001, 0.0]],
                               [0.0, 0.0], 1.0],
                         ids=["symmetric", "off-by-1e-6", "vector", "scalar"])
def test_from_constant_rejects_what_is_not_an_exactly_antisymmetric_matrix(A):
    with pytest.raises(ValueError, match="must be an antisymmetric matrix"):
        PolyPoisson.from_constant(A)


def test_poly_poisson_antisymmetry_and_eval():
    alpha = PolyPoisson(2, {(0, 1): {(0, 0): 0.4, (1, 0): 0.3}})
    A, dA = alpha.matrix_jet(np.array([2.0, 0.0]), 1)
    assert A[0, 1] == pytest.approx(1.0)
    assert A[1, 0] == pytest.approx(-1.0)
    assert dA[0, 1, 0] == pytest.approx(0.3)
    assert dA[1, 0, 0] == pytest.approx(-0.3)


def test_builders_keep_their_term_order():
    # term order fixes the kernel's row order and so the bits of every report;
    # dict equality ignores it, so compare the items as lists
    abelian = [(((1, 0, 0, 0), (1, 0)), 1.0), (((0, 0, 1, 0), (1, 0)), 1.0),
               (((0, 1, 0, 0), (0, 1)), 1.0), (((0, 0, 0, 1), (0, 1)), 1.0)]
    assert list(abelian_monoid(2).terms.items()) == abelian
    assert list(symplectic_monoid(2).terms.items()) == abelian + [
        (((1, 0, 0, 1), (0, 0)), 0.5), (((0, 1, 1, 0), (0, 0)), -0.5)]
    assert list(PolyPoisson.linear_from_structure(LieStructure.so3()).entries.items()) == [
        ((0, 1), {(0, 0, 1): 1.0}), ((0, 2), {(0, 1, 0): -1.0}), ((1, 2), {(1, 0, 0): 1.0})]


def test_linear_from_structure_is_kirillov_kostant():
    st = LieStructure.so3()
    alpha = PolyPoisson.linear_from_structure(st)
    x = np.array([0.3, -0.7, 1.2])
    A, _ = alpha.matrix_jet(x, 0)
    for i in range(3):
        for j in range(3):
            assert A[i, j] == pytest.approx(st.c[:, i, j] @ x, abs=1e-15)


def test_jacobi_residual_flags_broken_bivector():
    # the gate reads the Jacobiator's coefficients: so(3)'s vanish, and the
    # broken bivector's (0, 1, 2) component is 2 x0 x1, one product
    good = PolyPoisson.linear_from_structure(LieStructure.so3())
    bad = PolyPoisson(3, {(0, 1): {(2, 0, 0): 1.0}, (0, 2): {(0, 1, 0): 1.0},
                          (1, 2): {(1, 0, 0): 1.0}})
    _symbols(good)
    with pytest.raises(ValueError, match=re.escape(
            "bivector violates the Jacobi identity: its (0, 1, 2) coefficient of "
            "x^(1, 1, 0) is 2.000e+00, above its rounding floor")):
        _symbols(bad)


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


def _quadratic_poisson():
    # alpha^{ij} = 1000 x_i x_j: Poisson, every Jacobiator coefficient is exactly 0
    return PolyPoisson(3, {(i, j): {tuple(int(v in (i, j)) for v in range(3)): 1000.0}
                           for i, j in combinations(range(3), 2)})


def _tiny_non_poisson():
    # alpha^{01} = 1e-6, alpha^{12} = 1e-6 x_1: the constant Jacobiator 1e-12
    return PolyPoisson(3, {(0, 1): {(0, 0, 0): 1e-6}, (1, 2): {(0, 1, 0): 1e-6}})


def _so3_in_a_random_basis():
    # so(3) in the basis B, times 100: constants near 260, Jacobi sums rounded
    c, B = LieStructure.so3().c, np.random.default_rng(0).standard_normal((3, 3))
    c = 100 * np.einsum("ka,aij,ip,jq->kpq", np.linalg.inv(B), c, B, B)
    return (c - c.transpose(0, 2, 1)) / 2


def _log_canonical_in_a_random_basis(d=4):
    # alpha^{ij} = m_ij x_i x_j is Poisson for any antisymmetric m; in the
    # coordinates y = A x its rounded coefficients have a rounded Jacobiator
    rng = np.random.default_rng(2)
    m, A = rng.standard_normal((2, d, d))
    M = np.linalg.inv(A)
    Q = np.einsum("ki,lj,ij,ia,jb->klab", A, A, m - m.T, M, M)
    return PolyPoisson(d, {(k, l): {tuple(np.bincount([a, b], minlength=d)):
                                    Q[k, l, a, b] + (Q[k, l, b, a] if a != b else 0.0)
                                    for a in range(d) for b in range(a, d)}
                           for k, l in combinations(range(d), 2)})


def _tiny_non_jacobi():
    # the structure of test_jacobi_violation_rejected, times 1e-7
    c = np.zeros((3, 3, 3))
    for (k, i, j) in ((2, 0, 1), (0, 0, 2), (1, 1, 2)):
        c[k, i, j], c[k, j, i] = 1e-7, -1e-7
    return c


def _builds(make):
    try:
        make()
    except ValueError as exc:
        assert "the Jacobi identity" in str(exc)
        return False
    return True


def _bivector_gate(alpha):
    return lambda s=1.0: kontsevich_monoid(alpha.scaled(s), eps=1e-5)


def _structure_gate(c):
    return lambda s=1.0: LieStructure(len(c), s * c)


JACOBI_VERDICTS = {
    "quadratic-1000": (_bivector_gate(_quadratic_poisson()), True),
    "constant-1e-12": (_bivector_gate(_tiny_non_poisson()), False),
    "so3-random-basis": (_structure_gate(_so3_in_a_random_basis()), True),
    "non-jacobi-1e-7": (_structure_gate(_tiny_non_jacobi()), False),
}


@pytest.mark.parametrize("name", JACOBI_VERDICTS)
def test_jacobi_gate_reads_the_coefficients_against_their_rounding(name):
    # a Poisson input builds at any size of its coefficients, a broken one is
    # refused however small its defect
    make, poisson = JACOBI_VERDICTS[name]
    assert _builds(make) == poisson


def test_jacobi_verdict_is_invariant_under_exact_rescaling():
    # scaling by 2^k scales every product, sum and floor exactly
    gates = dict(JACOBI_VERDICTS)
    for name in ("so3", "heisenberg"):
        c = getattr(LieStructure, name)().c
        gates[name] = (_structure_gate(c), True)
        gates[f"{name}-linear"] = (
            _bivector_gate(PolyPoisson.linear_from_structure(LieStructure(3, c))), True)
    for n, alpha in enumerate(_fit_instances()):
        gates[f"fit-{n}"] = (_bivector_gate(alpha), True)
    gates["log-canonical-random-basis"] = (_bivector_gate(_log_canonical_in_a_random_basis()), True)
    for name, (make, poisson) in gates.items():
        verdicts = {k: _builds(lambda: make(2.0 ** k)) for k in range(-40, 41)}
        assert verdicts == dict.fromkeys(range(-40, 41), poisson), name


def _gl2():
    # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb on the matrix units E_00, E_01, E_10, E_11
    E = np.eye(4).reshape(4, 2, 2)
    return np.einsum("kab,iac,jcb->kij", E, E, E) - np.einsum("kab,jac,icb->kij", E, E, E)


def test_jacobi_gate_builds_where_the_coefficient_products_overflow():
    # products of coefficients near 1e200 overflow, so the gate forms them from the
    # coefficients scaled by a power of two: both Poisson inputs build
    S = kontsevich_monoid(_quadratic_poisson().scaled(1e197), eps=1e-300)
    assert S.domain_radius == 0.5 / (1e-300 * 1e200)
    assert LieStructure(4, 1e200 * _gl2()).d == 4
    # an infinite coefficient must not pass as below its floor
    alpha = PolyPoisson(3, {(0, 1): {(1, 1, 0): np.inf}, (0, 2): {(1, 0, 1): 1000.0},
                            (1, 2): {(0, 1, 1): 1000.0}})
    with pytest.raises(ValueError, match=re.escape(
            "bivector violates the Jacobi identity: its (0, 1, 2) coefficient of "
            "x^(1, 1, 1) is nan, above its rounding floor inf")):
        kontsevich_monoid(alpha, eps=1e-300)


def test_an_overflowed_refusal_still_says_how_far_above_its_floor():
    # J = 2e400 and its floor overflow to inf when scaled back, but the gate's
    # ratio is taken on the scaled coefficients: 1 / gamma_2 for the one product
    alpha = PolyPoisson(3, {(0, 1): {(2, 0, 0): 1e200}, (0, 2): {(0, 1, 0): 1e200},
                            (1, 2): {(1, 0, 0): 1e200}})
    assert 1 / rounding_floor(1.0, 2) == pytest.approx(4.504e15, rel=1e-4)
    with pytest.raises(ValueError, match=re.escape(
            "bivector violates the Jacobi identity: its (0, 1, 2) coefficient of "
            "x^(1, 1, 0) is inf, above its rounding floor inf (|J| / floor = 4.504e+15)")):
        kontsevich_monoid(alpha, eps=1e-300)


@pytest.mark.parametrize("alpha", [
    PolyPoisson(2, {(0, 1): {(0, 0): np.inf}}),
    PolyPoisson(3, {(0, 1): {(0, 0, 0): np.inf}}),
    PolyPoisson(3, {(0, 1): {(0, 0, 0): 1.0}, (1, 2): {(0, 0, 0): np.nan}}),
], ids=["d2", "d3", "nan"])
def test_a_non_finite_entry_in_no_jacobiator_product_is_refused(alpha):
    # d = 2 has no Jacobiator, and a constant entry has no derivative, so the
    # gate never reads these coefficients; the builder refuses them by entry
    ij, poly = list(alpha.entries.items())[-1]
    (xe, c), = poly.items()
    with pytest.raises(ValueError, match=re.escape(
            f"bivector entry {ij} has the coefficient {c} of x^{xe}")):
        kontsevich_monoid(alpha, eps=0.1)


def test_an_infinite_structure_constant_is_refused_before_the_gate():
    # the gate's products would turn c^2_01 = inf into nan, with a warning
    c = np.zeros((3, 3, 3))
    c[2, 0, 1], c[2, 1, 0] = np.inf, -np.inf
    with pytest.raises(ValueError, match=re.escape("structure constant c[2, 0, 1] is inf")):
        LieStructure(3, c)


def test_negative_eps_gives_the_same_domain_radius():
    alpha = PolyPoisson.linear_from_structure(LieStructure.so3())
    radius = kontsevich_monoid(alpha, eps=0.1).domain_radius
    assert radius == 5.0
    assert kontsevich_monoid(alpha, eps=-0.1).domain_radius == radius


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
    assert fit.floor < 1e-15
    assert fit.c1 == pytest.approx(-1.0 / 12.0, abs=1e-15)
    assert fit.c2 == pytest.approx(+1.0 / 12.0, abs=1e-15)


def _counting(monkeypatch):
    """Count the Jacobi gates, builder calls and Newton solves made from now on."""
    from symgf import monoids
    composition = sys.modules["symgf.compose"]  # the package exports its function as compose
    calls = {"gate": 0, "builder": 0, "solve": 0}

    def counter(key, f):
        def counted(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return counted

    for owner, name, key in ((monoids, "_jacobi_gate", "gate"),
                             (monoids, "kontsevich_monoid", "builder"),
                             (composition, "_solve", "solve")):
        monkeypatch.setattr(owner, name, counter(key, getattr(owner, name)))
    return calls


def test_fit_gates_each_bivector_once(monkeypatch):
    # the fit takes its tree symbols from symbols built once per instance:
    # one Jacobi gate per bivector, one on the structure constants of so(3)
    # behind the linear instance, no call into the builder, and no solve
    calls = _counting(monkeypatch)
    fit = fit_tree_weights.__wrapped__()
    assert fit.passed
    assert calls == {"gate": 3, "builder": 0, "solve": 0}


def test_fit_makes_no_newton_solve(monkeypatch):
    # the closed form holds at any sample set, with no composite behind it
    calls = _counting(monkeypatch)
    fit = fit_tree_weights.__wrapped__(seed=3, n_points=8)
    assert calls["solve"] == 0
    assert fit.n_rows == 16 and fit.floor < 1e-15
    assert fit.c1 == pytest.approx(-1.0 / 12.0, abs=1e-15)
    assert fit.c2 == pytest.approx(+1.0 / 12.0, abs=1e-15)


def test_fit_builds_each_table_to_the_order_it_reads(table_builds):
    # the bivectors' tables to order 1 (alpha and its derivative), the tree
    # symbols' to order 0; a kernel refuses a jet above its order
    fit_tree_weights.__wrapped__()
    assert [order for _, order in table_builds] == [1, 0, 1, 0]
    alpha = PolyPoisson.linear_from_structure(LieStructure.so3())
    with pytest.raises(ValueError, match=r"jet order must be in \[0, 1\], got 2"):
        alpha._kernel.jet(np.zeros(3), 2)


def _fit_samples(seed=11, n_points=24):
    """(alpha, ps, xs) for each fit instance, sampled as ``_fit_rows`` does."""
    for inst_idx, alpha in enumerate(_fit_instances()):
        d = alpha.d
        yield (alpha, sample_ball(n_points, 3 * d, 0.35, seed=seed + 100 * inst_idx),
               sample_box(n_points, d, -0.9, 0.9, seed=seed + 100 * inst_idx + 1))


def _three_candidate_rows():
    """The fit's affine system from composites alone: the eps^2 associativity
    defect coefficient of the monoids with weights (0, 0), (1, 0) and (0, 1),
    by Richardson elimination, and the columns as differences of those."""
    basis = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    lead = np.concatenate([[composite_defect_eps2(alpha, ps, xs, cand) for cand in basis]
                           for alpha, ps, xs in _fit_samples()], axis=1)
    return np.stack([lead[1] - lead[0], lead[2] - lead[0]], axis=1), lead[0]


def test_fit_columns_are_the_coboundary_of_the_trees():
    # the closed-form columns agree with the composite differences, and the
    # closed-form constant with the composite defect of the (0, 0) candidate
    A, b = _fit_rows(11, 24)
    A_ref, b_ref = _three_candidate_rows()
    assert A.shape == A_ref.shape == (48, 2)
    assert np.max(np.abs(A - A_ref)) < 1e-10
    assert np.max(np.abs(A)) > 1e-3
    assert np.max(np.abs(b - b_ref)) < 1e-10


def test_fit_constant_is_the_weight_free_composite_defect():
    # the second variation of the stationary value is what the composition
    # engine measures on the order-1 monoid, by Newton and Richardson, on
    # samples other than the fit's own
    _, b = _fit_rows(3, 8)
    b_ref = np.concatenate([composite_defect_eps2(alpha, ps, xs)
                            for alpha, ps, xs in _fit_samples(3, 8)])
    assert np.max(np.abs(b)) > 1e-4
    assert np.max(np.abs(b - b_ref)) < 1e-10


def test_batched_richardson_matches_one_solve_per_series():
    # series stacked over two leading axes, 24 points x 4 eps levels each
    eps = 0.08
    values = np.random.default_rng(5).standard_normal((3, 24, 4)) * eps ** 2
    V = np.array([[(eps / 2.0 ** i) ** q for q in np.arange(2, 6)] for i in range(4)])
    want = np.array([[np.linalg.solve(V, v)[0] for v in row] for row in values])
    got = richardson_leading(values, eps)
    assert got.shape == (3, 24) and np.array_equal(got, want)


def test_order2_gate_error_carries_fit():
    from symgf.monoids import TreeWeightFit
    fit = TreeWeightFit(c1=0.0, c2=0.0, floor=1.0, n_rows=4, seed=0)
    assert not fit.passed
    err = Order2GateError(fit)
    assert err.fit is fit
    assert "gate" in str(err)


def test_weights_need_order_2():
    alpha = PolyPoisson.linear_from_structure(LieStructure.so3())
    with pytest.raises(ValueError, match="order 2"):
        kontsevich_monoid(alpha, order=1, weights=(1.0, 2.0))


def test_abelian_monoid_is_additive():
    S = abelian_monoid(3)
    p1 = np.array([0.1, 0.2, -0.3])
    p2 = np.array([0.05, -0.15, 0.2])
    x = np.array([1.0, -2.0, 0.5])
    assert S(np.concatenate([p1, p2]), x) == pytest.approx((p1 + p2) @ x, rel=1e-15)
