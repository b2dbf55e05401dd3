import json
import pathlib
import re
import sys

import numpy as np
import pytest

from symgf import (DegeneracyError, Diffeo, LieStructure, PoissonField, PolyMap,
                   PolyPoisson, VerificationReport, abelian_monoid, base_map, bracket_sign,
                   canonical_bracket, change_coordinates, check_associativity, check_groupoid, check_jacobi,
                   check_morphism, check_poisson_map, check_unit, compose, identity_genfun,
                   kontsevich_monoid, lie_monoid, poisson_bivector, poly_genfun, sample_ball,
                   sample_box, source_target, standard_bivector, symplectic_monoid, tensor)
from symgf.jets import Jet
from symgf.monoids import _fit_instances, jacobi_defect
from symgf.serialize import dumps, load_genfun, load_poisson, reports_to_dict
from symgf.verify import BLOCK, DEFAULT_NEWTON, _associativity_defect

from oracles import Undeclared, jet_bivector

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_bracket_sign_calibrates_positive():
    # {s_i, s_j} = alpha^{ij}(s) holds exactly on the closed-form symplectic
    # monoid for one sign only; it must be the constant bracket_sign()
    S = symplectic_monoid(2)
    field = PoissonField.from_monoid(S)
    ps = np.array([[0.07, -0.04], [-0.05, 0.09]])
    xs = np.array([[0.31, -0.22], [-0.6, 0.45]])
    (s, dps, dxs), _ = source_target(S, ps, xs)
    # {s_0, s_1} / sign at both points, from the bracket matrices
    b = (dxs @ dps.swapaxes(-1, -2) - dps @ dxs.swapaxes(-1, -2))[:, 0, 1]
    a = field.matrix(s)[:, 0, 1]
    worst = {sgn: np.max(np.abs(sgn * b - a)) for sgn in (1, -1)}
    assert worst[1] < 1e-10 < worst[-1]
    assert bracket_sign() == 1


def test_canonical_bracket_on_coordinates():
    # {x_0, p_0} with f = x_0, g = p_0 must equal the calibrated sign
    def f(p, x):
        return Jet(1, x[0], np.array([0.0, 0.0, 1.0, 0.0]))

    def g(p, x):
        return Jet(1, p[0], np.array([1.0, 0.0, 0.0, 0.0]))

    b = canonical_bracket(f, g, np.array([0.3, 0.1]), np.array([0.5, -0.2]))
    assert b == pytest.approx(bracket_sign() * 1.0)


def test_symplectic_source_target_closed_form():
    S = symplectic_monoid(2)
    J = standard_bivector(2)
    p = np.array([0.25, -0.12])
    x = np.array([0.7, 0.4])
    (s, _, _), (t, _, _) = source_target(S, p, x)
    np.testing.assert_allclose(s, x - 0.5 * J @ p, atol=1e-14)
    np.testing.assert_allclose(t, x + 0.5 * J @ p, atol=1e-14)


def test_symplectic_bivector_is_jinv():
    S = symplectic_monoid(4)
    field = poisson_bivector(S)
    J = standard_bivector(4)
    for x in sample_box(5, 4, -1.0, 1.0, 0):
        np.testing.assert_allclose(field.matrix(x), J, atol=1e-14)


monoids = pytest.mark.parametrize("make", [
    lambda: lie_monoid(LieStructure.so3(), trunc=4),
    # a composite whose outer operand is the lift of an InverseMap
    lambda: change_coordinates(symplectic_monoid(2), Diffeo(PolyMap(
        [{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2))),
], ids=["so3-trunc4", "coordinate-change"])


@monoids
def test_bivector_of_a_stack_matches_one_point_rows(make):
    S = make()
    field = poisson_bivector(S)
    ys = sample_box(4, S.n, -0.3, 0.3, 5)
    alpha, dalpha = field.with_derivatives(ys)
    assert np.array_equal(field.matrix(ys), alpha)
    assert np.array_equal(alpha, -alpha.swapaxes(-1, -2))
    for b, y in enumerate(ys):
        a, da = field.with_derivatives(y)
        assert np.array_equal(alpha[b], a) and np.array_equal(dalpha[b], da)
        assert np.array_equal(field.matrix(y), a)


@monoids
def test_stacked_geometry_matches_one_point_rows(make):
    # 40 points span two check blocks; every row of the stacked source and
    # target jets, and every per-point residual of the unit, associativity,
    # groupoid and Jacobi checks, equals its one-point evaluation (for
    # associativity, the one-stack defect of that sample alone)
    S = make()
    d = S.n
    field = poisson_bivector(S)
    ps = sample_ball(40, d, 0.05, 3)
    xs = sample_box(40, d, -0.3, 0.3, 4)
    p3s = sample_ball(40, 3 * d, 0.05, 5)
    stacked = source_target(S, ps, xs)
    upper = np.triu_indices(d, 1)
    zero, defect = np.zeros(d), _associativity_defect(S)
    want_unit, want_assoc = [], []
    want_ss, want_tt, want_st, want_jac = [], [], [], []
    for b, (p, x) in enumerate(zip(ps, xs)):
        px = p @ x
        want_unit.append(max(abs(S.value(np.concatenate([p, zero]), x) - px),
                             abs(S.value(np.concatenate([zero, p]), x) - px)))
        want_assoc.append(abs(defect(p3s[b:b + 1], xs[b:b + 1])[0]))
        (s, dps, dxs), (t, dpt, dxt) = one = source_target(S, p, x)
        for got, row in zip(stacked, one):
            assert all(np.array_equal(g[b], r) for g, r in zip(got, row))
        bss = dxs @ dps.T - dps @ dxs.T
        btt = dxt @ dpt.T - dpt @ dxt.T
        want_ss.append(np.max(np.abs(bss - field.matrix(s))[upper], initial=0.0))
        want_tt.append(np.max(np.abs(btt + field.matrix(t))[upper], initial=0.0))
        want_st.append(np.max(np.abs(dxs @ dpt.T - dps @ dxt.T), initial=0.0))
        want_jac.append(jacobi_defect(*field.with_derivatives(x)))
    # a negative tolerance fails every point, so each failure carries its residual
    reports = [check_unit(S, ps, xs, tol=-1.0), check_associativity(S, p3s, xs, tol=-1.0),
               *check_groupoid(S, ps, xs, tol=-1.0), check_jacobi(S, xs, tol=-1.0)]
    wants = (want_unit, want_assoc, want_ss, want_tt, want_st, want_jac)
    assert len(reports) == len(wants)
    for rep, want in zip(reports, wants):
        assert rep.n == 40
        assert np.array_equal([f["residual"] for f in rep.failures], want), rep.axiom


@pytest.mark.parametrize("alpha", [None, "alpha_quadratic_d2.json"])
def test_blocked_morphism_and_poisson_map_match_one_stack(alpha):
    # 40 points span two check blocks; the blocked residuals equal the
    # morphism gap and the Poisson-map defect evaluated over the whole stack
    F = load_genfun(DATA / "lift_shear_d2.json")
    S = symplectic_monoid(2)
    ps = sample_ball(40, 4, 0.1, 6)
    xs = sample_box(40, 2, -0.5, 0.5, 7)
    want = np.abs(compose(F, S)(ps, xs) - compose(S, tensor(F, F))(ps, xs))
    rep = check_morphism(F, S, S, ps, xs, tol=-1.0)
    assert rep.n == 40
    assert np.array_equal([f["residual"] for f in rep.failures], want)
    # the shear pushes the constant bivector to itself; the quadratic one it moves
    field = poisson_bivector(S) if alpha is None else PoissonField.from_poly(
        load_poisson(DATA / alpha))
    mj = base_map(F).jet(xs, 1)
    rhs = mj.grad @ field.matrix(xs) @ mj.grad.swapaxes(-1, -2)
    want = np.max(np.abs(field.matrix(mj.value) - rhs), axis=(1, 2), initial=0.0)
    rep = check_poisson_map(base_map(F), field, field, xs, tol=-1.0)
    assert rep.n == 40
    assert np.array_equal([f["residual"] for f in rep.failures], want)
    assert (alpha is None) == (np.max(want) < 1e-12)


def test_checks_report_over_the_shortest_sample_stack():
    # 33 rows in the shorter stack: one full block and one of a single row
    S = symplectic_monoid(2)
    ps = sample_ball(40, 2, 0.1, 0)
    xs = sample_box(40, 2, -1.0, 1.0, 1)
    want = check_unit(S, ps[:33], xs[:33], tol=-1.0)
    for a, b in ((ps, xs[:33]), (ps[:33], xs)):
        rep = check_unit(S, a, b, tol=-1.0)
        assert rep.n == 33 and rep.failures == want.failures
        assert [f["point"] for f in rep.failures] == np.hstack([ps[:33], xs[:33]]).tolist()


def test_lie_bivector_derivatives_are_structure_constants():
    st = LieStructure.so3()
    S = lie_monoid(st, trunc=4)
    field = poisson_bivector(S)
    x = np.array([0.4, -0.9, 0.3])
    alpha, dalpha = field.with_derivatives(x)
    for i in range(3):
        for j in range(3):
            assert alpha[i, j] == pytest.approx(st.c[:, i, j] @ x, abs=1e-12)
            for l in range(3):
                assert dalpha[i, j, l] == pytest.approx(st.c[l, i, j], abs=1e-12)


def test_groupoid_maps_require_monoid_shape():
    from symgf import identity_genfun
    with pytest.raises(ValueError):
        source_target(identity_genfun(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        PoissonField.from_monoid(identity_genfun(2))


def _coefficient_bivector_cases():
    so3, heis = LieStructure.so3(), LieStructure.heisenberg()
    cases = {"symplectic-2": lambda: symplectic_monoid(2),
             "symplectic-4": lambda: symplectic_monoid(4), "abelian-3": lambda: abelian_monoid(3)}
    for st in (so3, heis):
        for trunc in range(1, 5):
            cases[f"lie-{st.name}-trunc{trunc}"] = lambda st=st, trunc=trunc: lie_monoid(st, trunc)
    alphas = {"so3": PolyPoisson.linear_from_structure(so3),
              "heisenberg": PolyPoisson.linear_from_structure(heis),
              "quadratic": _fit_instances()[1]}
    for name, alpha in alphas.items():
        for order in (1, 2):
            cases[f"kontsevich-{name}-order{order}"] = (
                lambda alpha=alpha, order=order: kontsevich_monoid(alpha, eps=0.3, order=order))
    return cases


COEFFICIENT_BIVECTOR_CASES = _coefficient_bivector_cases()


@pytest.mark.parametrize("name", COEFFICIENT_BIVECTOR_CASES)
def test_polynomial_bivector_read_from_coefficients_matches_its_jets(name):
    # a PolyGenFun's bivector is its mixed p1 p2 coefficients antisymmetrized,
    # built once per monoid; alpha and d alpha equal the jet reading to rounding
    S = COEFFICIENT_BIVECTOR_CASES[name]()
    d = S.n
    xs = sample_box(6, d, -0.9, 0.9, 4)
    field = PoissonField.from_monoid(S)
    got, want = field.with_derivatives(xs), jet_bivector(S, xs)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=4 * np.finfo(float).eps * np.abs(w).max())
    np.testing.assert_array_equal(field.matrix(xs), got[0])


def test_reports_carry_failures_and_points():
    S = symplectic_monoid(2)
    ps = sample_ball(12, 2, 0.1, 0)
    xs = sample_box(12, 2, -1.0, 1.0, 1)
    rep = check_unit(S, ps, xs, tol=1e-10)
    assert rep.passed and rep.n == 12 and rep.failures == []
    # impossible tolerance: everything fails, points are recorded
    rep2 = check_unit(S, ps, xs, tol=-1.0)
    assert not rep2.passed
    assert len(rep2.failures) == 12
    assert len(rep2.failures[0]["point"]) == 4


def test_non_finite_residuals_and_tolerances_fail():
    # NaN > tol is False: the verdict must not rest on that comparison; a failing
    # point's non-finite coordinates are written "nan", "inf" or "-inf", as residuals are
    def backend(x, order):
        v = x[..., 0, None, None]
        return v * np.ones((2, 2)), v[..., None] * np.ones((2, 2, 2))

    field = PoissonField(2, backend)
    rep = check_jacobi(field, [[0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [-np.inf, -1.5]],
                       tol=1.0)
    assert not rep.passed
    assert [f["point"][0] for f in rep.failures] == pytest.approx([np.nan, np.inf, -np.inf],
                                                                  nan_ok=True)
    doc = json.loads(dumps(reports_to_dict([rep])))
    assert [f["point"] for f in doc["reports"][0]["failures"]] == [
        ["nan", 0.0], ["inf", 0.0], ["-inf", -1.5]]
    assert not check_jacobi(field, [[0.0, 0.0]], tol=np.nan).passed


def test_groupoid_residual_scaling_so3():
    # truncation error of the cubic-order group law is bidegree (1,3) in
    # (x, p): halving p alone scales residuals by 8
    S = lie_monoid(LieStructure.so3(), trunc=4)
    ps = sample_ball(20, 3, 0.08, 0)
    xs = sample_box(20, 3, -1.0, 1.0, 1)
    r1 = max(r.max_residual for r in check_groupoid(S, ps, xs, tol=np.inf))
    r2 = max(r.max_residual for r in check_groupoid(S, 0.5 * ps, xs, tol=np.inf))
    assert r1 / r2 == pytest.approx(8.0, rel=0.05)


def test_check_jacobi_accepts_field_and_poly():
    alpha = PolyPoisson.linear_from_structure(LieStructure.so3())
    xs = sample_box(10, 3, -1.0, 1.0, 2)
    rep_poly = check_jacobi(alpha, xs, tol=1e-12)
    rep_field = check_jacobi(PoissonField.from_poly(alpha), xs, tol=1e-12)
    assert rep_poly.passed and rep_field.passed
    assert rep_poly.max_residual == rep_field.max_residual


def test_json_report_schema():
    S = symplectic_monoid(2)
    ps = sample_ball(4, 2, 0.1, 0)
    xs = sample_box(4, 2, -1.0, 1.0, 1)
    rep = check_unit(S, ps, xs, tol=1e-10)
    doc = rep.to_json_dict()
    assert set(doc) == {"axiom", "max", "mean", "n", "failures", "bracket_sign"}
    assert doc["axiom"] == "unit"
    assert doc["n"] == 4
    assert isinstance(doc["failures"], list)
    assert type(doc["max"]) is float and type(doc["mean"]) is float


def test_json_report_writes_non_finite_residuals_as_strings():
    failures = [{"point": [0.5], "residual": r} for r in (np.nan, np.inf, -np.inf, 2.0)]
    rep = VerificationReport("jacobi", np.inf, np.nan, 4, failures, bracket_sign(), tol=1.0)
    doc = rep.to_json_dict()
    assert (doc["max"], doc["mean"]) == ("inf", "nan")
    assert [f["residual"] for f in doc["failures"]] == ["nan", "inf", "-inf", 2.0]
    assert '"max": "inf"' in dumps(doc)


def test_unit_violation_detected():
    S = symplectic_monoid(2)
    terms = dict(S.terms)
    for i in range(2):
        pe = [0, 0, 0, 0]
        pe[i] = 1
        xe = [0, 0]
        xe[i] = 1
        terms[(tuple(pe), tuple(xe))] = 1.01
    broken = poly_genfun(terms, 4, 2, label="unit-broken")
    ps = sample_ball(30, 2, 0.1, 0)
    xs = sample_box(30, 2, -1.0, 1.0, 1)
    rep = check_unit(broken, ps, xs, tol=1e-4)
    assert not rep.passed
    assert rep.max_residual > 1e-4
    # the source bracket identity survives this particular corruption
    g3 = check_groupoid(broken, ps, xs, tol=1e-12)
    assert g3[0].passed


def _assoc_broken():
    terms = dict(symplectic_monoid(2).terms)
    terms[((1, 1, 1, 0), (0, 1))] = 4.0  # dies at p1=0 or p2=0, breaks assoc
    return poly_genfun(terms, 4, 2, label="assoc-broken")


def test_associativity_violation_detected():
    broken = _assoc_broken()
    ps = sample_ball(30, 2, 0.1, 0)
    xs = sample_box(30, 2, -1.0, 1.0, 1)
    assert check_unit(broken, ps, xs, tol=1e-12).passed
    p3s = sample_ball(30, 6, 0.1, 2)
    axs = sample_box(30, 2, -1.0, 1.0, 3)
    rep = check_associativity(broken, p3s, axs, tol=1e-4)
    assert not rep.passed
    assert rep.max_residual > 1e-4


@pytest.mark.parametrize("make", [
    lambda: symplectic_monoid(2),
    lambda: lie_monoid(LieStructure.so3(), trunc=4),
    lambda: kontsevich_monoid(PolyPoisson.linear_from_structure(LieStructure.so3()),
                              eps=0.05, order=2),
    lambda: change_coordinates(symplectic_monoid(2), Diffeo(PolyMap(
        [{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2))),
    _assoc_broken,
], ids=["symplectic", "so3-trunc4", "kontsevich-so3-order2", "coordinate-change",
        "assoc-broken"])
def test_one_stack_defect_is_the_difference_of_the_two_products(make):
    # (S o (I (x) S))(p1, p2, p3; x) = (S^op o (S (x) I))(p2, p3, p1; x) for any
    # monoid-shaped S, associative or not, so rows of one stacked solve of
    # S o (S (x) I) give the difference of the two composites
    S = make()
    d, I = S.n, identity_genfun(S.n)
    ps, xs = sample_ball(40, 3 * d, 0.05, 5), sample_box(40, d, -0.3, 0.3, 4)
    want = compose(S, tensor(S, I))(ps, xs) - compose(S, tensor(I, S))(ps, xs)
    np.testing.assert_allclose(_associativity_defect(S)(ps, xs), want, rtol=0, atol=1e-15)


def test_associativity_solves_both_products_in_one_stack_per_sweep_block(monkeypatch, table_builds):
    # so(3) trunc 4: the two products of 8 samples are one 16-row solve, not two
    # 8-row solves; at 40 samples each sweep block of at most BLOCK samples is
    # one solve of 2 rows per sample.  Each solve is recorded as (rows,
    # unknowns, iterations summed, iterations max)
    composition = sys.modules["symgf.compose"]
    solve, solves = composition._solve, []

    def recorded(*a):
        sol = solve(*a)
        its = sol.iterations
        solves.append((len(a[2]), sol.Z.shape[1], int(its.sum()), int(its.max())))
        return sol

    monkeypatch.setattr(composition, "_solve", recorded)

    def solves_and_table_builds(products, n):
        ps, xs = sample_ball(n, 9, 0.05, 2), sample_box(n, 3, -0.25, 0.25, 3)
        solves.clear()
        table_builds.clear()
        products(lie_monoid(LieStructure.so3(), trunc=4), ps, xs)
        return solves[:], len(table_builds)

    def two_composites(S, ps, xs):
        I = identity_genfun(3)
        return compose(S, tensor(S, I))(ps, xs) - compose(S, tensor(I, S))(ps, xs)

    # the full systems of S o (S (x) I) and S o (I (x) S): 4d = 12 unknowns, and
    # the tables of S, S (x) I and I (x) S; both inner operands are base-linear,
    # so each solve starts at its explicit critical point and takes no step
    assert solves_and_table_builds(two_composites, 8) == ([(8, 12, 0, 0)] * 2, 3)
    # the identity factor composes away: d = 3 unknown pairs, with S, base-linear,
    # as the inner operand; S's one table serves both operands, as no S (x) I
    # kernel is built
    assert solves_and_table_builds(check_associativity, 8) == ([(16, 6, 0, 0)], 1)
    got, builds = solves_and_table_builds(check_associativity, 40)
    assert [s[0] for s in got] == [2 * BLOCK, 16] and builds == 1
    assert all(s[1] == 6 and s[3] == 0 for s in got)


# the monoids of the three benchmark workloads; the last is the coordinate-change
# benchmark's composite
BENCH_MONOIDS = {
    "lie-so3-trunc4": lambda: lie_monoid(LieStructure.so3(), trunc=4),
    "kontsevich-order2": lambda: kontsevich_monoid(
        PolyPoisson.linear_from_structure(LieStructure.so3()), eps=0.05, order=2),
    "coordinate-change": lambda: change_coordinates(symplectic_monoid(2), Diffeo(PolyMap(
        [{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2))),
}


@pytest.mark.parametrize("name", ["lie-so3-trunc4", "kontsevich-order2"])
def test_base_linear_associativity_solves_start_at_the_critical_point(monkeypatch, name):
    # S has x-degree <= 1, so the solve's inner operand gives pb = grad_x S(a, b; 0)
    # outright: no iterate, residual exactly 0; hidden behind Undeclared, S takes
    # the anchor and a Newton step to the same defects, up to rounding
    composition = sys.modules["symgf.compose"]
    solve, solves = composition._solve, []

    def recorded(*a):
        sol = solve(*a)
        solves.append((a[1].base_linear, int(sol.iterations.max()), float(sol.residuals.max())))
        return sol

    monkeypatch.setattr(composition, "_solve", recorded)
    S = BENCH_MONOIDS[name]()
    ps, xs = sample_ball(BLOCK, 9, 0.05, 2), sample_box(BLOCK, 3, -0.25, 0.25, 3)
    explicit = _associativity_defect(S)(ps, xs)
    newton = _associativity_defect(Undeclared(S))(ps, xs)
    assert solves[0] == (True, 0, 0.0)
    assert solves[1][:2] == (False, 1) and 0.0 < solves[1][2] <= DEFAULT_NEWTON.tol
    np.testing.assert_allclose(explicit, newton, rtol=0, atol=1e-16)


@pytest.mark.parametrize("name", BENCH_MONOIDS)
def test_associativity_defect_bits_do_not_depend_on_the_stack_size(name):
    # every row's Newton run is its own, so 32 samples solved as one stack, as
    # one sweep block is, give the same bits as the same samples in pieces
    S = BENCH_MONOIDS[name]()
    d = S.n
    ps, xs = sample_ball(BLOCK, 3 * d, 0.05, 2), sample_box(BLOCK, d, -0.25, 0.25, 3)
    defect = _associativity_defect(S)
    whole = defect(ps, xs)
    for piece in (1, 5, 16):
        parts = [defect(ps[i:i + piece], xs[i:i + piece]) for i in range(0, BLOCK, piece)]
        assert np.array_equal(np.concatenate(parts), whole), piece


def test_associativity_error_names_the_first_bad_sample_of_a_block():
    # S = (p1 + p2) x + p1 x^2: the left product's phase Hessian holds
    # G_yy = 2 p1, so a huge first momentum is degenerate there; two such
    # samples, one in each half of a block, and the error names the first
    S = poly_genfun({((1, 0), (1,)): 1.0, ((0, 1), (1,)): 1.0, ((1, 0), (2,)): 1.0}, 2, 1)
    ps, xs = sample_ball(BLOCK, 3, 0.05, 2), sample_box(BLOCK, 1, -0.25, 0.25, 3)
    ps[3, 0], ps[20, 0] = 1e6, 2e6
    for i in (3, 20):
        with pytest.raises(DegeneracyError,
                           match=re.escape(f"at p1={ps[i, :2]}, x3={np.r_[ps[i, 2:], xs[i]]}")):
            check_associativity(S, ps, xs)
        ps[i, 0] = 0.0


@pytest.mark.parametrize("name, builds", [
    # the tables of S and of its bivector, read once from its coefficients
    ("lie-so3-trunc4", 2), ("kontsevich-order2", 2),
    # the tables of g, of S and of lift(g) (+) lift(g); the inverse lift's jets
    # solve through g's kernel, and the composite's bivector is read from its jets
    ("coordinate-change", 3),
], ids=list(BENCH_MONOIDS))
def test_checks_build_one_table_per_exponent_matrix(name, builds, table_builds):
    # the four checks ask each kernel for several orders; every order reads a
    # prefix of the kernel's one table, and the groupoid and Jacobi checks share
    # the bivector's
    S = BENCH_MONOIDS[name]()
    d = S.n
    ps, xs = sample_ball(2, d, 0.05, 0), sample_box(2, d, -0.25, 0.25, 1)
    table_builds.clear()
    check_unit(S, ps, xs)
    check_associativity(S, sample_ball(2, 3 * d, 0.05, 2), xs)
    check_groupoid(S, ps, xs)
    check_jacobi(S, xs)
    assert len(table_builds) == builds


def test_unit_and_groupoid_evaluate_their_paired_sides_as_one_stack(monkeypatch):
    # the coordinate-changed composite nests two solves per evaluation (its outer
    # lift starts at its explicit critical point and so evaluates the inner
    # composite once): stacking (p, 0) with (0, p), and alpha(s) with alpha(t),
    # halves the solves, and rows are solved independently, so each residual
    # equals its side-by-side formula
    g = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    C = change_coordinates(symplectic_monoid(2), Diffeo(g))
    ps, xs = sample_ball(3, 2, 0.05, 0), sample_box(3, 2, -0.25, 0.25, 1)
    zero = np.zeros_like(ps)
    px = np.array([a @ b for a, b in zip(ps, xs)])
    unit = np.maximum(np.abs(C.value(np.concatenate([ps, zero], axis=1), xs) - px),
                      np.abs(C.value(np.concatenate([zero, ps], axis=1), xs) - px))
    fld = PoissonField.from_monoid(C)
    (s, dps, dxs), (t, dpt, dxt) = source_target(C, ps, xs)
    bss = dxs @ dps.swapaxes(-1, -2) - dps @ dxs.swapaxes(-1, -2)
    btt = dxt @ dpt.swapaxes(-1, -2) - dpt @ dxt.swapaxes(-1, -2)
    bst = dxs @ dpt.swapaxes(-1, -2) - dps @ dxt.swapaxes(-1, -2)
    groupoid = [np.abs(bss - fld.matrix(s))[:, 0, 1], np.abs(btt + fld.matrix(t))[:, 0, 1],
                np.max(np.abs(bst), axis=(1, 2))]

    composition = sys.modules["symgf.compose"]
    solve, calls = composition._solve, []
    monkeypatch.setattr(composition, "_solve", lambda *a: calls.append(len(a[2])) or solve(*a))
    # a negative tolerance fails every point, so the reports list every residual
    rep = check_unit(C, ps, xs, tol=-1.0)
    assert len(calls) == 2
    calls.clear()
    reps = check_groupoid(C, ps, xs, tol=-1.0)
    assert len(calls) == 4
    for r, want in zip([rep, *reps], [unit, *groupoid], strict=True):
        assert np.array_equal([f["residual"] for f in r.failures], want), r.axiom
    # the two triple products as rows of one stack: every outer Newton iterate
    # re-solves the inner composites once for both sides, so the solves about halve
    p3s, axs = sample_ball(3, 6, 0.05, 2), sample_box(3, 2, -0.25, 0.25, 3)
    I = identity_genfun(2)
    calls.clear()
    sides = compose(C, tensor(C, I))(p3s, axs) - compose(C, tensor(I, C))(p3s, axs)
    assert (len(calls), sum(calls)) == (26, 78)
    calls.clear()
    rep = check_associativity(C, p3s, axs, tol=-1.0)
    # half the 26 solves, on the same rows: at the anchor the slot form's outer
    # operand reads C at momenta (0, c), not at 0, and C's own solve starts at
    # its explicit critical point there as at 0, so no side costs an iterate more
    assert (len(calls), sum(calls)) == (13, 78)
    np.testing.assert_allclose([f["residual"] for f in rep.failures], np.abs(sides),
                               rtol=0, atol=1e-15)
