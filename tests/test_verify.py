import numpy as np
import pytest

from symgf import (GroupoidMaps, LieStructure, PoissonField, PolyPoisson,
                   bracket_sign, canonical_bracket, check_associativity,
                   check_groupoid, check_jacobi, check_unit, lie_monoid,
                   poisson_bivector, poly_genfun, sample_ball, sample_box,
                   source_target, standard_bivector, symplectic_monoid)
from symgf.jets import Jet


def test_bracket_sign_calibrates_positive():
    # {s_i, s_j} = alpha^{ij}(s) holds exactly on the closed-form symplectic
    # monoid for one sign only; it must be the constant bracket_sign()
    S = symplectic_monoid(2)
    gm = GroupoidMaps(S)
    field = PoissonField.from_monoid(S)
    pts = [(np.array([0.07, -0.04]), np.array([0.31, -0.22])),
           (np.array([-0.05, 0.09]), np.array([-0.6, 0.45]))]
    worst = {1: 0.0, -1: 0.0}
    for sgn in (1, -1):
        for p, x in pts:
            a = field.matrix(gm.source(p, x))
            b = canonical_bracket(gm.component("s", 0), gm.component("s", 1), p, x, sign=sgn)
            worst[sgn] = max(worst[sgn], abs(b - a[0, 1]))
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
    gm = source_target(S)
    J = standard_bivector(2)
    p = np.array([0.25, -0.12])
    x = np.array([0.7, 0.4])
    np.testing.assert_allclose(gm.source(p, x), x - 0.5 * J @ p, atol=1e-14)
    np.testing.assert_allclose(gm.target(p, x), x + 0.5 * J @ p, atol=1e-14)


def test_symplectic_bivector_is_jinv():
    S = symplectic_monoid(4)
    field = poisson_bivector(S)
    J = standard_bivector(4)
    for x in sample_box(5, 4, -1.0, 1.0, 0):
        np.testing.assert_allclose(field.matrix(x), J, atol=1e-14)


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
        GroupoidMaps(identity_genfun(2))
    with pytest.raises(ValueError):
        PoissonField.from_monoid(identity_genfun(2))


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
    # NaN > tol is False: the verdict must not rest on that comparison
    def backend(x, order):
        return np.full((2, 2), x[0]), np.full((2, 2, 2), x[0])

    field = PoissonField(2, backend)
    rep = check_jacobi(field, [[0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0]], tol=1.0)
    assert not rep.passed
    assert [f["point"][0] for f in rep.failures] == pytest.approx([np.nan, np.inf],
                                                                  nan_ok=True)
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


def test_associativity_violation_detected():
    S = symplectic_monoid(2)
    terms = dict(S.terms)
    terms[((1, 1, 1, 0), (0, 1))] = 4.0  # dies at p1=0 or p2=0, breaks assoc
    broken = poly_genfun(terms, 4, 2, label="assoc-broken")
    ps = sample_ball(30, 2, 0.1, 0)
    xs = sample_box(30, 2, -1.0, 1.0, 1)
    assert check_unit(broken, ps, xs, tol=1e-12).passed
    p3s = sample_ball(30, 6, 0.1, 2)
    axs = sample_box(30, 2, -1.0, 1.0, 3)
    rep = check_associativity(broken, p3s, axs, tol=1e-4)
    assert not rep.passed
    assert rep.max_residual > 1e-4
