"""Acceptance battery: one test per headline claim, one printed verdict line each.

Each test prints ``[criterion N] PASS/FAIL — summary`` on the live terminal
(bypassing capture) so a full run shows the eight verdicts at a glance.
Tolerances are the contract; grids are deterministic scrambled-Halton sets.
"""
import numpy as np
import pytest

from symgf import (Diffeo, LieStructure, PoissonField, PolyMap, PolyPoisson,
                   abelian_monoid, base_map, change_coordinates,
                   check_associativity, check_groupoid, check_jacobi,
                   check_morphism, check_poisson_map, check_unit, compose,
                   cotangent_lift, fit_tree_weights, identity_genfun,
                   kontsevich_monoid, lie_monoid, poisson_bivector, poly_genfun,
                   sample_ball, sample_box, source_target, standard_bivector, stationary_point,
                   symplectic_monoid, tensor, truncated_group_law)
from symgf.cli import main as cli_main
from symgf.maps import InverseMap
from symgf.monoids import Order2GateError, TreeWeightFit

from conftest import fd_grad, fd_jac
from oracles import builtin_rep, group_law_poly_eval, group_log


def _conclude(capsys, num, desc, checks):
    """checks: list of (ok, detail). Prints the verdict line, then asserts."""
    ok = all(c for c, _ in checks)
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {desc}")
        for good, detail in checks:
            print(f"    {'ok  ' if good else 'BAD '} {detail}")
    assert ok, f"criterion {num} failed: " + "; ".join(d for c, d in checks if not c)


# -------------------------------------------------------------------------

def test_criterion_1_symplectic_monoid_closed_forms(capsys):
    checks = []
    for d in (2, 4):
        S = symplectic_monoid(d)
        J = standard_bivector(d)
        ps = sample_ball(100, d, 0.3, 0)
        xs = sample_box(100, d, -1.0, 1.0, 1)
        unit = check_unit(S, ps, xs, tol=1e-12)
        checks.append((unit.max_residual < 1e-12,
                       f"d={d} unit max {unit.max_residual:.2e} < 1e-12"))
        p3s = sample_ball(60, 3 * d, 0.3, 2)
        axs = sample_box(60, d, -1.0, 1.0, 3)
        assoc = check_associativity(S, p3s, axs, tol=1e-10)
        checks.append((assoc.max_residual < 1e-10,
                       f"d={d} associativity max {assoc.max_residual:.2e} < 1e-10"))
        field = poisson_bivector(S)
        worst_alpha = max(np.max(np.abs(field.matrix(x) - J)) for x in xs[:20])
        checks.append((worst_alpha < 1e-12,
                       f"d={d} bivector vs Jinv {worst_alpha:.2e} < 1e-12"))
        worst_st = 0.0
        for p, x in zip(ps[:50], xs[:50]):
            (s, _, _), (t, _, _) = source_target(S, p, x)
            worst_st = max(worst_st,
                           np.max(np.abs(s - (x - 0.5 * J @ p))),
                           np.max(np.abs(t - (x + 0.5 * J @ p))),
                           np.max(np.abs((s - t) + J @ p)))
        checks.append((worst_st < 1e-12,
                       f"d={d} source/target closed form {worst_st:.2e} < 1e-12"))
    _conclude(capsys, 1, "symplectic monoid: unit, associativity, bivector, "
              "source/target closed forms", checks)


def test_criterion_2_groupoid_bracket_identities(capsys):
    checks = []
    S = symplectic_monoid(2)
    ps = sample_ball(80, 2, 0.3, 0)
    xs = sample_box(80, 2, -1.0, 1.0, 1)
    for rep in check_groupoid(S, ps, xs, tol=1e-12):
        checks.append((rep.max_residual < 1e-12,
                       f"symplectic {rep.axiom} max {rep.max_residual:.2e} < 1e-12"))
    Sl = lie_monoid(LieStructure.so3(), trunc=4)
    lps = sample_ball(50, 3, 0.08, 4)
    lxs = sample_box(50, 3, -1.0, 1.0, 5)
    r1 = max(r.max_residual for r in check_groupoid(Sl, lps, lxs, tol=np.inf))
    r2 = max(r.max_residual for r in check_groupoid(Sl, 0.5 * lps, 0.5 * lxs, tol=np.inf))
    ratio = r1 / r2
    checks.append((12.8 < ratio < 19.2,
                   f"so(3) trunc-4 residual halving ratio {ratio:.3f} in 16 +/- 20% "
                   f"(joint (p, x) halving; the defect is bidegree (1,3) in (x, p))"))
    _conclude(capsys, 2, "groupoid bracket identities: exact for symplectic, "
              "fourth-order truncation scaling for so(3)", checks)


def test_criterion_3_group_law_oracle(capsys):
    checks = []
    us = sample_ball(20, 3, 0.2, 9)
    vs = sample_ball(20, 3, 0.2, 10)

    def worst_err(name, trunc, scale):
        st = getattr(LieStructure, name)()
        rep = builtin_rep(name)
        A = truncated_group_law(st, trunc)
        w = 0.0
        for u, v in zip(us, vs):
            truth = group_log(rep, scale * u, scale * v)
            w = max(w, np.max(np.abs(group_law_poly_eval(A, scale * u, scale * v) - truth)))
        return w

    for trunc in (2, 3, 4):
        e1, e2 = worst_err("so3", trunc, 1.0), worst_err("so3", trunc, 0.5)
        ratio = e1 / e2
        want = 2.0 ** (trunc + 1)
        checks.append((0.8 * want < ratio < 1.2 * want,
                       f"so(3) trunc {trunc}: halving ratio {ratio:.2f} "
                       f"in {want:.0f} +/- 20%"))
    for trunc in (2, 3, 4):
        e = worst_err("heisenberg", trunc, 1.0)
        checks.append((e < 1e-12,
                       f"heisenberg trunc {trunc}: series terminates, error "
                       f"{e:.2e} < 1e-12 (halving ratio undefined at 0/0)"))
    for name in ("so3", "heisenberg"):
        st = getattr(LieStructure, name)()
        field = poisson_bivector(lie_monoid(st, trunc=4))
        worst = 0.0
        for x in sample_box(20, 3, -1.0, 1.0, 11):
            want = np.einsum("kij,k->ij", st.c, x)
            worst = max(worst, np.max(np.abs(field.matrix(x) - want)))
        checks.append((worst < 1e-10,
                       f"{name}: extracted bivector is c^k_ij x_k to {worst:.2e} < 1e-10"))
    _conclude(capsys, 3, "truncated group law vs matrix-log oracle; "
              "linear bivector recovery", checks)


def test_criterion_4_semiclassical_expansion(capsys):
    checks = []
    # constant bivector, eps = 1: coefficient-for-coefficient the symplectic genfun
    J = standard_bivector(2)
    S_k = kontsevich_monoid(PolyPoisson.from_constant(J), eps=1.0, order=1)
    same = S_k.terms == symplectic_monoid(2).terms
    checks.append((same, "constant alpha at eps=1: term dictionary identical "
                   "to the symplectic monoid (exact)"))

    so3lin = PolyPoisson.linear_from_structure(LieStructure.so3())
    eps = 0.3
    field = poisson_bivector(kontsevich_monoid(so3lin, eps=eps, order=1))
    worst = 0.0
    for x in sample_box(20, 3, -1.0, 1.0, 3):
        want = eps * np.einsum("kij,k->ij", LieStructure.so3().c, x)
        worst = max(worst, np.max(np.abs(field.matrix(x) - want)))
    checks.append((worst < 1e-10, f"linear alpha: bivector = eps*alpha to "
                   f"{worst:.2e} < 1e-10"))

    def assoc_defect(alpha, eps, order, weights=None, n=40, seed=3):
        S = kontsevich_monoid(alpha, eps=eps, order=order, weights=weights)
        d = alpha.d
        p3s = sample_ball(n, 3 * d, 0.15, seed)
        axs = sample_box(n, d, -0.9, 0.9, seed + 1)
        return check_associativity(S, p3s, axs, tol=np.inf).max_residual

    r1 = assoc_defect(so3lin, 0.1, 1) / assoc_defect(so3lin, 0.05, 1)
    checks.append((3.5 < r1 < 4.5,
                   f"order 1: eps-halving defect ratio {r1:.3f} in 4 +/- 0.5"))

    fit = fit_tree_weights()
    checks.append((fit.passed and fit.floor < 1e-8,
                   f"order-2 weight fit floor {fit.floor:.2e} under the 1e-8 gate "
                   f"(c1 {fit.c1:+.6f}, c2 {fit.c2:+.6f})"))
    quad = PolyPoisson(2, {(0, 1): {(0, 0): 0.4, (1, 0): 0.3, (2, 0): 0.25}})
    r2 = (assoc_defect(quad, 0.1, 2, weights=(fit.c1, fit.c2))
          / assoc_defect(quad, 0.05, 2, weights=(fit.c1, fit.c2)))
    checks.append((7.0 < r2 < 9.0,
                   f"order 2 on quadratic alpha: eps-halving defect ratio "
                   f"{r2:.3f} in 8 +/- 1"))

    # a fit that misses its floor must refuse to build and say so
    bad_fit = TreeWeightFit(c1=0.0, c2=0.0, floor=1e-3, n_rows=8, seed=0)
    gate_ok = (not bad_fit.passed)
    try:
        raise Order2GateError(bad_fit)
    except Order2GateError as exc:
        gate_ok = gate_ok and exc.fit.floor == 1e-3 and "gate" in str(exc)
    checks.append((gate_ok, "fit floor above 1e-8 fails the gate and reports it"))
    _conclude(capsys, 4, "semiclassical monoid: symplectic reduction, bivector "
              "recovery, eps-scaling, order-2 weight gate", checks)


def test_criterion_5_composition_engine(capsys):
    checks = []
    # closed-form quadratic composition, jets to 1e-10
    a, c, g = 0.7, -0.4, 0.3
    F = poly_genfun({((1,), (1,)): 1.0, ((2,), (0,)): a / 2}, 1, 1)
    G = poly_genfun({((1,), (1,)): 1.0 + g, ((2,), (0,)): c / 2}, 1, 1)
    C = compose(F, G)
    worst = 0.0
    for p1, x3 in [(0.5, -0.8), (-1.2, 0.4), (0.9, 1.1)]:
        j = C.eval_jet(np.array([p1]), np.array([x3]), 2)
        k = (1 + g) ** 2 * a + c
        worst = max(worst,
                    abs(j.value - ((1 + g) * p1 * x3 + 0.5 * k * p1 * p1)),
                    abs(j.grad[0] - ((1 + g) * x3 + k * p1)),
                    abs(j.grad[1] - (1 + g) * p1),
                    abs(j.hess[0, 0] - k), abs(j.hess[0, 1] - (1 + g)),
                    abs(j.hess[1, 1]))
    checks.append((worst < 1e-10, f"closed-form quadratic jets to {worst:.2e} < 1e-10"))

    # derivative identities against finite differences
    from test_compose import _cubicish
    Fn, Gn = _cubicish(21, 2, 2), _cubicish(22, 2, 2)
    Cn = compose(Fn, Gn)
    z0 = np.array([0.11, -0.07, 0.25, 0.4])
    j = Cn.eval_jet(z0[:2], z0[2:], 2)
    gfd = fd_grad(lambda z: Cn.value(z[:2], z[2:]), z0)
    hfd = fd_jac(lambda z: Cn.eval_jet(z[:2], z[2:], 1).grad, z0, h=1e-5)
    fd_worst = max(np.max(np.abs(j.grad - gfd)), np.max(np.abs(j.hess - hfd)))
    checks.append((fd_worst < 1e-6,
                   f"finite-difference cross-check {fd_worst:.2e} < 1e-6"))

    # category laws on random triples
    law_worst = 0.0
    for seed in (3, 9):
        Fr = _cubicish(seed, 2, 2)
        Gr = _cubicish(seed + 50, 2, 2)
        Hr = _cubicish(seed + 100, 2, 2)
        lhs = compose(compose(Fr, Gr), Hr)
        rhs = compose(Fr, compose(Gr, Hr))
        lu = compose(identity_genfun(2), Fr)
        ru = compose(Fr, identity_genfun(2))
        for p, x in zip(sample_ball(5, 2, 0.15, seed), sample_box(5, 2, -0.5, 0.5, seed)):
            law_worst = max(law_worst, abs(lhs(p, x) - rhs(p, x)),
                            abs(lu(p, x) - Fr(p, x)), abs(ru(p, x) - Fr(p, x)))
    checks.append((law_worst < 1e-9,
                   f"category unit/associativity laws to {law_worst:.2e} < 1e-9"))

    iters = 0
    Cn2 = compose(_cubicish(51, 2, 2), _cubicish(52, 2, 2))
    for p, x in zip(sample_ball(12, 2, 0.2, 7), sample_box(12, 2, -0.6, 0.6, 8)):
        iters = max(iters, stationary_point(Cn2.F, Cn2.G, p, x, Cn2.opts).iterations)
    checks.append((iters <= 6, f"Newton iterations max {iters} <= 6"))
    _conclude(capsys, 5, "stationary-phase composition: closed form, FD jets, "
              "category laws, solver budget", checks)


def test_criterion_6_coordinate_covariance(capsys):
    checks = []
    g = PolyMap([{(1, 0): 1.0, (0, 2): 0.3}, {(0, 1): 1.0, (1, 1): -0.2}], d_in=2)
    S = symplectic_monoid(2)
    C = change_coordinates(S, Diffeo(g))
    fC = poisson_bivector(C)
    fS = poisson_bivector(S)
    ginv = InverseMap(g)
    ys = sample_box(100, 2, -0.25, 0.25, 5)
    qs = sample_ball(100, 2, 0.05, 6)
    worst_alpha = worst_st = 0.0
    for q, y in zip(qs, ys):
        x = ginv.jet(y, 0).value
        Dg = g.jet(x, 1).grad
        worst_alpha = max(worst_alpha,
                          np.max(np.abs(fC.matrix(y) - Dg @ fS.matrix(x) @ Dg.T)))
        p = Dg.T @ q
        worst_st = max(worst_st, *(np.max(np.abs(jC[0] - g.jet(jS[0], 0).value)) for jC, jS
                                   in zip(source_target(C, q, y), source_target(S, p, x))))
    checks.append((worst_alpha < 1e-8,
                   f"bivector conjugated by the Jacobian to {worst_alpha:.2e} < 1e-8 "
                   f"(100 points)"))
    checks.append((worst_st < 1e-8,
                   f"source/target conjugated by the cotangent lift to "
                   f"{worst_st:.2e} < 1e-8"))
    _conclude(capsys, 6, "covariance under quadratic coordinate changes", checks)


def test_criterion_7_morphism_functor(capsys):
    checks = []
    S2 = symplectic_monoid(2)
    shear = cotangent_lift(PolyMap.linear([[1.0, 1.0], [0.0, 1.0]]))
    stretch = cotangent_lift(PolyMap.linear([[2.0, 0.0], [0.0, 1.0]]))
    curved = cotangent_lift(PolyMap([{(1, 0): 1.0, (0, 2): 0.4},
                                     {(0, 1): 1.0, (2, 0): -0.3}], d_in=2))
    A2 = abelian_monoid(2)
    cases = [("linear symplectic shear", shear, S2, S2, True),
             ("area-doubling stretch", stretch, S2, S2, False),
             ("nonlinear lift between abelian monoids", curved, A2, A2, True)]
    ps = sample_ball(40, 4, 0.15, 0)
    xs = sample_box(40, 2, -0.8, 0.8, 1)
    pxs = sample_box(40, 2, -0.8, 0.8, 2)
    for name, F, SM, SN, expect in cases:
        morph = check_morphism(F, SM, SN, ps, xs, tol=1e-10)
        pmap = check_poisson_map(base_map(F), poisson_bivector(SN),
                                 poisson_bivector(SM), pxs, tol=1e-8)
        if expect:
            checks.append((morph.passed and pmap.passed,
                           f"{name}: morphism {morph.max_residual:.2e} < 1e-10 "
                           f"and base map Poisson {pmap.max_residual:.2e} < 1e-8"))
        else:
            checks.append((morph.max_residual > 1e-4 and pmap.max_residual > 1e-4,
                           f"{name}: fails morphism ({morph.max_residual:.2e}) and "
                           f"Poisson-map ({pmap.max_residual:.2e}) checks"))
        # the implication itself: morphism at 1e-10 => base map Poisson at 1e-8
        checks.append(((not morph.passed) or pmap.passed,
                       f"{name}: morphism pass implies Poisson-map pass"))
    _conclude(capsys, 7, "morphisms push the bivector forward: positive and "
              "negative controls", checks)


def test_criterion_8_negative_controls_and_exit_codes(capsys, tmp_path):
    from symgf.serialize import dump, genfun_to_dict
    checks = []
    S = symplectic_monoid(2)
    ps = sample_ball(30, 2, 0.1, 0)
    xs = sample_box(30, 2, -1.0, 1.0, 1)
    p3s = sample_ball(30, 6, 0.1, 2)
    axs = sample_box(30, 2, -1.0, 1.0, 3)

    terms_u = dict(S.terms)
    for i in range(2):
        pe = [0, 0, 0, 0]
        pe[i] = 1
        xe = [0, 0]
        xe[i] = 1
        terms_u[(tuple(pe), tuple(xe))] = 1.01
    unit_broken = poly_genfun(terms_u, 4, 2, label="unit-broken")
    u = check_unit(unit_broken, ps, xs, tol=1e-4)
    clean = check_groupoid(unit_broken, ps, xs, tol=1e-12)[0]
    checks.append((u.max_residual > 1e-4 and clean.passed,
                   f"unit corruption: unit residual {u.max_residual:.2e} > 1e-4, "
                   f"source bracket identity stays clean"))

    terms_a = dict(S.terms)
    terms_a[((1, 1, 1, 0), (0, 1))] = 4.0
    assoc_broken = poly_genfun(terms_a, 4, 2, label="assoc-broken")
    a = check_associativity(assoc_broken, p3s, axs, tol=1e-4)
    a_unit = check_unit(assoc_broken, ps, xs, tol=1e-12)
    checks.append((a.max_residual > 1e-4 and a_unit.passed,
                   f"associativity corruption: defect {a.max_residual:.2e} > 1e-4, "
                   f"unit law untouched"))

    bad_alpha = PolyPoisson(3, {(0, 1): {(2, 0, 0): 1.0}, (0, 2): {(0, 1, 0): 1.0},
                                (1, 2): {(1, 0, 0): 1.0}})
    jac = check_jacobi(bad_alpha, sample_box(30, 3, -1.0, 1.0, 4), tol=1e-4)
    try:
        kontsevich_monoid(bad_alpha, eps=0.1)
        refused = False
    except ValueError:
        refused = True
    checks.append((jac.max_residual > 1e-4 and refused,
                   f"Jacobi corruption: residual {jac.max_residual:.2e} > 1e-4 "
                   f"and the monoid builder refuses it"))

    code0 = cli_main(["verify", "--builtin", "symplectic", "--grid-n", "25"])
    broken_path = tmp_path / "assoc_broken.json"
    dump(genfun_to_dict(assoc_broken), broken_path)
    code1 = cli_main(["verify", "--monoid", str(broken_path), "--grid-n", "25"])
    code2 = cli_main(["verify", "--monoid", str(tmp_path / "missing.json")])
    checks.append((code0 == 0 and code1 == 1 and code2 == 2,
                   f"exit codes: pass={code0} (want 0), violation={code1} (want 1), "
                   f"bad input={code2} (want 2)"))
    _conclude(capsys, 8, "corrupted inputs fail their intended axiom; CLI exit "
              "codes honor the contract", checks)
