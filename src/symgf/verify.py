"""Numerical verification of monoid and groupoid structure.

Every check samples a deterministic grid, measures a residual that the
exact structure would make vanish, and returns a :class:`VerificationReport`
(max/mean residual, sample count, failing points).  The canonical Poisson
bracket used by the groupoid checks carries the overall sign +1 (see
:func:`bracket_sign`), which every report records.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .compose import DEFAULT_NEWTON, compose
from .genfun import GenFun, identity_genfun, tensor
from .jets import Jet
from .monoids import PolyPoisson, jacobi_defect


# --------------------------------------------------------------------------
# Poisson fields and groupoid maps
# --------------------------------------------------------------------------

class PoissonField:
    """An antisymmetric bivector x -> alpha(x) with jet-evaluable entries.

    Entries are computed for the strict upper triangle only and mirrored,
    so antisymmetry is exact by construction regardless of the backend.
    """

    def __init__(self, d, backend, label=""):
        self.d = int(d)
        self._backend = backend  # (x, order) -> (upper (d,d), dupper (d,d,d) | None)
        self.label = label

    @classmethod
    def from_monoid(cls, S: GenFun):
        """Extract the bivector of a monoid genfun from its mixed momentum
        Hessian at p = 0: alpha^{ij} = S_{p1_i p2_j} - S_{p1_j p2_i}."""
        d = S.n
        if S.m != 2 * d:
            raise ValueError("bivector extraction expects a monoid-shaped genfun (m = 2n)")

        def backend(x, order):
            j = S.eval_jet(np.zeros(2 * d), x, 3 if order >= 1 else 2)
            alpha = np.zeros((d, d))
            dalpha = np.zeros((d, d, d)) if order >= 1 else None
            for i in range(d):
                for jj in range(i + 1, d):
                    v = j.hess[i, d + jj] - j.hess[jj, d + i]
                    alpha[i, jj] = v
                    alpha[jj, i] = -v
                    if order >= 1:
                        g = j.third[i, d + jj, 2 * d:] - j.third[jj, d + i, 2 * d:]
                        dalpha[i, jj] = g
                        dalpha[jj, i] = -g
            return alpha, dalpha

        return cls(d, backend, label=f"bivector[{S.label}]")

    @classmethod
    def from_poly(cls, poly: PolyPoisson):
        return cls(poly.d, poly.matrix_jet, label="poly-bivector")

    def matrix(self, x) -> np.ndarray:
        return self._backend(np.asarray(x, float), 0)[0]

    def with_derivatives(self, x):
        return self._backend(np.asarray(x, float), 1)

    def jacobi(self, x) -> float:
        """max |cyclic Jacobi sum| at one point."""
        return jacobi_defect(*self.with_derivatives(x))


def as_field(obj) -> PoissonField:
    if isinstance(obj, PoissonField):
        return obj
    if isinstance(obj, PolyPoisson):
        return PoissonField.from_poly(obj)
    if isinstance(obj, GenFun):
        return PoissonField.from_monoid(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a Poisson field")


class GroupoidMaps:
    """Source and target maps of a monoid genfun:

        s(p, x) = grad_{p2} S(p, 0, x),     t(p, x) = grad_{p1} S(0, p, x),

    with first derivatives with respect to (p, x) for bracket evaluation.
    """

    def __init__(self, S: GenFun):
        d = S.n
        if S.m != 2 * d:
            raise ValueError("source/target extraction expects a monoid-shaped genfun")
        self.S = S
        self.d = d

    def source(self, p, x) -> np.ndarray:
        return self.source_jet(p, x)[0]

    def target(self, p, x) -> np.ndarray:
        return self.target_jet(p, x)[0]

    def _jet(self, which, p, x):
        d = self.d
        pad = np.zeros(2 * d)
        if which == "s":
            pad[:d] = np.asarray(p, dtype=float).ravel()
            rows, pcols = slice(d, 2 * d), slice(0, d)
        else:
            pad[d:] = np.asarray(p, dtype=float).ravel()
            rows, pcols = slice(0, d), slice(d, 2 * d)
        j = self.S.eval_jet(pad, x, 2)
        return j.grad[rows].copy(), j.hess[rows, pcols].copy(), j.hess[rows, 2 * d:].copy()

    def source_jet(self, p, x):
        """(s(p,x), ds/dp, ds/dx)."""
        return self._jet("s", p, x)

    def target_jet(self, p, x):
        return self._jet("t", p, x)

    def component(self, which, i):
        """Component i of s or t as a jet-evaluable scalar of (p, x)."""
        def f(p, x):
            val, dp, dx = self._jet(which, p, x)
            return Jet(1, val[i], np.concatenate([dp[i], dx[i]]))
        return f


def source_target(S: GenFun) -> GroupoidMaps:
    return GroupoidMaps(S)


def poisson_bivector(S: GenFun) -> PoissonField:
    return PoissonField.from_monoid(S)


# --------------------------------------------------------------------------
# Canonical bracket
# --------------------------------------------------------------------------

def canonical_bracket(f, g, p, x, sign=None) -> float:
    """{f, g} at (p, x) for jet-evaluable scalars on phase space.

    Computed as sign * sum_i (df/dx_i dg/dp_i - df/dp_i dg/dx_i); the sign
    defaults to :func:`bracket_sign`.
    """
    if sign is None:
        sign = bracket_sign()
    p = np.asarray(p, dtype=float).ravel()
    d = p.shape[0]
    jf = f(p, x)
    jg = g(p, x)
    fp, fx = jf.grad[:d], jf.grad[d:]
    gp, gx = jg.grad[:d], jg.grad[d:]
    return sign * float(fx @ gp - fp @ gx)


def bracket_sign() -> int:
    """The orientation of the canonical bracket: +1.

    With this sign the groupoid identity {s_i, s_j} = alpha^{ij}(s) holds
    exactly on the closed-form symplectic monoid and fails with -1; the test
    suite re-derives it by that calibration.
    """
    return 1


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass
class VerificationReport:
    axiom: str
    max_residual: float
    mean_residual: float
    n: int
    failures: list
    bracket_sign: int
    tol: float | None = None
    grid: dict | None = dataclass_field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "max": self.max_residual,
            "mean": self.mean_residual,
            "n": self.n,
            "failures": [
                {"point": [float(v) for v in f["point"]], "residual": f["residual"]}
                for f in self.failures
            ],
            "bracket_sign": self.bracket_sign,
        }

    def summary_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.axiom:<24s} max {self.max_residual:.3e}  "
                f"mean {self.mean_residual:.3e}  n={self.n}")


def _make_report(axiom, points, residuals, tol, grid=None) -> VerificationReport:
    residuals = np.asarray(residuals, dtype=float)
    # written so that a NaN residual or tolerance fails
    failures = [
        {"point": list(np.asarray(points[i], float).ravel()), "residual": float(residuals[i])}
        for i in np.nonzero(~(residuals <= tol))[0]
    ]
    return VerificationReport(
        axiom=axiom,
        max_residual=float(np.max(residuals, initial=0.0)),
        mean_residual=float(np.mean(residuals)) if residuals.size else 0.0,
        n=int(residuals.size),
        failures=failures,
        bracket_sign=bracket_sign(),
        tol=tol,
        grid=grid,
    )


# --------------------------------------------------------------------------
# The checks
# --------------------------------------------------------------------------

def check_unit(S: GenFun, ps, xs, tol=1e-10) -> VerificationReport:
    """S(p, 0, x) = S(0, p, x) = <p, x> over paired samples (ps[i], xs[i])."""
    d = S.n
    res = []
    pts = []
    zero = np.zeros(d)
    for p, x in zip(np.atleast_2d(ps), np.atleast_2d(xs)):
        px = float(p @ x)
        left = S.value(np.concatenate([p, zero]), x)
        right = S.value(np.concatenate([zero, p]), x)
        res.append(max(abs(left - px), abs(right - px)))
        pts.append(np.concatenate([p, x]))
    return _make_report("unit", pts, res, tol)


def check_associativity(S: GenFun, ps, xs, tol=1e-9,
                        opts=DEFAULT_NEWTON) -> VerificationReport:
    """Compare the two triple products through the composition engine.

    ``ps[i]`` holds a momentum triple (3d coordinates), ``xs[i]`` a base
    point; the residual is the difference of S o (S (x) I) and
    S o (I (x) S) at that sample.
    """
    d = S.n
    I = identity_genfun(d)
    left = compose(S, tensor(S, I), opts)
    right = compose(S, tensor(I, S), opts)
    res = []
    pts = []
    for p, x in zip(np.atleast_2d(ps), np.atleast_2d(xs)):
        res.append(abs(left(p, x) - right(p, x)))
        pts.append(np.concatenate([p, x]))
    return _make_report("associativity", pts, res, tol)


GROUPOID_AXIOMS = ("source-poisson", "target-anti-poisson", "source-target-commute")


def check_groupoid(S: GenFun, ps, xs, tol=1e-10, field=None):
    """The three bracket identities of the source/target maps.

    Returns three reports (source brackets reproduce the bivector, target
    brackets reproduce its negative, source components commute with target
    components), all evaluated with the canonical bracket.  ``tol`` is one
    tolerance for all three or a mapping with one per name in
    :data:`GROUPOID_AXIOMS`.
    """
    tols = tol if isinstance(tol, Mapping) else dict.fromkeys(GROUPOID_AXIOMS, tol)
    d = S.n
    gm = GroupoidMaps(S)
    fld = as_field(field if field is not None else S)
    upper = np.triu_indices(d, 1)
    res_ss, res_tt, res_st = [], [], []
    pts = []
    for p, x in zip(np.atleast_2d(ps), np.atleast_2d(xs)):
        s, dps, dxs = gm.source_jet(p, x)
        t, dpt, dxt = gm.target_jet(p, x)
        # canonical brackets of all component pairs:
        # {f_i, g_j} = (Df_x Dg_p^T - Df_p Dg_x^T)[i, j]
        bss = dxs @ dps.T - dps @ dxs.T
        btt = dxt @ dpt.T - dpt @ dxt.T
        bst = dxs @ dpt.T - dps @ dxt.T
        res_ss.append(float(np.max(np.abs(bss - fld.matrix(s))[upper], initial=0.0)))
        res_tt.append(float(np.max(np.abs(btt + fld.matrix(t))[upper], initial=0.0)))
        res_st.append(float(np.max(np.abs(bst), initial=0.0)))
        pts.append(np.concatenate([p, x]))
    return [_make_report(axiom, pts, res, tols[axiom])
            for axiom, res in zip(GROUPOID_AXIOMS, (res_ss, res_tt, res_st))]


def check_jacobi(field, xs, tol=1e-10) -> VerificationReport:
    fld = as_field(field)
    res = []
    pts = []
    for x in np.atleast_2d(xs):
        res.append(fld.jacobi(x))
        pts.append(x)
    return _make_report("jacobi", pts, res, tol)


def check_morphism(F: GenFun, S_M: GenFun, S_N: GenFun, ps, xs, tol=1e-9,
                   opts=DEFAULT_NEWTON) -> VerificationReport:
    """F is a morphism of monoids when F o S_M = S_N o (F (x) F).

    ``ps[i]`` holds a momentum pair for the M side (2 * d_M coordinates),
    ``xs[i]`` a base point on the N side (d_N coordinates).
    """
    left = compose(F, S_M, opts)
    right = compose(S_N, tensor(F, F), opts)
    res = []
    pts = []
    for p, x in zip(np.atleast_2d(ps), np.atleast_2d(xs)):
        res.append(abs(left(p, x) - right(p, x)))
        pts.append(np.concatenate([p, x]))
    return _make_report("morphism", pts, res, tol)


def check_poisson_map(phi, source_field, target_field, xs, tol=1e-8) -> VerificationReport:
    """phi pushes the source bivector to the target one:
    alpha_target(phi(x)) = Dphi alpha_source(x) Dphi^T."""
    src = as_field(source_field)
    dst = as_field(target_field)
    res = []
    pts = []
    for x in np.atleast_2d(xs):
        mj = phi.jet(x, 1)
        lhs = dst.matrix(mj.value)
        rhs = mj.jac @ src.matrix(x) @ mj.jac.T
        res.append(float(np.max(np.abs(lhs - rhs), initial=0.0)))
        pts.append(x)
    return _make_report("poisson-map", pts, res, tol)
