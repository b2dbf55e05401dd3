"""Numerical verification of monoid and groupoid structure.

Every check samples a deterministic grid, measures a residual that the
exact structure would make vanish, and returns a :class:`VerificationReport`
(max/mean residual, sample count, failing points).  All checks walk their
grids through one sweep, :func:`_sweep`: it evaluates the check's residual
on stacks of at most :data:`BLOCK` points and builds the reports.  The
canonical Poisson bracket used by the groupoid checks carries the overall
sign +1 (see :func:`bracket_sign`), which every report records.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .compose import DEFAULT_NEWTON, _pair, compose
from .genfun import GenFun, tensor
from .monoids import PolyPoisson, jacobi_defect

# Points per stacked evaluation in the blocked checks, a bound on memory:
# associativity solves a block's two products as one stack of 2 * BLOCK rows,
# whose traced peak on the order-2 Kontsevich monoid grows with the block,
# 0.21 / 0.73 MB at 8 / 32 samples (tracemalloc).
BLOCK = 32


# --------------------------------------------------------------------------
# Poisson fields and groupoid maps
# --------------------------------------------------------------------------

class PoissonField:
    """An antisymmetric bivector x -> alpha(x) with jet-evaluable entries.

    Every backend builds alpha^{ji} as the negative of alpha^{ij}, so
    antisymmetry is exact by construction.  ``x`` may be one point ``(d,)``
    or a stack ``(B, d)``.
    """

    def __init__(self, d, backend):
        self.d = int(d)
        self._backend = backend  # (x, order) -> (alpha (..,d,d), dalpha (..,d,d,d) | None)

    @classmethod
    def from_monoid(cls, S: GenFun):
        """Extract the bivector of a monoid genfun from its mixed momentum
        Hessian at p = 0: alpha^{ij} = S_{p1_i p2_j} - S_{p1_j p2_i}."""
        d = S.n
        if S.m != 2 * d:
            raise ValueError("bivector extraction expects a monoid-shaped genfun (m = 2n)")

        def backend(x, order):
            j = S.eval_jet(np.zeros(x.shape[:-1] + (2 * d,)), x, 3 if order >= 1 else 2)
            A = j.hess[..., :d, d:2 * d]
            T = j.third[..., :d, d:2 * d, 2 * d:] if order >= 1 else None
            return A - A.swapaxes(-1, -2), None if T is None else T - T.swapaxes(-3, -2)

        return cls(d, backend)

    @classmethod
    def from_poly(cls, poly: PolyPoisson):
        return cls(poly.d, poly.matrix_jet)

    def matrix(self, x) -> np.ndarray:
        return self._backend(np.asarray(x, float), 0)[0]

    def with_derivatives(self, x):
        return self._backend(np.asarray(x, float), 1)


def as_field(obj) -> PoissonField:
    if isinstance(obj, PoissonField):
        return obj
    if isinstance(obj, PolyPoisson):
        return PoissonField.from_poly(obj)
    if isinstance(obj, GenFun):
        return PoissonField.from_monoid(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a Poisson field")


def source_target(S: GenFun, p, x):
    """The jets (value, d/dp, d/dx) of the source and target maps of a monoid genfun,

        s(p, x) = grad_{p2} S(p, 0, x),     t(p, x) = grad_{p1} S(0, p, x),

    at (p, x), from one evaluation of S on the momentum pads (p, 0) and (0, p)
    stacked.  ``p`` and ``x`` may be one point ``(d,)`` each or stacks ``(B, d)``.
    """
    d = S.n
    if S.m != 2 * d:
        raise ValueError("source/target extraction expects a monoid-shaped genfun")
    lead = (2,) + np.shape(p)[:-1]
    # p sits at column c of each pad; its map reads the momentum half left at 0
    pad = np.zeros(lead + (2 * d,))
    pad[0, ..., :d] = pad[1, ..., d:] = p
    x = np.broadcast_to(np.asarray(x, dtype=float), lead + (d,))
    j = S.eval_jet(pad.reshape(-1, 2 * d), x.reshape(-1, d), 2)
    g, h = (a.reshape(lead + a.shape[1:]) for a in (j.grad, j.hess))
    return tuple((g[k, ..., d - c:2 * d - c], h[k, ..., d - c:2 * d - c, c:c + d],
                  h[k, ..., d - c:2 * d - c, 2 * d:]) for k, c in enumerate((0, d)))


def poisson_bivector(S: GenFun) -> PoissonField:
    return PoissonField.from_monoid(S)


# --------------------------------------------------------------------------
# Canonical bracket
# --------------------------------------------------------------------------

def _brackets(f, g):
    """Canonical brackets {f_i, g_j} of all component pairs of two stacked
    jets ``(value, d/dp, d/dx)``: bracket_sign() * (Df_x Dg_p^T - Df_p Dg_x^T)."""
    _, fp, fx = f
    _, gp, gx = g
    return bracket_sign() * (fx @ gp.swapaxes(-1, -2) - fp @ gx.swapaxes(-1, -2))


def canonical_bracket(f, g, p, x) -> float:
    """{f, g} at (p, x) for jet-evaluable scalars on phase space:
    bracket_sign() * sum_i (df/dx_i dg/dp_i - df/dp_i dg/dx_i)."""
    p = np.asarray(p, dtype=float).ravel()
    d = p.shape[0]
    jf, jg = ((j.value, j.grad[None, :d], j.grad[None, d:]) for j in (f(p, x), g(p, x)))
    return float(_brackets(jf, jg)[0, 0])


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

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        """A non-finite residual or point coordinate is written as "nan", "inf" or "-inf"."""
        def num(v):
            return float(v) if np.isfinite(v) else str(float(v))

        return {
            "axiom": self.axiom,
            "max": num(self.max_residual),
            "mean": num(self.mean_residual),
            "n": self.n,
            "failures": [
                {"point": [num(v) for v in f["point"]], "residual": num(f["residual"])}
                for f in self.failures
            ],
            "bracket_sign": self.bracket_sign,
        }

    def summary_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.axiom:<24s} max {self.max_residual:.3e}  "
                f"mean {self.mean_residual:.3e}  n={self.n}")


# --------------------------------------------------------------------------
# The checks
# --------------------------------------------------------------------------

def _sweep(tols, residuals, *samples) -> list:
    """One report per axiom of ``tols`` (an axiom -> tolerance dict).

    Cuts the sample stacks into row-aligned blocks of at most :data:`BLOCK`
    rows, in grid order, over as many rows as the shortest holds, and calls
    ``residuals(*block)`` once per block for one per-point array per axiom,
    joined over the blocks once.
    Each point is recorded as its sample rows joined.
    """
    samples = [np.atleast_2d(s) for s in samples]
    n = min(len(s) for s in samples)
    samples = [s[:n] for s in samples]
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or inf residual fails below
        blocks = [residuals(*(s[i:i + BLOCK] for s in samples)) for i in range(0, n, BLOCK)]
    points = np.concatenate(samples, axis=1)
    reports = []
    for k, (axiom, tol) in enumerate(tols.items()):
        r = np.concatenate([np.empty(0)] + [b[k] for b in blocks])  # an empty grid too
        # written so that a NaN residual or tolerance fails
        failures = [
            {"point": list(np.asarray(points[i], float)), "residual": float(r[i])}
            for i in np.nonzero(~(r <= tol))[0]
        ]
        reports.append(VerificationReport(
            axiom=axiom,
            max_residual=float(np.max(r, initial=0.0)),
            mean_residual=float(np.mean(r)) if r.size else 0.0,
            n=int(r.size),
            failures=failures,
            bracket_sign=bracket_sign(),
            tol=tol,
        ))
    return reports


def check_unit(S: GenFun, ps, xs, tol=1e-10) -> VerificationReport:
    """S(p, 0, x) = S(0, p, x) = <p, x> over paired samples (ps[i], xs[i])."""
    def residual(p, x):
        px, zero = _pair(p, x), np.zeros_like(p)
        left, right = np.split(S.value(np.block([[p, zero], [zero, p]]), np.concatenate([x, x])), 2)
        return (np.maximum(np.abs(left - px), np.abs(right - px)),)

    return _sweep({"unit": tol}, residual, ps, xs)[0]


def _associativity_defect(S: GenFun, opts=DEFAULT_NEWTON):
    """``defect(ps, xs)``: S o (S (x) I) - S o (I (x) S) at each sample, as the
    gap of adjacent rows (p, x), (rot p, x) of one stacked solve of
    S o (S (x) I) in its slot form, whose outer operand acts as S^op on the
    rotated rows (see :func:`check_associativity`): 2 rows per sample.
    """
    d = S.n
    # the outer operand S(q, c; x), momenta q over the base (c, x): only a
    # shape, since its evaluator is always passed
    C = compose(GenFun(d, 2 * d), S, opts)
    swap = np.r_[d:2 * d, :d, 2 * d:3 * d]  # the variables of S^op in S's order
    # swap the jet axes of the orders the solve reads (F at order 2)
    grids = [(slice(None),) + np.ix_(*(swap,) * q) for q in (1, 2)]

    def defect(p, x):
        P = np.stack([p, np.roll(p, -d, axis=1)], axis=1).reshape(-1, 3 * d)
        X = np.concatenate([P[:, 2 * d:], np.repeat(x, 2, axis=0)], axis=1)
        S_at, idx = S.at_base(x, 2), np.arange(len(X))

        def Fev(rows, Q, o):
            flip, Q = idx[rows] % 2 == 1, np.concatenate([Q, X[rows, :d]], axis=1)
            j = S_at(idx[rows] // 2, np.where(flip[:, None], Q[:, swap[:2 * d]], Q), o)
            for t, grid in zip((j.grad, j.hess)[:o], grids):
                t[flip] = t[flip][grid]
            return j

        v = C._solve_jet(P[:, :2 * d], X, 0, Fev)[0].value
        return v[0::2] - v[1::2]

    return defect


def check_associativity(S: GenFun, ps, xs, tol=1e-9,
                        opts=DEFAULT_NEWTON) -> VerificationReport:
    """Compare the two triple products through the composition engine.

    ``ps[i]`` holds a momentum triple (3d coordinates), ``xs[i]`` a base
    point; the residual is |S o (S (x) I) - S o (I (x) S)| at that sample.
    The identity factor composes away: (S o (S (x) I))(a, b, c; x) is the
    stationary value over (q, y) of S(q, c; x) + S(a, b; y) - <q, y>, the
    composite of S with S read on its first momentum slot over the base
    (c, x).  Swapping the halves of the intermediate pair, which keeps
    <pb, xb>, gives (S o (I (x) S))(p1, p2, p3; x) = (S^op o (S (x) I))(p2, p3, p1; x)
    with S^op(a, b; x) = S(b, a; x), associative or not; so both products
    are rows of one stacked solve in d unknown pairs, one solve per sweep
    block of at most :data:`BLOCK` samples (2 * BLOCK rows).  A solve error
    names p1 = (a, b) and x3 = (c, x), rotated on a right-product row.
    """
    defect = _associativity_defect(S, opts)
    return _sweep({"associativity": tol}, lambda p, x: (np.abs(defect(p, x)),), ps, xs)[0]


GROUPOID_AXIOMS = ("source-poisson", "target-anti-poisson", "source-target-commute")


def check_groupoid(S: GenFun, ps, xs, tol=1e-10):
    """The three bracket identities of the source/target maps.

    Returns three reports (source brackets reproduce the bivector, target
    brackets reproduce its negative, source components commute with target
    components), all evaluated with the canonical bracket.  ``tol`` is one
    tolerance for all three or a mapping with one per name in
    :data:`GROUPOID_AXIOMS`.
    """
    tols = {a: tol[a] if isinstance(tol, Mapping) else tol for a in GROUPOID_AXIOMS}
    fld = PoissonField.from_monoid(S)
    iu, ju = np.triu_indices(S.n, 1)

    def residuals(p, x):
        js, jt = source_target(S, p, x)
        alpha_s, alpha_t = np.split(fld.matrix(np.concatenate([js[0], jt[0]])), 2)
        bss, btt, bst = _brackets(js, js), _brackets(jt, jt), _brackets(js, jt)
        return (np.max(np.abs(bss - alpha_s)[:, iu, ju], axis=1, initial=0.0),
                np.max(np.abs(btt + alpha_t)[:, iu, ju], axis=1, initial=0.0),
                np.max(np.abs(bst), axis=(1, 2), initial=0.0))

    return _sweep(tols, residuals, ps, xs)


def check_jacobi(field, xs, tol=1e-10) -> VerificationReport:
    """The cyclic Jacobi sum of the bivector vanishes at every sample."""
    fld = as_field(field)

    def residual(x):
        return (jacobi_defect(*fld.with_derivatives(x), axis=(1, 2, 3)),)

    return _sweep({"jacobi": tol}, residual, xs)[0]


def check_morphism(F: GenFun, S_M: GenFun, S_N: GenFun, ps, xs, tol=1e-9,
                   opts=DEFAULT_NEWTON) -> VerificationReport:
    """F is a morphism of monoids when F o S_M = S_N o (F (x) F).

    ``ps[i]`` holds a momentum pair for the M side (2 * d_M coordinates),
    ``xs[i]`` a base point on the N side (d_N coordinates).
    """
    left, right = compose(F, S_M, opts), compose(S_N, tensor(F, F), opts)
    return _sweep({"morphism": tol}, lambda p, x: (np.abs(left(p, x) - right(p, x)),),
                  ps, xs)[0]


def check_poisson_map(phi, source_field, target_field, xs, tol=1e-8) -> VerificationReport:
    """phi pushes the source bivector to the target one:
    alpha_target(phi(x)) = Dphi alpha_source(x) Dphi^T at every sample."""
    source, target = as_field(source_field), as_field(target_field)

    def residual(x):
        mj = phi.jet(x, 1)
        rhs = mj.grad @ source.matrix(x) @ mj.grad.swapaxes(-1, -2)
        return (np.max(np.abs(target.matrix(mj.value) - rhs), axis=(1, 2), initial=0.0),)

    return _sweep({"poisson-map": tol}, residual, xs)[0]
