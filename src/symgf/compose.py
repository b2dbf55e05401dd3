"""Composition of generating functions by stationary phase.

The composite of F (momenta in R^k, base R^n) with G (momenta in R^m, base
R^k) is

    (F o G)(p1, x3) = stat value of  F(pb, x3) + G(p1, xb) - <pb, xb>

over the intermediate pair (pb, xb), where "stat" means evaluation at the
critical point

    pb = grad_x G(p1, xb),        xb = grad_p F(pb, xb -> x3).

The critical point is found by damped Newton from the canonical anchor
pb = 0, xb = grad_p F(0, x3).  For normalized operands the anchor is the
exact critical point at p1 = 0, where Newton stops before its first step
and the stationary value is exactly 0: the composite is normalized by
construction and no constant is subtracted from its values.  Newton
evaluates the operands once per iterate, at order 2, and the solve returns
the jets of its accepted iterate: the composite reads value, gradient and
Hessian off them, and only order 3 evaluates the operands again.  First
derivatives of the composite come from the envelope identities

    grad_p (F o G) = grad_p G(p1, xb),   grad_x (F o G) = grad_x F(pb, x3),

and second/third derivatives by implicit differentiation of the critical
equations, so a composite is itself a full jet-evaluable GenFun and can be
composed again.

Newton runs on stacks of points: a grid is solved as one stack, each point
with its own iterate, line search and convergence test, and points that
direct Newton cannot solve are continued by homotopy as a sub-stack.  A
single point is a stack of one.  When points fail, the error raised names
the first of them in stack order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genfun import GenFun
from .jets import Jet, jet_add, jet_embed

__all__ = [
    "NewtonOptions", "StationaryPoint", "CompositionError", "ConvergenceError",
    "DegeneracyError", "BranchJumpError", "stationary_point", "compose",
    "ComposedGenFun", "change_coordinates", "Diffeo",
]

DAMPING = 0.5       # backtracking factor of the Newton line search
COND_LIMIT = 1e10   # a Jacobian worse conditioned than this is degenerate
BRANCH_TOL = 1e-6   # relative distance at which direct Newton and homotopy disagree


class CompositionError(RuntimeError):
    pass


class ConvergenceError(CompositionError):
    """Newton failed to reach the stationary point."""


class DegeneracyError(CompositionError):
    """The critical-point system is (numerically) degenerate: the
    transversality assumption behind the composition fails at this point."""


class BranchJumpError(ConvergenceError):
    """Direct Newton and homotopy continuation disagree: the iteration
    jumped off the principal solution branch."""


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-12
    max_iter: int = 50
    homotopy_steps: int = 10


DEFAULT_NEWTON = NewtonOptions()


@dataclass
class StationaryPoint:
    p_mid: np.ndarray
    x_mid: np.ndarray
    iterations: int
    residual: float
    condition: float


def _residual_and_jac(F, G, P1, X3, Z, jF=None):
    """Residuals ``(B, 2k)``, Jacobians ``(B, 2k, 2k)`` and the order-2
    operand jets of the critical-point systems at a stack of iterates."""
    k = F.m
    if jF is None:
        jF = F.eval_jet(Z[:, :k], X3, 2)
    jG = G.eval_jet(P1, Z[:, k:], 2)
    r = np.concatenate([
        Z[:, :k] - jG.grad[:, G.m:],          # pb - grad_x G(p1, xb)
        Z[:, k:] - jF.grad[:, :k],            # xb - grad_p F(pb, x3)
    ], axis=1)
    J = np.zeros((len(Z), 2 * k, 2 * k))
    J.reshape(len(Z), -1)[:, ::2 * k + 1] = 1.0
    J[:, :k, k:] = -jG.hess[:, G.m:, G.m:]
    J[:, k:, :k] = -jF.hess[:, :k, :k]
    return r, J, (jF, jG)


def _put(dst, rows, src, sel=slice(None)):
    """Copy rows ``sel`` of the stacked order-2 jets ``src`` into rows
    ``rows`` of ``dst``."""
    for d, s in zip(dst, src):
        d.value[rows] = s.value[sel]
        d.grad[rows] = s.grad[sel]
        d.hess[rows] = s.hess[sel]


def _at(P1, X3, i):
    return f"at p1={P1[i]}, x3={X3[i]}"


@dataclass
class _Solution:
    """Per-point results of a stacked solve: iterates ``Z (B, 2k)``,
    iterations, final residuals, condition numbers, the order-2 operand
    jets of the accepted iterates, and the error that ended each point's
    solve (None where it converged)."""

    Z: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    conditions: np.ndarray
    jets: tuple
    errors: list

    def solved(self) -> np.ndarray:
        return np.array([i for i, e in enumerate(self.errors) if e is None], dtype=int)

    def checked(self) -> _Solution:
        """Raise the error of the first failing point, if any."""
        for err in self.errors:
            if err is not None:
                raise err
        return self

    def put(self, rows, other: _Solution):
        """Overwrite the points ``rows`` with the points of ``other``."""
        self.Z[rows] = other.Z
        self.iterations[rows] = other.iterations
        self.residuals[rows] = other.residuals
        self.conditions[rows] = other.conditions
        _put(self.jets, rows, other.jets)
        for i, e in zip(rows, other.errors):
            self.errors[i] = e


def _phase_condition(J):
    """2-norm condition numbers of Jacobians ``[[I, -G_xx], [-F_pp, I]]`` from the eigenvalues
    of the symmetric phase Hessian their column-block swap gives (Golub & Van Loan, 8.6)."""
    k = J.shape[-1] // 2
    lam = np.abs(np.linalg.eigvalsh(np.concatenate([J[..., k:], J[..., :k]], axis=-1)))
    with np.errstate(divide="ignore"):
        return lam.max(axis=-1) / lam.min(axis=-1)


def _damped_newton(system, Z, opts, label, at, cond, start=None) -> _Solution:
    """Damped Newton on a stack of square systems from the iterates ``Z (B, q)``.

    ``system(rows, Z)`` gives residuals ``(b, q)``, Jacobians ``(b, q, q)``
    and a tuple of stacked order-2 jets (maybe empty) for the points
    ``rows`` at ``Z``; ``start`` is that triple at ``Z``, if known.  Every
    point keeps its own iterate, backtracking line search and convergence
    test, and ``cond`` checks the conditioning of all active Jacobians at
    every iterate (a non-finite one has condition inf).  A point that is
    degenerate, finds no descent step or runs out of iterations records its
    error, named by ``at(i)``, and the rest go on.
    """
    B = len(Z)
    z = np.array(Z, dtype=float)
    r, J, jets = system(slice(None), z) if start is None else start
    sol = _Solution(z, np.zeros(B, dtype=int), np.zeros(B), np.ones(B), jets, [None] * B)
    act = list(range(B))  # the points still iterating, in stack order
    sel = slice(None)     # act as an index; a slice while it holds every point
    for it in range(opts.max_iter + 1):
        going, rn = [], []
        Ja = J[sel]
        finite = np.isfinite(Ja).all(axis=(1, 2))
        conds = np.full(finite.size, np.inf)
        conds[finite] = cond(Ja[finite])
        for i, c, e in zip(act, conds.tolist(), np.abs(r[sel]).max(axis=1).tolist()):
            sol.iterations[i], sol.residuals[i], sol.conditions[i] = it, e, c
            if not (math.isfinite(c) and c <= COND_LIMIT):
                sol.errors[i] = DegeneracyError(
                    f"{label} system is degenerate (condition {c:.3e} "
                    f"exceeds {COND_LIMIT:.1e}) {at(i)}")
            elif e <= opts.tol:
                pass
            elif it == opts.max_iter:
                sol.errors[i] = ConvergenceError(
                    f"{label} Newton did not reach tol {opts.tol:.1e} in "
                    f"{opts.max_iter} iterations (residual {e:.3e}) {at(i)}")
            else:
                going.append(i)
                rn.append(e)
        if len(going) < len(act):
            act, sel = going, np.array(going, dtype=int)
        if not act:
            break
        step = np.linalg.solve(J[sel], -r[sel][:, :, None])[:, :, 0]
        # backtracking per point; the accepted trial's (r, J, jets) serve
        # the next iterate
        search, lam = sel, [1.0] * len(act)
        while True:
            zt = z[search] + np.array(lam)[:, None] * step
            rt, Jt, jt = system(search, zt)
            ok = [a <= (1.0 - 0.5 * s) * b
                  for a, s, b in zip(np.abs(rt).max(axis=1).tolist(), lam, rn)]
            if all(ok):
                z[search], r[search], J[search] = zt, rt, Jt
                _put(jets, search, jt)
                break
            okm = np.array(ok)
            pos = np.arange(B)[search]
            z[pos[okm]], r[pos[okm]], J[pos[okm]] = zt[okm], rt[okm], Jt[okm]
            _put(jets, pos[okm], jt, okm)
            retry = []
            for j in np.flatnonzero(~okm).tolist():
                if lam[j] < 1e-6:
                    sol.errors[pos[j]] = ConvergenceError(
                        f"{label} Newton found no descent step down to damping "
                        f"1e-6 (residual {rn[j]:.3e}) {at(pos[j])}")
                else:
                    retry.append(j)
            if not retry:
                break
            search, step = pos[retry], step[retry]
            lam = [lam[j] * DAMPING for j in retry]
            rn = [rn[j] for j in retry]
        if any(sol.errors[i] is not None for i in act):
            act = [i for i in act if sol.errors[i] is None]
            sel = np.array(act, dtype=int)
    return sol


def _newton(F, G, P1, X3, opts, Z=None) -> _Solution:
    """:func:`_damped_newton` on the critical-point systems at a stack of
    points ``(P1[i], X3[i])``, from the anchors or from the iterates ``Z``."""
    jF = None
    if Z is None:
        # the anchor pb = 0, xb = grad_p F(0, x3); its F jet serves iterate 0
        jF = F.eval_jet(np.zeros((len(P1), F.m)), X3, 2)
        Z = np.concatenate([np.zeros((len(P1), F.m)), jF.grad[:, :F.m]], axis=1)
    return _damped_newton(
        lambda rows, Zr: _residual_and_jac(F, G, P1[rows], X3[rows], Zr),
        Z, opts, "stationary-point", lambda i: _at(P1, X3, i), _phase_condition,
        _residual_and_jac(F, G, P1, X3, Z, jF))


def _homotopy(F, G, P1, X3, opts) -> _Solution:
    """Continuation in the incoming momenta from 0 to p1, warm-started, on a
    stack; iterations are summed over the continuation steps."""
    steps = max(1, opts.homotopy_steps)
    sol = _newton(F, G, 1 / steps * P1, X3, opts)
    for s in range(2, steps + 1):
        live = sol.solved()
        if not live.size:
            break
        nxt = _newton(F, G, s / steps * P1[live], X3[live], opts, sol.Z[live])
        nxt.iterations += sol.iterations[live]
        sol.put(live, nxt)
    return sol


def _solve(F, G, P1, X3, opts, check_branch=False) -> _Solution:
    """Solve the critical-point systems of F o G at a stack of points.

    Points on which direct Newton fails to converge are continued by
    homotopy as a sub-stack.  If any point fails for good, the error of the
    first such point in stack order is raised.
    """
    sol = _newton(F, G, P1, X3, opts)
    direct = sol.solved()
    stray = np.array([i for i, e in enumerate(sol.errors) if isinstance(e, ConvergenceError)],
                     dtype=int)
    if stray.size and opts.homotopy_steps > 0:
        sol.put(stray, _homotopy(F, G, P1[stray], X3[stray], opts))
    if check_branch and direct.size:
        ref = _homotopy(F, G, P1[direct], X3[direct], opts)
        for i, z, zh, err in zip(direct, sol.Z[direct], ref.Z, ref.errors):
            if err is None and (np.linalg.norm(z - zh, ord=np.inf)
                                > BRANCH_TOL * (1.0 + np.linalg.norm(z, ord=np.inf))):
                err = BranchJumpError(
                    f"direct Newton landed on a different branch than the "
                    f"homotopy continuation {_at(P1, X3, i)}")
            sol.errors[i] = err
    return sol.checked()


def stationary_point(F: GenFun, G: GenFun, p1, x3,
                     opts: NewtonOptions = DEFAULT_NEWTON,
                     check_branch: bool = False) -> StationaryPoint:
    """Solve the critical-point system of the composition F o G at (p1, x3).

    Damped Newton from the canonical anchor; if that fails and
    ``opts.homotopy_steps > 0``, a continuation in p1 is tried.  With
    ``check_branch=True`` the continuation is always run and a disagreement
    with direct Newton raises :class:`BranchJumpError`.  The point is solved
    as a stack of one by the same stacked solver that composites use for
    grids.
    """
    if F.m != G.n:
        raise ValueError(
            f"cannot compose: F has {F.m} momenta but G has base dimension {G.n}")
    p1 = np.asarray(p1, dtype=float).ravel()
    x3 = np.asarray(x3, dtype=float).ravel()
    sol = _solve(F, G, p1[None], x3[None], opts, check_branch)
    k, z = F.m, sol.Z[0]
    return StationaryPoint(z[:k].copy(), z[k:].copy(), int(sol.iterations[0]),
                           float(sol.residuals[0]), float(sol.conditions[0]))


class ComposedGenFun(GenFun):
    """The composite F o G as a lazily evaluated generating function.

    Normalization is exact by construction: at p = 0 Newton starts at the
    anchor, which is already the critical point of normalized operands, so
    S(0, x) = 0 and grad_x S(0, x) = 0 hold without any correction and
    nothing is subtracted from the stationary value.
    """

    def __init__(self, F: GenFun, G: GenFun, opts: NewtonOptions = DEFAULT_NEWTON,
                 label=""):
        if F.m != G.n:
            raise ValueError(
                f"cannot compose: F has {F.m} momenta but G has base dimension {G.n}")
        radius = 0.5 * min(F.domain_radius, G.domain_radius)
        if not np.isfinite(radius):
            radius = np.inf
        super().__init__(G.m, F.n, radius, label or f"({F.label}) o ({G.label})")
        self.F = F
        self.G = G
        self.opts = opts

    def stationary(self, p, x, check_branch=False) -> StationaryPoint:
        return stationary_point(self.F, self.G, p, x, self.opts, check_branch)

    def renorm_constant(self, x) -> float:
        """The composite value at p = 0; exactly 0.0 for normalized operands."""
        # a diagnostic kept by name: perfbench/tracer.py patches it
        return self.eval_jet(np.zeros(self.m), x, 0).value

    def eval_jet(self, p, x, order) -> Jet:
        p1, x3 = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
        if p1.ndim < 2:
            # one point is row 0 of a stack of one
            j = self.eval_jet(p1.ravel()[None], x3.ravel()[None], order)
            return Jet(order, j.value[0], *(t[0] for t in (j.grad, j.hess, j.third)[:order]))
        F, G, k = self.F, self.G, self.F.m
        m, n = self.m, self.n
        sol = _solve(F, G, p1, x3, self.opts)
        pm, xm = sol.Z[:, :k], sol.Z[:, k:]
        # <pb, xb> row by row with @: an einsum over the rows rounds differently
        pair = np.array([a @ b for a, b in zip(pm, xm)])
        # orders 0-2 read the solve's operand jets at the critical point
        jF, jG = sol.jets if order <= 2 else (F.eval_jet(pm, x3, 3), G.eval_jet(p1, xm, 3))
        out = Jet(order, jF.value + jG.value - pair)
        if order == 0:
            return out
        # envelope identities give the exact first derivatives
        out.grad = np.concatenate([jG.grad[..., :m], jF.grad[..., k:]], axis=-1)
        if order == 1:
            return out
        # Hessian of L(pb, xb, p1, x3) = F(pb, x3) + G(p1, xb) - <pb, xb>
        nv = 2 * k + m + n
        idx_F = list(range(k)) + list(range(2 * k + m, nv))
        idx_G = list(range(2 * k, 2 * k + m)) + list(range(k, 2 * k))
        L = jet_add(jet_embed(jF, idx_F, nv), jet_embed(jG, idx_G, nv))
        for i in range(k):
            L.hess[..., i, k + i] -= 1.0
            L.hess[..., k + i, i] -= 1.0
        Lzz = L.hess[..., :2 * k, :2 * k]
        Lzu = L.hess[..., :2 * k, 2 * k:]
        try:
            zu = -np.linalg.solve(Lzz, Lzu)
        except np.linalg.LinAlgError as exc:
            at = _at(p1, x3, int(np.argmax(np.linalg.cond(Lzz))))
            raise DegeneracyError(f"second-derivative block is singular {at}") from exc
        E = np.zeros(zu.shape[:-2] + (nv, m + n))
        E[..., :2 * k, :] = zu
        E[..., 2 * k:, :] = np.eye(m + n)
        out.hess = E.swapaxes(-1, -2) @ L.hess @ E
        if order >= 3:
            out.third = np.einsum("...abc,...ai,...bj,...ck->...ijk", L.third, E, E, E,
                                  optimize=True)
        return out


def compose(F: GenFun, G: GenFun, opts: NewtonOptions = DEFAULT_NEWTON,
            label="") -> ComposedGenFun:
    """The composition F o G (F applied after G)."""
    return ComposedGenFun(F, G, opts, label)


@dataclass
class Diffeo:
    """A diffeomorphism given by a jet-evaluable forward map; the inverse
    is computed on demand (Newton plus implicit differentiation) unless an
    explicit inverse map is supplied."""

    forward: object
    inverse: object = None

    def __post_init__(self):
        if self.forward.d_in != self.forward.d_out:
            raise ValueError("a diffeomorphism must preserve dimension")
        if self.inverse is None:
            from .maps import InverseMap
            self.inverse = InverseMap(self.forward)


def change_coordinates(S: GenFun, diffeo: Diffeo,
                       opts: NewtonOptions = DEFAULT_NEWTON) -> ComposedGenFun:
    """Transport a monoid genfun on R^d to the coordinates y = g(x).

    Conjugates by cotangent lifts:  lift(g^{-1}) o S o (lift(g) (+) lift(g)).
    The result is again monoid-shaped; its bivector is the pushforward of
    the original one along g.
    """
    from .genfun import cotangent_lift, tensor

    d = S.n
    if S.m != 2 * d:
        raise ValueError("change_coordinates expects a monoid-shaped genfun (m = 2n)")
    lift_fwd = cotangent_lift(diffeo.forward, label="lift-fwd")
    lift_inv = cotangent_lift(diffeo.inverse, label="lift-inv")
    if lift_fwd.m != d:
        raise ValueError("diffeo dimension does not match the monoid base")
    inner = compose(S, tensor(lift_fwd, lift_fwd), opts)
    return compose(lift_inv, inner, opts, label=f"({S.label}) in new coordinates")
