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
construction and no constant is subtracted from its values.  A
momentum-linear F = <pb, psi(x3)> (a cotangent lift) has grad_p F free of pb,
so Newton starts at the explicit critical point xb = psi(x3), pb = grad_x G(p1,
xb), where the residual is exactly 0, and takes 0 iterations; so it does,
for any other F, when G is base-linear (x-degree <= 1): grad_x G is free of
xb, and pb = grad_x G(p1, 0), xb = grad_p F(pb, x3).  Newton
evaluates the operands once per iterate, at order 2, F by rows of one
evaluator at its fixed base points x3 per stacked solve (``F.at_base``);
the composite reads orders 0-2 off the accepted iterate's jets.  First
derivatives of the composite come from the envelope identities

    grad_p (F o G) = grad_p G(p1, xb),   grad_x (F o G) = grad_x F(pb, x3),

and second/third derivatives by implicit differentiation of the critical
equations, so a composite is itself a full jet-evaluable GenFun and can be
composed again.

Newton runs on stacks of points: a grid is solved as one stack, each point
with its own iterate, line search and convergence test.  A single point is
a stack of one.  A composite is a germ near the zero section, so the
critical point that defines it is the one on the branch through the anchor,
and a point that Newton from the anchor cannot solve fails: there is no
fallback.  When points fail, the error raised names the first of them in
stack order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genfun import GenFun, cotangent_lift, tensor
from .jets import Jet, jet_sum
from .maps import InverseMap

__all__ = [
    "NewtonOptions", "StationaryPoint", "CompositionError", "ConvergenceError",
    "DegeneracyError", "stationary_point", "compose",
    "ComposedGenFun", "change_coordinates", "Diffeo",
]

DAMPING = 0.5       # backtracking factor of the Newton line search
COND_LIMIT = 1e10   # a Jacobian worse conditioned than this is degenerate
CERTIFIED = 0.75    # ||J - I||_2 <= this bounds cond_2(J) by (1 + 3/4) / (1 - 3/4) = 7


class CompositionError(RuntimeError):
    pass


class ConvergenceError(CompositionError):
    """Newton failed to reach the stationary point."""


class DegeneracyError(CompositionError):
    """The critical-point system is (numerically) degenerate: the
    transversality assumption behind the composition fails at this point."""


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-12
    max_iter: int = 50


DEFAULT_NEWTON = NewtonOptions()


@dataclass
class StationaryPoint:
    """One solved critical point; ``condition`` is exact (``np.linalg.cond``) or a bound <= 7."""

    p_mid: np.ndarray
    x_mid: np.ndarray
    iterations: int
    residual: float
    condition: float


def _residual_and_jac(G, P1, Z, jF, jG=None):
    """Residuals ``(B, 2k)``, Jacobians ``(B, 2k, 2k)`` and the order-2 operand
    jets of the critical-point systems at a stack of iterates, from the order-2
    jets ``jF`` of F at ``(pb, x3)`` and ``jG`` of G at ``(p1, xb)`` (evaluated if not given)."""
    k = G.n
    if jG is None:
        jG = G.eval_jet(P1, Z[:, k:], 2)
    with np.errstate(invalid="ignore"):  # inf - inf: the solver classifies non-finite points
        r = np.concatenate([
            Z[:, :k] - jG.grad[:, G.m:],          # pb - grad_x G(p1, xb)
            Z[:, k:] - jF.grad[:, :k],            # xb - grad_p F(pb, x3)
        ], axis=1)
    J = np.zeros((len(Z), 2 * k, 2 * k))
    J.reshape(len(Z), -1)[:, ::2 * k + 1] = 1.0
    J[:, :k, k:] = -jG.hess[:, G.m:, G.m:]
    J[:, k:, :k] = -jF.hess[:, :k, :k]
    return r, J, (jF, jG)


def _pair(u, v):
    """<u[i], v[i]> for each row i, as a stack of (1, k) @ (k, 1) products:
    each rounds as u[i] @ v[i] does; an einsum over the rows rounds differently."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _at(P1, X3, i):
    return f"at p1={P1[i]}, x3={X3[i]}"


@dataclass
class _Solution:
    """Per-point results of one stacked damped Newton: iterates ``Z (B, q)``, iterations,
    final residuals, condition numbers (``np.linalg.cond``'s, or the certified bound <= 7, see
    :func:`_damped_newton`), the stacked order-2 jets of the accepted iterates (maybe none),
    and the error that ended each point's solve (None where it converged)."""

    Z: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    conditions: np.ndarray
    jets: tuple
    errors: list

    def checked(self) -> _Solution:
        """Raise the error of the first failing point, if any."""
        for err in self.errors:
            if err is not None:
                raise err
        return self


def _damped_newton(system, Z, opts, label, at, start=None) -> _Solution:
    """Damped Newton on a stack of square systems from the iterates ``Z (B, q)``.

    ``system(rows, Z)`` gives residuals ``(b, q)``, Jacobians ``(b, q, q)``
    and a tuple of stacked order-2 jets (maybe empty) for the points
    ``rows`` at ``Z``; ``start`` is that triple at ``Z``, if known.  Every
    point keeps its own iterate, backtracking line search and convergence test.  At each
    iterate a live Jacobian whose bound nu = sqrt(||J - I||_1 ||J - I||_inf) >= ||J - I||_2 is
    at most ``CERTIFIED`` gets the condition bound (1 + nu) / (1 - nu); the other rows, of
    any system, take ``np.linalg.cond`` (a non-finite one has condition inf).  A point that is
    degenerate, finds no descent step or runs out of iterations records its error, named by
    ``at(i)``; the rest go on.
    """
    B = len(Z)
    z = np.array(Z, dtype=float)
    r, J, jets = system(slice(None), z) if start is None else start
    sol = _Solution(z, np.zeros(B, dtype=int), np.zeros(B), np.ones(B), jets, [None] * B)
    rows = np.arange(B)  # the points still iterating, in stack order
    for it in range(opts.max_iter + 1):
        Ja = J[rows]
        D = np.abs(Ja - np.eye(Ja.shape[-1]))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            nu = np.sqrt(D.sum(axis=1).max(axis=1) * D.sum(axis=2).max(axis=1))
            exact = ~(nu <= CERTIFIED)  # huge or non-finite rows fail the bound too
            conds = np.where(exact, np.inf, (1.0 + nu) / (1.0 - nu))
        if exact.any():
            exact &= np.isfinite(Ja).all(axis=(1, 2))
            conds[exact] = np.linalg.cond(Ja[exact])
        res = np.abs(r[rows]).max(axis=1)
        sol.iterations[rows], sol.residuals[rows], sol.conditions[rows] = it, res, conds
        bad = ~(conds <= COND_LIMIT)
        for i, c in zip(rows[bad].tolist(), conds[bad].tolist()):
            sol.errors[i] = DegeneracyError(
                f"{label} system is degenerate (condition {c:.3e} "
                f"exceeds {COND_LIMIT:.1e}) {at(i)}")
        going = ~(bad | (res <= opts.tol))
        if it == opts.max_iter:
            for i, e in zip(rows[going].tolist(), res[going].tolist()):
                sol.errors[i] = ConvergenceError(
                    f"{label} Newton did not reach tol {opts.tol:.1e} in "
                    f"{opts.max_iter} iterations (residual {e:.3e}) {at(i)}")
            break
        rows, rn = rows[going], res[going]
        if not rows.size:
            break
        step = np.linalg.solve(J[rows], -r[rows][:, :, None])[:, :, 0]
        # backtracking: the points still searching share one damping lam,
        # and the accepted trial's (r, J, jets) serve the next iterate
        search, lam = rows, 1.0
        while search.size:
            zt = z[search] + lam * step
            rt, Jt, jt = system(search, zt)
            ok = np.abs(rt).max(axis=1) <= (1.0 - 0.5 * lam) * rn
            acc, fail = search[ok], ~ok
            z[acc], r[acc], J[acc] = zt[ok], rt[ok], Jt[ok]
            for d, t in zip(jets, jt):
                d.value[acc], d.grad[acc], d.hess[acc] = t.value[ok], t.grad[ok], t.hess[ok]
            search, step, rn = search[fail], step[fail], rn[fail]
            if lam < 1e-6:
                for i, e in zip(search.tolist(), rn.tolist()):
                    sol.errors[i] = ConvergenceError(
                        f"{label} Newton found no descent step down to damping "
                        f"1e-6 (residual {e:.3e}) {at(i)}")
                rows = np.setdiff1d(rows, search, assume_unique=True)
                break
            lam *= DAMPING
    return sol


def _restrict(Fev, rows):
    """The evaluator ``Fev`` on the base points ``rows`` (an index array) of its stack."""
    return lambda r, P, o: Fev(rows[r], P, o)


def _solve(Fev, G, P1, X3, opts, linear) -> _Solution:
    """:func:`_damped_newton` on the critical-point systems of F o G at a stack of points
    ``(P1[i], X3[i])``, from the explicit critical points if F is momentum-linear
    (``linear``) or G base-linear, else from the anchors; ``Fev`` is F at ``X3``.
    If any point fails, the error of the first such point in stack order is raised."""
    k, Z = G.n, np.zeros((len(P1), 2 * G.n))
    if G.base_linear and not linear:  # grad_x G is free of xb, so pb = grad_x G(p1, 0) is final
        Z[:, :k] = G.eval_jet(P1, Z[:, k:], 1).grad[:, G.m:]
    # xb = grad_p F(pb, x3), the anchor's at pb = 0; the jets there serve iterate 0
    jF = Fev(slice(None), Z[:, :k], 2)
    Z[:, k:] = jF.grad[:, :k]
    jG = G.eval_jet(P1, Z[:, k:], 2)
    if linear:  # grad_p F is free of pb, so xb is final and pb = grad_x G(p1, xb)
        Z[:, :k] = jG.grad[:, G.m:]
        jF = Fev(slice(None), Z[:, :k], 2)
    return _damped_newton(
        lambda rows, Zr: _residual_and_jac(G, P1[rows], Zr, Fev(rows, Zr[:, :k], 2)),
        Z, opts, "stationary-point", lambda i: _at(P1, X3, i),
        _residual_and_jac(G, P1, Z, jF, jG)).checked()


def stationary_point(F: GenFun, G: GenFun, p1, x3,
                     opts: NewtonOptions = DEFAULT_NEWTON) -> StationaryPoint:
    """Solve the critical-point system of the composition F o G at (p1, x3).

    Damped Newton from the canonical anchor, or from the explicit critical
    point when F is momentum-linear or G base-linear.  The point is the
    composite's stacked solve on a stack of one.  A degenerate system raises
    :class:`DegeneracyError` and a failed solve :class:`ConvergenceError`.
    """
    row = [np.asarray(a, dtype=float).reshape(1, -1) for a in (p1, x3)]
    sol = compose(F, G, opts)._solve_jet(*row, 0)[1]
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
        super().__init__(G.m, F.n, 0.5 * min(F.domain_radius, G.domain_radius),
                         label or f"({F.label}) o ({G.label})")
        self.F = F
        self.G = G
        self.opts = opts

    def renorm_constant(self, x) -> float:
        """The composite value at p = 0; exactly 0.0 for normalized operands."""
        # a diagnostic kept by name: perfbench/tracer.py patches it
        return self.eval_jet(np.zeros(self.m), x, 0).value

    def _jet(self, P, X, order) -> Jet:
        return self._solve_jet(P, X, order)[0]

    def at_base(self, X, order):
        Fev, idx = self.F.at_base(X, max(order, 2)), np.arange(len(X))
        return lambda rows, P, o: self._solve_jet(P, X[rows], o, _restrict(Fev, idx[rows]))[0]

    def _solve_jet(self, p1, x3, order, Fev=None) -> tuple[Jet, _Solution]:
        """The jet at a stack of points and the solve it was read from."""
        F, G, k, m, n = self.F, self.G, self.F.m, self.m, self.n
        Fev = Fev or F.at_base(x3, max(order, 2))
        sol = _solve(Fev, G, p1, x3, self.opts, F.momentum_linear)
        pm, xm = sol.Z[:, :k], sol.Z[:, k:]
        # orders 0-2 read the solve's operand jets at the critical point
        jF, jG = sol.jets if order <= 2 else (Fev(slice(None), pm, 3), G.eval_jet(p1, xm, 3))
        out = Jet(order, jF.value + jG.value - _pair(pm, xm))
        if order == 0:
            return out, sol
        # envelope identities give the exact first derivatives
        out.grad = np.concatenate([jG.grad[..., :m], jF.grad[..., k:]], axis=-1)
        if order == 1:
            return out, sol
        # Hessian of L(pb, xb, p1, x3) = F(pb, x3) + G(p1, xb) - <pb, xb>
        nv = 2 * k + m + n
        L = jet_sum(nv, (jF, np.r_[:k, 2 * k + m:nv]), (jG, np.r_[2 * k:2 * k + m, k:2 * k]))
        for i in range(k):
            L.hess[..., i, k + i] -= 1.0
            L.hess[..., k + i, i] -= 1.0
        # L_zz is the accepted iterate's Jacobian up to signed block swaps: cond <= COND_LIMIT
        zu = -np.linalg.solve(L.hess[..., :2 * k, :2 * k], L.hess[..., :2 * k, 2 * k:])
        E = np.zeros(zu.shape[:-2] + (nv, m + n))
        E[..., :2 * k, :] = zu
        E[..., 2 * k:, :] = np.eye(m + n)
        out.hess = E.swapaxes(-1, -2) @ L.hess @ E
        if order >= 3:
            out.third = np.einsum("...abc,...ai,...bj,...ck->...ijk", L.third, E, E, E,
                                  optimize=True)
        return out, sol


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
            self.inverse = InverseMap(self.forward)


def change_coordinates(S: GenFun, diffeo: Diffeo,
                       opts: NewtonOptions = DEFAULT_NEWTON) -> ComposedGenFun:
    """Transport a monoid genfun on R^d to the coordinates y = g(x).

    Conjugates by cotangent lifts:  lift(g^{-1}) o S o (lift(g) (+) lift(g)).
    The result is again monoid-shaped; its bivector is the pushforward of
    the original one along g.
    """
    d = S.n
    if S.m != 2 * d:
        raise ValueError("change_coordinates expects a monoid-shaped genfun (m = 2n)")
    lift_fwd = cotangent_lift(diffeo.forward, label="lift-fwd")
    lift_inv = cotangent_lift(diffeo.inverse, label="lift-inv")
    if lift_fwd.m != d:
        raise ValueError("diffeo dimension does not match the monoid base")
    inner = compose(S, tensor(lift_fwd, lift_fwd), opts)
    return compose(lift_inv, inner, opts, label=f"({S.label}) in new coordinates")
