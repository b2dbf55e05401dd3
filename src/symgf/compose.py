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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .genfun import GenFun
from .jets import Jet, jet_add, jet_embed

__all__ = [
    "NewtonOptions", "StationaryPoint", "CompositionError", "ConvergenceError",
    "DegeneracyError", "BranchJumpError", "stationary_point", "compose",
    "ComposedGenFun", "change_coordinates", "Diffeo",
]


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
    damping: float = 0.5
    cond_limit: float = 1e10
    homotopy_steps: int = 10
    branch_tol: float = 1e-6


DEFAULT_NEWTON = NewtonOptions()


@dataclass
class StationaryPoint:
    p_mid: np.ndarray
    x_mid: np.ndarray
    iterations: int
    residual: float
    condition: float
    # order-2 jets (F at (p_mid, x3), G at (p1, x_mid)) of the accepted iterate
    jets: tuple | None = field(default=None, repr=False)


def _residual_and_jac(F, G, p1, x3, z, jF=None):
    k = F.m
    if jF is None:
        jF = F.eval_jet(z[:k], x3, 2)
    jG = G.eval_jet(p1, z[k:], 2)
    r = np.concatenate([
        z[:k] - jG.grad[G.m:],          # pb - grad_x G(p1, xb)
        z[k:] - jF.grad[:k],            # xb - grad_p F(pb, x3)
    ])
    J = np.eye(2 * k)
    J[:k, k:] = -jG.hess[G.m:, G.m:]
    J[k:, :k] = -jF.hess[:k, :k]
    return r, J, (jF, jG)


def _newton(F, G, p1, x3, opts, z0=None):
    k, jF = F.m, None
    if z0 is None:
        # the anchor pb = 0, xb = grad_p F(0, x3); its F jet serves iterate 0
        jF = F.eval_jet(np.zeros(k), x3, 2)
        z0 = np.concatenate([np.zeros(k), jF.grad[:k]])
    z = np.array(z0, dtype=float)
    r, J, jets = _residual_and_jac(F, G, p1, x3, z, jF)
    cond = 1.0
    for it in range(opts.max_iter + 1):
        rn = np.linalg.norm(r, ord=np.inf)
        cond = np.linalg.cond(J)
        if not np.isfinite(cond) or cond > opts.cond_limit:
            raise DegeneracyError(
                f"critical-point system is degenerate (condition {cond:.3e} "
                f"exceeds {opts.cond_limit:.1e}) at p1={p1}, x3={x3}"
            )
        if rn <= opts.tol:
            return z, it, rn, cond, jets
        if it == opts.max_iter:
            break
        step = np.linalg.solve(J, -r)
        lam = 1.0
        while True:
            # the accepted trial's (r, J, jets) serve the next iterate
            z_try = z + lam * step
            r, J, jets = _residual_and_jac(F, G, p1, x3, z_try)
            if np.linalg.norm(r, ord=np.inf) <= (1.0 - 0.5 * lam) * rn or lam < 1e-6:
                break
            lam *= opts.damping
        z = z_try
    raise ConvergenceError(
        f"stationary-point Newton did not reach tol {opts.tol:.1e} in "
        f"{opts.max_iter} iterations (residual {rn:.3e}) at p1={p1}, x3={x3}"
    )


def _homotopy(F, G, p1, x3, opts):
    """Continuation in the incoming momenta from 0 to p1, warm-started."""
    steps = max(1, opts.homotopy_steps)
    z = None
    total_it = 0
    for s in range(1, steps + 1):
        tau = s / steps
        z, it, rn, cond, jets = _newton(F, G, tau * np.asarray(p1, float), x3, opts, z0=z)
        total_it += it
    return z, total_it, rn, cond, jets


def stationary_point(F: GenFun, G: GenFun, p1, x3,
                     opts: NewtonOptions = DEFAULT_NEWTON,
                     check_branch: bool = False) -> StationaryPoint:
    """Solve the critical-point system of the composition F o G at (p1, x3).

    Damped Newton from the canonical anchor; if that fails and
    ``opts.homotopy_steps > 0``, a continuation in p1 is tried.  With
    ``check_branch=True`` the continuation is always run and a disagreement
    with direct Newton raises :class:`BranchJumpError`.
    """
    if F.m != G.n:
        raise ValueError(
            f"cannot compose: F has {F.m} momenta but G has base dimension {G.n}")
    p1 = np.asarray(p1, dtype=float).ravel()
    x3 = np.asarray(x3, dtype=float).ravel()
    try:
        z, it, rn, cond, jets = _newton(F, G, p1, x3, opts)
        direct_failed = False
    except ConvergenceError:
        if opts.homotopy_steps <= 0:
            raise
        z, it, rn, cond, jets = _homotopy(F, G, p1, x3, opts)
        direct_failed = True
    if check_branch and not direct_failed:
        zh = _homotopy(F, G, p1, x3, opts)[0]
        if np.linalg.norm(z - zh, ord=np.inf) > opts.branch_tol * (1.0 + np.linalg.norm(z, ord=np.inf)):
            raise BranchJumpError(
                f"direct Newton landed on a different branch than the "
                f"homotopy continuation at p1={p1}, x3={x3}"
            )
    k = F.m
    return StationaryPoint(z[:k].copy(), z[k:].copy(), it, rn, cond, jets)


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
        F, G, k = self.F, self.G, self.F.m
        m, n = self.m, self.n
        p1 = np.asarray(p, dtype=float).ravel()
        x3 = np.asarray(x, dtype=float).ravel()
        sp = stationary_point(F, G, p1, x3, self.opts)
        # orders 0-2 read the solve's operand jets at the critical point
        jF, jG = sp.jets if order <= 2 else (F.eval_jet(sp.p_mid, x3, 3),
                                             G.eval_jet(p1, sp.x_mid, 3))
        out = Jet(order, jF.value + jG.value - float(sp.p_mid @ sp.x_mid))
        if order == 0:
            return out
        # envelope identities give the exact first derivatives
        out.grad = np.concatenate([jG.grad[:m], jF.grad[k:]])
        if order == 1:
            return out
        # Hessian of L(pb, xb, p1, x3) = F(pb, x3) + G(p1, xb) - <pb, xb>
        nv = 2 * k + m + n
        idx_F = list(range(k)) + list(range(2 * k + m, nv))
        idx_G = list(range(2 * k, 2 * k + m)) + list(range(k, 2 * k))
        L = jet_add(jet_embed(jF, idx_F, nv), jet_embed(jG, idx_G, nv))
        for i in range(k):
            L.hess[i, k + i] -= 1.0
            L.hess[k + i, i] -= 1.0
        Lzz = L.hess[:2 * k, :2 * k]
        Lzu = L.hess[:2 * k, 2 * k:]
        try:
            zu = -np.linalg.solve(Lzz, Lzu)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(
                f"second-derivative block is singular at p1={p1}, x3={x3}"
            ) from exc
        E = np.vstack([zu, np.eye(m + n)])
        out.hess = E.T @ L.hess @ E
        if order >= 3:
            out.third = np.einsum("abc,ai,bj,ck->ijk", L.third, E, E, E, optimize=True)
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
