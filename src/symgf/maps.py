"""Jet-evaluable maps between coordinate spaces.

These carry the base-map side of the calculus: polynomial maps with exact
derivative tensors, numerically inverted diffeomorphisms (Newton solve plus
implicit differentiation of the inverse), and the base map read off a
generating function.  Every map exposes

    jet(x, order) -> Jet

a :class:`~symgf.jets.Jet` with a leading output axis of k = d_out: ``value
(k,)``, ``grad (k, n)`` (the Jacobian), ``hess (k, n, n)``, ``third (k, n, n,
n)`` (entries above ``order`` are None), where n = d_in.  ``x`` may also be
a stack ``(B, n)`` of points; every entry then carries the leading stack axis.
"""
from __future__ import annotations

import numpy as np

from .jets import Jet, PolyKernel, canonical_poly, unit_exponents
# perfbench/tracer.py patches poly_term_jet here by name
from .jets import poly_term_jet  # noqa: F401


class PolyMap:
    """Polynomial map R^n -> R^k; component i is sum of coeff * x^exps."""

    def __init__(self, components, d_in):
        # components: sequence over outputs of {x-exponent tuple: coeff}
        self.d_in = int(d_in)
        self.components = [canonical_poly(comp.items(), self.d_in) for comp in components]
        self.d_out = len(self.components)
        self._kernel = PolyKernel.from_polys(self.components, self.d_in)

    @classmethod
    def linear(cls, A):
        A = np.asarray(A, dtype=float)
        k, n = A.shape
        comps = [{unit_exponents(n, j): A[i, j] for j in range(n) if A[i, j] != 0.0}
                 for i in range(k)]
        return cls(comps, n)

    def jet(self, x, order) -> Jet:
        return Jet(order, *self._kernel.jet(x, order))


class InverseMap:
    """The inverse of a jet-evaluable map.

    ``jet(y, order)`` solves base(z) = y by the damped Newton of
    :mod:`symgf.compose`, from z = y (right for near-identity
    diffeomorphisms) to a residual of 1e-14 in at most 60 iterations, then
    fills in derivative tensors of the inverse by implicit differentiation.
    """

    def __init__(self, base):
        self.base = base
        if base.d_in != base.d_out:
            raise ValueError("only same-dimension maps can be inverted")
        self.d_in = self.d_out = base.d_in

    def jet(self, y, order) -> Jet:
        # late: genfun imports this module, and compose imports genfun
        from .compose import NewtonOptions, _damped_newton
        y = np.asarray(y, dtype=float)
        Y = np.atleast_2d(y)

        def system(rows, Z):
            bj = self.base.jet(Z, 1)
            return bj.value - Y[rows], bj.grad, ()

        sol = _damped_newton(system, Y, NewtonOptions(tol=1e-14, max_iter=60),
                             "inverse-map", lambda i: f"at y={Y[i]}").checked()
        out = Jet(order, sol.Z.reshape(y.shape))
        if order == 0:
            return out
        bj = self.base.jet(out.value, min(3, order))
        A = bj.grad
        zy = np.linalg.solve(A, np.broadcast_to(np.eye(self.d_in), A.shape))
        out.grad = zy
        # matmul chains contract one slot at a time, broadcast over components
        Z = zy[..., None, :, :]
        Zt = Z.swapaxes(-1, -2)
        if order >= 2:
            # A z_uv = -g''[z_u, z_v]
            rhs = Zt @ bj.hess @ Z
            out.hess = -np.linalg.solve(A, rhs.reshape(rhs.shape[:-2] + (-1,))).reshape(rhs.shape)
        if order >= 3:
            # A z_uvw = -(g'''[z_u, z_v, z_w] + g''[z_uv, z_w] + 2 permutations)
            t3 = Zt[..., None, :, :] @ (bj.third @ Z[..., None, :, :])
            t3 = (Zt @ t3.reshape(t3.shape[:-2] + (-1,))).reshape(t3.shape)
            Hz = out.hess.reshape(out.hess.shape[:-2] + (-1,))[..., None, :, :]
            m = (Hz.swapaxes(-1, -2) @ (bj.hess @ Z)).reshape(t3.shape)
            rhs = t3 + m + m.swapaxes(-1, -2) + np.moveaxis(m, -1, -3)
            out.third = -np.linalg.solve(A, rhs.reshape(rhs.shape[:-3] + (-1,))).reshape(rhs.shape)
        return out


class GenFunBaseMap:
    """Base map of a generating function: phi(x) = grad_p S(0, x).

    Supports jets to order 1 (the Poisson-map check's order); order r uses
    derivatives of S up to order r + 1.
    """

    def __init__(self, genfun):
        self.genfun = genfun
        self.d_in = genfun.n
        self.d_out = genfun.m

    def jet(self, x, order) -> Jet:
        if order > 1:
            raise ValueError("GenFunBaseMap supports jets to order 1 only")
        x = np.asarray(x, dtype=float)
        m = self.d_out
        sj = self.genfun.eval_jet(np.zeros(x.shape[:-1] + (m,)), x, order + 1)
        out = Jet(order, sj.grad[..., :m].copy())
        if order == 1:
            out.grad = sj.hess[..., :m, m:].copy()
        return out
