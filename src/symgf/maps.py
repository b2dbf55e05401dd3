"""Jet-evaluable maps between coordinate spaces.

These carry the base-map side of the calculus: polynomial maps with exact
derivative tensors, numerically inverted diffeomorphisms (Newton solve plus
implicit differentiation of the inverse), and the base map read off a
generating function.  Every map exposes

    jet(x, order) -> MapJet

with ``value (k,)``, ``jac (k, n)``, ``hess (k, n, n)``, ``third
(k, n, n, n)`` (entries above ``order`` are None), where k = d_out and
n = d_in.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import PolyKernel, canonical_poly
# perfbench/tracer.py patches poly_term_jet here by name
from .jets import poly_term_jet  # noqa: F401


@dataclass
class MapJet:
    order: int
    value: np.ndarray
    jac: np.ndarray | None = None
    hess: np.ndarray | None = None
    third: np.ndarray | None = None


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
        comps = []
        for i in range(k):
            comp = {}
            for j in range(n):
                if A[i, j] != 0.0:
                    e = [0] * n
                    e[j] = 1
                    comp[tuple(e)] = A[i, j]
            comps.append(comp)
        return cls(comps, n)

    @classmethod
    def identity(cls, n):
        return cls.linear(np.eye(n))

    def __call__(self, x):
        return self.jet(x, 0).value

    def jet(self, x, order) -> MapJet:
        return MapJet(order, *self._kernel.jet(x, order))


class InverseMap:
    """The inverse of a jet-evaluable map, computed pointwise.

    ``jet(y, order)`` solves base(z) = y by Newton from ``z0 = guess(y)``
    (default: y itself, right for near-identity diffeomorphisms), then fills
    in derivative tensors of the inverse by implicit differentiation.
    """

    def __init__(self, base, guess=None, tol=1e-14, max_iter=60):
        self.base = base
        if base.d_in != base.d_out:
            raise ValueError("only same-dimension maps can be inverted")
        self.d_in = self.d_out = base.d_in
        self.guess = guess
        self.tol = tol
        self.max_iter = max_iter

    def __call__(self, y):
        return self.jet(y, 0).value

    def _solve(self, y):
        z = np.array(y, dtype=float) if self.guess is None else np.asarray(self.guess(y), dtype=float)
        for _ in range(self.max_iter):
            mj = self.base.jet(z, 1)
            r = mj.value - y
            if np.linalg.norm(r, ord=np.inf) < self.tol:
                return z
            z = z - np.linalg.solve(mj.jac, r)
        from .compose import ConvergenceError
        raise ConvergenceError("InverseMap: Newton solve for the inverse did not converge")

    def jet(self, y, order) -> MapJet:
        y = np.asarray(y, dtype=float)
        z = self._solve(y)
        base_order = max(order, 1)
        bj = self.base.jet(z, min(3, base_order))
        out = MapJet(order, z)
        if order == 0:
            return out
        A = bj.jac
        zy = np.linalg.solve(A, np.eye(self.d_in))
        out.jac = zy
        if order >= 2:
            # A z_uv = -g''[z_u, z_v]
            rhs = np.einsum("abc,bu,cv->auv", bj.hess, zy, zy, optimize=True)
            out.hess = -np.linalg.solve(A, rhs.reshape(self.d_in, -1)).reshape(rhs.shape)
        if order >= 3:
            t3 = np.einsum("abcd,bu,cv,dw->auvw", bj.third, zy, zy, zy, optimize=True)
            m = np.einsum("abc,buv,cw->auvw", bj.hess, out.hess, zy, optimize=True)
            rhs = t3 + m + m.transpose(0, 1, 3, 2) + m.transpose(0, 3, 1, 2)
            out.third = -np.linalg.solve(A, rhs.reshape(self.d_in, -1)).reshape(rhs.shape)
        return out


class GenFunBaseMap:
    """Base map of a generating function: phi(x) = grad_p S(0, x).

    Supports jets to order 2 (enough for Poisson-map checks); order r uses
    derivatives of S up to order r + 1.
    """

    def __init__(self, genfun):
        self.genfun = genfun
        self.d_in = genfun.n
        self.d_out = genfun.m

    def __call__(self, x):
        return self.jet(x, 0).value

    def jet(self, x, order) -> MapJet:
        if order > 2:
            raise ValueError("GenFunBaseMap supports jets to order 2 only")
        x = np.asarray(x, dtype=float)
        m, n = self.d_out, self.d_in
        sj = self.genfun.eval_jet(np.zeros(m), x, order + 1)
        out = MapJet(order, sj.grad[:m].copy())
        if order >= 1:
            out.jac = sj.hess[:m, m:].copy()
        if order >= 2:
            out.hess = sj.third[:m, m:, m:].copy()
        return out
