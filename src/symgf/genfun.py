"""Generating functions of transverse Lagrangian germs.

A generating function here is a smooth scalar S(p, x) with p in R^m, x in
R^n, normalized so that

    S(0, x) = 0           and        grad_x S(0, x) = 0   for all x.

Under that normalization S generates a canonical relation whose base map is
phi(x) = grad_p S(0, x).  This module provides the jet-evaluable type
hierarchy (sparse polynomials, tensor products, cotangent lifts of maps)
and the elementary builders; the monoid families live in
:mod:`symgf.monoids` and composition in :mod:`symgf.compose`.

Variable convention for jets: a genfun jet is taken with respect to the
m + n variables (p_1..p_m, x_1..x_n), momenta first.  ``eval_jet`` takes
one point, ``p (m,)`` and ``x (n,)``, or a stack of B points, ``p (B, m)``
and ``x (B, n)``, and then returns a stacked :class:`~symgf.jets.Jet`.
"""
from __future__ import annotations

import numpy as np

from .jets import Jet, PolyKernel, canonical_poly, jet_add, jet_embed
# perfbench/tracer.py patches poly_term_jet here by name
from .jets import poly_term_jet  # noqa: F401
from .maps import GenFunBaseMap, PolyMap


class NormalizationError(ValueError):
    """Raised when a candidate generating function violates S(0,x)=0 or
    grad_x S(0,x)=0."""


class GenFun:
    """Base class: a jet-evaluable generating function S(p, x)."""

    def __init__(self, m, n, domain_radius=np.inf, label=""):
        self.m = int(m)
        self.n = int(n)
        self.domain_radius = float(domain_radius)
        self.label = label

    def eval_jet(self, p, x, order) -> Jet:
        raise NotImplementedError

    def __call__(self, p, x) -> float:
        return self.eval_jet(p, x, 0).value

    def value(self, p, x) -> float:
        return self.eval_jet(p, x, 0).value

    def __repr__(self):
        name = self.label or type(self).__name__
        return f"<{name}: m={self.m}, n={self.n}, radius={self.domain_radius:g}>"


class PolyGenFun(GenFun):
    """Sparse polynomial generating function.

    ``terms`` maps ``(p_exponents, x_exponents)`` (tuples of ints of
    lengths m and n) to a float coefficient.  Zero coefficients are dropped
    and duplicate keys merged, so two PolyGenFuns are equal as functions iff
    their ``terms`` dicts are equal — tests rely on that for exact
    coefficient comparisons.
    """

    def __init__(self, terms, m, n, domain_radius=np.inf, label=""):
        super().__init__(m, n, domain_radius, label)
        for pe, xe in terms:
            if len(pe) != self.m or len(xe) != self.n:
                raise ValueError(
                    f"term exponents ({len(pe)}, {len(xe)}) do not match (m, n)=({self.m}, {self.n})"
                )
        flat = canonical_poly(((tuple(pe) + tuple(xe), c) for (pe, xe), c in terms.items()),
                              self.m + self.n)
        self.terms = {(e[:self.m], e[self.m:]): c for e, c in flat.items()}
        for (pe, xe) in self.terms:
            if sum(pe) == 0:
                raise NormalizationError(
                    f"term with x-exponents {xe} has momentum degree 0; "
                    "S(0, x) = 0 requires every term to carry at least one momentum factor"
                )
        self._kernel = PolyKernel.from_polys([flat], self.m + self.n)

    def eval_jet(self, p, x, order) -> Jet:
        p, x = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
        if p.ndim < 2:
            p, x = p.ravel(), x.ravel()
        point = np.concatenate([p, x], axis=-1)
        # drop the kernel's output axis, which follows the stack axis if any
        return Jet(order, *(t.squeeze(p.ndim - 1) for t in self._kernel.jet(point, order)))


class TensorGenFun(GenFun):
    """External tensor product: (F (+) G)(p, q, x, y) = F(p, x) + G(q, y)."""

    def __init__(self, F: GenFun, G: GenFun, label=""):
        super().__init__(F.m + G.m, F.n + G.n,
                         min(F.domain_radius, G.domain_radius),
                         label or f"({F.label})(+)({G.label})")
        self.F = F
        self.G = G

    def eval_jet(self, p, x, order) -> Jet:
        p, x = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
        if p.ndim < 2:
            p, x = p.ravel(), x.ravel()
        F, G = self.F, self.G
        nv = self.m + self.n
        jF = F.eval_jet(p[..., :F.m], x[..., :F.n], order)
        jG = G.eval_jet(p[..., F.m:], x[..., F.n:], order)
        idx_F = list(range(F.m)) + list(range(self.m, self.m + F.n))
        idx_G = list(range(F.m, self.m)) + list(range(self.m + F.n, nv))
        return jet_add(jet_embed(jF, idx_F, nv), jet_embed(jG, idx_G, nv))


class LiftGenFun(GenFun):
    """Cotangent lift of a jet-evaluable map: S(p, x) = <p, phi(x)>."""

    def __init__(self, phi, label=""):
        super().__init__(phi.d_out, phi.d_in, np.inf, label or "lift")
        self.phi = phi

    def eval_jet(self, p, x, order) -> Jet:
        p, x = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
        if p.ndim < 2:
            p, x = p.ravel(), x.ravel()
        m, n = self.m, self.n
        mj = self.phi.jet(x, order)
        row = p[..., None, :]
        out = Jet(order, (row @ mj.value[..., None])[..., 0, 0])
        if order >= 1:
            out.grad = np.concatenate([mj.value, (row @ mj.jac)[..., 0, :]], axis=-1)
        if order >= 2:
            H = np.zeros(p.shape[:-1] + (m + n, m + n))
            H[..., :m, m:] = mj.jac
            H[..., m:, :m] = mj.jac.swapaxes(-1, -2)
            H[..., m:, m:] = np.einsum("...i,...imn->...mn", p, mj.hess)
            out.hess = H
        if order >= 3:
            T = np.zeros(p.shape[:-1] + (m + n,) * 3)
            # d^3 S / dp_i dx_a dx_b = phi''_i[a,b], symmetrized over slots
            T[..., :m, m:, m:] = mj.hess
            T[..., m:, :m, m:] = mj.hess.swapaxes(-3, -2)
            T[..., m:, m:, :m] = np.moveaxis(mj.hess, -3, -1)
            T[..., m:, m:, m:] = np.einsum("...i,...iabc->...abc", p, mj.third)
            out.third = T
        return out


def poly_genfun(terms, m, n, domain_radius=np.inf, label="") -> PolyGenFun:
    """Validated construction of a sparse polynomial generating function."""
    return PolyGenFun(terms, m, n, domain_radius, label)


def identity_genfun(d) -> PolyGenFun:
    """S(p, x) = <p, x>, the identity micromorphism on R^d."""
    terms = {}
    for i in range(d):
        e = [0] * d
        e[i] = 1
        terms[(tuple(e), tuple(e))] = 1.0
    return PolyGenFun(terms, d, d, np.inf, label=f"id_{d}")


def unit_genfun(d) -> PolyGenFun:
    """The genfun of the inclusion of a point: m = 0, S identically 0."""
    return PolyGenFun({}, 0, d, np.inf, label=f"unit_{d}")


def cotangent_lift(phi, label="") -> GenFun:
    """Genfun of the cotangent lift of a map phi (base map = phi).

    Polynomial maps produce an exact :class:`PolyGenFun`; any other
    jet-evaluable map is wrapped lazily.
    """
    if isinstance(phi, PolyMap):
        m, n = phi.d_out, phi.d_in
        terms = {}
        for i, comp in enumerate(phi.components):
            pe = [0] * m
            pe[i] = 1
            for xe, coeff in comp.items():
                key = (tuple(pe), xe)
                terms[key] = terms.get(key, 0.0) + coeff
        return PolyGenFun(terms, m, n, np.inf, label=label or "lift")
    return LiftGenFun(phi, label=label)


def tensor(F: GenFun, G: GenFun, label="") -> GenFun:
    """External tensor product; exact polynomial merge when both are polys."""
    if isinstance(F, PolyGenFun) and isinstance(G, PolyGenFun):
        m, n = F.m + G.m, F.n + G.n
        terms = {}
        for (pe, xe), c in F.terms.items():
            terms[(pe + (0,) * G.m, xe + (0,) * G.n)] = c
        for (pe, xe), c in G.terms.items():
            key = ((0,) * F.m + pe, (0,) * F.n + xe)
            terms[key] = terms.get(key, 0.0) + c
        return PolyGenFun(terms, m, n, min(F.domain_radius, G.domain_radius),
                          label or f"({F.label})(+)({G.label})")
    return TensorGenFun(F, G, label)


def base_map(F: GenFun) -> GenFunBaseMap:
    """The base map x -> grad_p F(0, x) as a jet-evaluable map."""
    return GenFunBaseMap(F)
