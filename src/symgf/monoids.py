"""Monoid-shaped generating functions on cotangent bundles.

A monoid genfun on R^d is an S(p1, p2, x) (so m = 2d, n = d) satisfying the
unit law S(p, 0, x) = S(0, p, x) = <p, x>; associativity then holds either
exactly (symplectic, abelian) or to a controlled order (truncated group
law, semiclassical expansion).  Three families are built here:

* ``symplectic_monoid`` — the closed-form quadratic S for a constant
  invertible bivector;
* ``lie_monoid`` — <x, A(p1, p2)> with A the group law of a Lie algebra,
  truncated at bracket order <= 4;
* ``kontsevich_monoid`` — the semiclassical expansion for an arbitrary
  polynomial Poisson bivector, to first or second order in the formal
  parameter, with the second-order tree weights determined numerically by
  an associativity fit.

Plus the structure types they consume: ``LieStructure`` (structure
constants), ``MatrixRep`` (a faithful matrix representation, used by the
group-law oracle), and ``PolyPoisson`` (a polynomial bivector).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .genfun import PolyGenFun
from .jets import PolyKernel, canonical_poly
# perfbench/tracer.py patches poly_term_jet here by name
from .jets import poly_term_jet  # noqa: F401
from .matfun import mat_exp, mat_log

STRUCTURE_JACOBI_TOL = 1e-12
ORDER2_GATE_FLOOR = 1e-8


def _jacobi_residual(c) -> float:
    """max |c^m_ij c^l_mk + c^m_jk c^l_mi + c^m_ki c^l_mj| over l, i, j, k,
    one upper index l at a time, so no temporary exceeds (d, d, d)."""
    worst = [0.0]
    for cl in c:
        t = np.tensordot(c, cl, axes=(0, 0))  # t[i, j, k] = c^m_ij c^l_mk
        worst.append(np.abs(t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1)).max())
    return float(np.max(worst))


# --------------------------------------------------------------------------
# Lie structures and matrix representations
# --------------------------------------------------------------------------

@dataclass
class LieStructure:
    """Structure constants c[k, i, j] = c^k_{ij} of a real Lie algebra,
    i.e. [e_i, e_j] = sum_k c^k_{ij} e_k."""

    d: int
    c: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.d, self.d, self.d):
            raise ValueError(f"structure constants must have shape (d,d,d)={self.d}")
        if not np.array_equal(self.c, -self.c.transpose(0, 2, 1)):
            raise ValueError("structure constants are not antisymmetric in the lower indices")
        worst = _jacobi_residual(self.c)
        if worst > STRUCTURE_JACOBI_TOL:
            raise ValueError(f"structure constants violate the Jacobi identity (residual {worst:.3e})")

    def bracket(self, u, v):
        return np.einsum("kij,i,j->k", self.c, np.asarray(u, float), np.asarray(v, float))

    @classmethod
    def so3(cls):
        c = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            c[k, i, j] = 1.0
            c[k, j, i] = -1.0
        return cls(3, c, name="so3")

    @classmethod
    def heisenberg(cls):
        c = np.zeros((3, 3, 3))
        c[2, 0, 1] = 1.0
        c[2, 1, 0] = -1.0
        return cls(3, c, name="heisenberg")


@dataclass
class MatrixRep:
    """A matrix representation of a Lie algebra: basis[i] represents e_i."""

    basis: np.ndarray  # (d, N, N)
    name: str = ""

    @property
    def d(self):
        return self.basis.shape[0]

    def matrix(self, v):
        return np.einsum("i,iab->ab", np.asarray(v, float), self.basis)

    def vee(self, M, tol=1e-8):
        """Coordinates of M in the basis span; errors if M leaves the span."""
        A = self.basis.reshape(self.d, -1).T
        sol, *_ = np.linalg.lstsq(A, M.ravel(), rcond=None)
        resid = np.linalg.norm(A @ sol - M.ravel(), ord=np.inf)
        if resid > tol * max(1.0, np.linalg.norm(M, ord=np.inf)):
            raise ValueError(f"matrix is not in the representation span (residual {resid:.3e})")
        return sol

    @classmethod
    def so3(cls):
        basis = np.zeros((3, 3, 3))
        basis[0] = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
        basis[1] = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
        basis[2] = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
        return cls(basis, name="so3")

    @classmethod
    def heisenberg(cls):
        # strictly upper triangular 3x3; faithful (the adjoint rep is not)
        basis = np.zeros((3, 3, 3))
        basis[0][0, 1] = 1.0
        basis[1][1, 2] = 1.0
        basis[2][0, 2] = 1.0
        return cls(basis, name="heisenberg")


def builtin_rep(name: str) -> MatrixRep:
    try:
        return {"so3": MatrixRep.so3, "heisenberg": MatrixRep.heisenberg}[name]()
    except KeyError:
        raise ValueError(f"no builtin matrix representation named {name!r}") from None


def group_log(rep: MatrixRep, u, v) -> np.ndarray:
    """The group-law oracle: log(exp(u) exp(v)) computed in a faithful
    matrix representation and pulled back to algebra coordinates."""
    M = mat_exp(rep.matrix(u)) @ mat_exp(rep.matrix(v))
    return rep.vee(mat_log(M))


# --------------------------------------------------------------------------
# Truncated group law as a polynomial, and the lie monoid
# --------------------------------------------------------------------------

def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _bracket(u, v, c):
    """[u, v]^k = sum_ij c^k_{ij} u_i v_j for vector polynomials u, v."""
    out = []
    for ck in c:
        acc = {}
        for i, j in zip(*np.nonzero(ck)):
            if not u[i] or not v[j]:
                continue
            for e, cc in _poly_mul(u[i], v[j]).items():
                acc[e] = acc.get(e, 0.0) + ck[i, j] * cc
        out.append({e: x for e, x in acc.items() if x != 0.0})
    return out


def truncated_group_law(structure: LieStructure, trunc: int):
    """The group law z(p1, p2) with brackets kept through order ``trunc``
    (1 <= trunc <= 4), as a vector of sparse polynomials in (p1, p2)."""
    if not 1 <= trunc <= 4:
        raise ValueError(f"trunc must be between 1 and 4, got {trunc}")
    d, c = structure.d, structure.c
    unit = [{tuple(e): 1.0} for e in np.eye(2 * d, dtype=int).tolist()]
    X, Y = unit[:d], unit[d:]
    series = [(1.0, X), (1.0, Y)]
    if trunc >= 2:
        XY = _bracket(X, Y, c)
        series.append((0.5, XY))
    if trunc >= 3:
        XXY = _bracket(X, XY, c)
        series += [(1.0 / 12.0, XXY), (1.0 / 12.0, _bracket(Y, _bracket(Y, X, c), c))]
    if trunc >= 4:
        series.append((-1.0 / 24.0, _bracket(Y, XXY, c)))
    A = [{} for _ in range(d)]
    for scale, u in series:
        for out, comp in zip(A, u):
            for e, x in comp.items():
                out[e] = out.get(e, 0.0) + scale * x
    return A


def group_law_poly_eval(A, p1, p2):
    """Evaluate a truncated group law at numeric (p1, p2)."""
    pt = np.concatenate([np.asarray(p1, float), np.asarray(p2, float)])
    return PolyKernel.from_polys(A, pt.size).jet(pt, 0)[0]


def lie_monoid(structure: LieStructure, trunc: int = 4) -> PolyGenFun:
    """S(p1, p2, x) = <x, A(p1, p2)> with A the truncated group law."""
    d = structure.d
    A = truncated_group_law(structure, trunc)
    terms = {}
    for k, comp in enumerate(A):
        xe = [0] * d
        xe[k] = 1
        for pe, coeff in comp.items():
            terms[(pe, tuple(xe))] = coeff
    kappa = float(np.linalg.norm(structure.c.ravel()))
    radius = np.inf if kappa == 0.0 else 0.5 * math.log(2.0) / kappa
    return PolyGenFun(terms, 2 * d, d, radius,
                      label=f"lie-{structure.name or 'custom'}-trunc{trunc}")


def abelian_monoid(d) -> PolyGenFun:
    """S = <p1 + p2, x>: the additive monoid, zero bivector."""
    terms = {}
    for i in range(d):
        xe = [0] * d
        xe[i] = 1
        for slot in range(2):
            pe = [0] * (2 * d)
            pe[slot * d + i] = 1
            terms[(tuple(pe), tuple(xe))] = 1.0
    return PolyGenFun(terms, 2 * d, d, np.inf, label=f"abelian-{d}")


# --------------------------------------------------------------------------
# Symplectic monoid
# --------------------------------------------------------------------------

def standard_bivector(d) -> np.ndarray:
    """The block-standard constant bivector [[0, I], [-I, 0]] on even d."""
    if d % 2 != 0:
        raise ValueError(f"a symplectic dimension must be even, got {d}")
    k = d // 2
    jinv = np.zeros((d, d))
    jinv[:k, k:] = np.eye(k)
    jinv[k:, :k] = -np.eye(k)
    return jinv


def symplectic_monoid(d, jinv=None) -> PolyGenFun:
    """S = <p1 + p2, x> + (1/2) p1^T jinv p2 for a constant invertible
    antisymmetric jinv (defaults to the block-standard one)."""
    jinv = standard_bivector(d) if jinv is None else np.asarray(jinv, dtype=float)
    if jinv.shape != (d, d):
        raise ValueError(f"jinv must be {d}x{d}")
    if not np.allclose(jinv, -jinv.T, atol=0.0):
        raise ValueError("jinv must be antisymmetric")
    if abs(np.linalg.det(jinv)) < 1e-300:
        raise ValueError("jinv must be invertible")
    terms = dict(abelian_monoid(d).terms)
    xe0 = (0,) * d
    for i in range(d):
        for j in range(d):
            if jinv[i, j] == 0.0:
                continue
            pe = [0] * (2 * d)
            pe[i] += 1
            pe[d + j] += 1
            terms[(tuple(pe), xe0)] = 0.5 * jinv[i, j]
    return PolyGenFun(terms, 2 * d, d, np.inf, label=f"symplectic-{d}")


# --------------------------------------------------------------------------
# Polynomial Poisson bivectors
# --------------------------------------------------------------------------

def jacobi_defect(alpha, dalpha, axis=None):
    """max |cyclic Jacobi sum| of a bivector at one point, or over a stack
    of points, given its value ``alpha[..., i, j]`` and derivatives
    ``dalpha[..., i, j, l] = d alpha^{ij} / dx_l``; with ``axis=(1, 2, 3)``
    the maxima of a stack, one per point."""
    t = np.einsum("...il,...jkl->...ijk", alpha, dalpha)
    cyc = t + np.moveaxis(t, -3, -1) + np.moveaxis(t, -1, -3)
    return np.max(np.abs(cyc), axis=axis, initial=0.0)


class PolyPoisson:
    """A polynomial bivector on R^d, stored as its strict upper triangle.

    ``entries[(i, j)]`` with i < j maps x-exponent tuples to coefficients of
    alpha^{ij}; the lower triangle is the exact negation, the diagonal is
    identically zero.  Construction does not enforce the Jacobi identity
    (verification code must be able to represent broken bivectors);
    ``jacobi_residual`` measures it and the monoid builders require it.
    """

    def __init__(self, d, entries):
        self.d = int(d)
        self.entries = {}
        for (i, j), poly in entries.items():
            i, j = int(i), int(j)
            if not 0 <= i < j < self.d:
                raise ValueError(f"entry ({i}, {j}) is not strictly upper triangular for d={self.d}")
            canon = canonical_poly(poly.items(), self.d)
            if canon:
                self.entries[(i, j)] = canon
        upper = np.array(list(self.entries), dtype=np.int64).reshape(-1, 2)
        self._rows, self._cols = upper[:, 0], upper[:, 1]
        self._kernel = PolyKernel.from_polys(list(self.entries.values()), self.d)

    @classmethod
    def from_constant(cls, A):
        A = np.asarray(A, dtype=float)
        d = A.shape[0]
        if not np.allclose(A, -A.T, atol=0.0):
            raise ValueError("constant bivector must be antisymmetric")
        ent = {}
        for i in range(d):
            for j in range(i + 1, d):
                if A[i, j] != 0.0:
                    ent[(i, j)] = {(0,) * d: A[i, j]}
        return cls(d, ent)

    @classmethod
    def linear_from_structure(cls, structure: LieStructure):
        """alpha^{ij}(x) = sum_k c^k_{ij} x_k (the linear bivector attached
        to a Lie algebra)."""
        d = structure.d
        ent = {}
        for i in range(d):
            for j in range(i + 1, d):
                poly = {}
                for k in range(d):
                    v = structure.c[k, i, j]
                    if v != 0.0:
                        e = [0] * d
                        e[k] = 1
                        poly[tuple(e)] = v
                if poly:
                    ent[(i, j)] = poly
        return cls(d, ent)

    def entry_poly(self, i, j):
        """alpha^{ij} as a signed x-polynomial dict (empty on the diagonal)."""
        if i == j:
            return {}
        if i < j:
            return dict(self.entries.get((i, j), {}))
        return {e: -c for e, c in self.entries.get((j, i), {}).items()}

    def matrix_jet(self, x, order=0):
        """(alpha(x), d alpha(x)) with dalpha[i, j, l] = d alpha^{ij} / dx_l
        (the derivative array is None for order 0).  A stack of points
        ``x (B, d)`` gives both arrays a leading ``B`` axis."""
        d, rows, cols = self.d, self._rows, self._cols
        upper = self._kernel.jet(x, min(order, 1))
        lead = upper[0].shape[:-1]
        alpha = np.zeros(lead + (d, d))
        alpha[..., rows, cols] = upper[0]
        alpha[..., cols, rows] = -upper[0]
        if order < 1:
            return alpha, None
        dalpha = np.zeros(lead + (d, d, d))
        dalpha[..., rows, cols, :] = upper[1]
        dalpha[..., cols, rows, :] = -upper[1]
        return alpha, dalpha

    def __call__(self, x):
        return self.matrix_jet(x, 0)[0]

    def jacobi_residual(self, xs) -> float:
        """max over sample points of the cyclic Jacobi sum, evaluated as one
        stack."""
        return float(jacobi_defect(*self.matrix_jet(np.atleast_2d(xs), 1)))

    def coeff_scale(self) -> float:
        return max((abs(c) for poly in self.entries.values() for c in poly.values()),
                   default=0.0)

    def scaled(self, s):
        return PolyPoisson(self.d, {k: {e: s * c for e, c in poly.items()}
                                    for k, poly in self.entries.items()})


# --------------------------------------------------------------------------
# Semiclassical (Kontsevich-type) monoid
# --------------------------------------------------------------------------

class Order2GateError(RuntimeError):
    """The second-order tree-weight fit failed its residual-floor gate."""

    def __init__(self, fit):
        self.fit = fit
        super().__init__(
            f"order-2 weight fit floor {fit.floor:.3e} exceeds the gate {ORDER2_GATE_FLOOR:.1e}"
        )


@dataclass(frozen=True)
class TreeWeightFit:
    """Result of the order-2 associativity fit."""

    c1: float
    c2: float
    floor: float
    n_rows: int
    seed: int
    eps: float
    levels: int

    @property
    def passed(self) -> bool:
        return self.floor <= ORDER2_GATE_FLOOR


def _poly_derivative(poly, l):
    out = {}
    for e, c in poly.items():
        if e[l] == 0:
            continue
        de = list(e)
        de[l] -= 1
        key = tuple(de)
        out[key] = out.get(key, 0.0) + c * e[l]
    return out


def _symbols(alpha: PolyPoisson):
    """The eps-free parts of the semiclassical expansion of a bivector,
    after checking the Jacobi identity on a small deterministic grid.

    Returns the abelian terms, the first-order symbol
    (1/2) alpha^{ij}(x) p1_i p2_j, and the two tree symbols

        T1 = sum d_l alpha^{ij} alpha^{lk} p1_i p2_j p1_k
        T2 = sum d_l alpha^{ij} alpha^{lk} p1_i p2_j p2_k

    (antisymmetry of alpha makes every other (2,2)-contraction a linear
    combination of these two).
    """
    from .grids import sample_box
    d = alpha.d
    jr = alpha.jacobi_residual(sample_box(32, d, -1.0, 1.0, seed=7))
    if jr > 1e-10:
        raise ValueError(f"bivector violates the Jacobi identity (residual {jr:.3e})")
    first, t1, t2 = {}, {}, {}
    for i in range(d):
        for j in range(d):
            aij = alpha.entry_poly(i, j)
            pe = [0] * (2 * d)
            pe[i] += 1
            pe[d + j] += 1
            for xe, c in aij.items():
                first[(tuple(pe), xe)] = 0.5 * c
            for l in range(d):
                dij = _poly_derivative(aij, l)
                if not dij:
                    continue
                for k in range(d):
                    alk = alpha.entry_poly(l, k)
                    if not alk:
                        continue
                    prod = _poly_mul(dij, alk)
                    for tree, slot in ((t1, k), (t2, d + k)):
                        pk = list(pe)
                        pk[slot] += 1
                        pk = tuple(pk)
                        for xe, c in prod.items():
                            tree[(pk, xe)] = tree.get((pk, xe), 0.0) + c
    return abelian_monoid(d).terms, first, (t1, t2)


def _expansion(alpha: PolyPoisson, symbols, eps, weights, order) -> PolyGenFun:
    """The order-1 or order-2 semiclassical genfun assembled from
    :func:`_symbols`, with tree weights ``weights`` at order 2."""
    base, first, trees = symbols
    terms = dict(base)
    for key, c in first.items():
        terms[key] = terms.get(key, 0.0) + eps * c
    if order == 2:
        e2 = eps * eps
        for cw, tree in zip(weights, trees, strict=True):
            for key, c in tree.items():
                terms[key] = terms.get(key, 0.0) + e2 * (cw * c)
    d = alpha.d
    kappa = eps * alpha.coeff_scale()
    radius = np.inf if kappa == 0.0 else 0.5 / kappa
    return PolyGenFun(terms, 2 * d, d, radius,
                      label=f"kontsevich-d{d}-order{order}-eps{eps:g}")


def kontsevich_monoid(alpha: PolyPoisson, eps: float = 1.0, order: int = 1,
                      weights=None) -> PolyGenFun:
    """Semiclassical monoid genfun for a polynomial bivector.

    order=1:  S = <p1+p2, x> + (eps/2) alpha^{ij}(x) p1_i p2_j
    order=2:  adds eps^2 (c1 T1 + c2 T2) with (c1, c2) from the
              associativity fit (or ``weights`` if given).

    The bivector must satisfy the Jacobi identity, checked on a small
    deterministic grid.  Raises :class:`Order2GateError` when the fit
    floor exceeds the gate.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    symbols = _symbols(alpha)
    fit = None
    if order == 2 and weights is None:
        fit = fit_tree_weights()
        if not fit.passed:
            raise Order2GateError(fit)
        weights = (fit.c1, fit.c2)
    gf = _expansion(alpha, symbols, eps, weights, order)
    gf.order2_fit = fit
    return gf


# --------------------------------------------------------------------------
# The associativity fit for the order-2 tree weights
# --------------------------------------------------------------------------

def _richardson_leading(values, eps, leading=2):
    """Coefficient of eps^leading from evaluations at eps / 2^i.

    ``values[..., i] = R(eps / 2^i)``, i < K; models each R as a polynomial
    with powers leading .. leading + K - 1 and eliminates all but the
    leading power, in one batched solve.
    """
    K = values.shape[-1]
    powers = np.arange(leading, leading + K)
    V = np.array([[(eps / 2.0 ** i) ** q for q in powers] for i in range(K)])
    coef = np.linalg.solve(np.broadcast_to(V, values.shape[:-1] + V.shape), values[..., None])
    return coef[..., 0, 0]


def _fit_instances():
    """Bivectors used by the weight fit: one linear (so3) and one
    non-linear d=2 instance (any single-entry bivector is Poisson)."""
    lin = PolyPoisson.linear_from_structure(LieStructure.so3()).scaled(0.6)
    quad = PolyPoisson(2, {(0, 1): {(0, 0): 0.4, (1, 0): 0.3, (2, 0): 0.25}})
    return [lin, quad]


def _fit_rows(seed, n_points, eps, levels):
    """The eps^2 coefficient ``A c + b`` of the associativity defect at each
    row (fit instance, sample point), affine in the tree weights ``c``.

    The trees enter at eps^2, so there they act through their values at the
    explicit critical point of <p1 + p2, x>: column T of ``A`` is the
    coboundary, the order-2 associativity equation of the formal symplectic
    groupoid (Cattaneo, Dherin & Felder, CMP 253, 2005),

        dT = T(p1 + p2, p3, x) + T(p1, p2, x) - T(p1, p2 + p3, x) - T(p2, p3, x).

    ``b`` is the defect of the weight-free monoid's composites, its eps^2
    coefficient taken by Richardson elimination over ``levels`` halvings of eps.
    """
    from .compose import compose
    from .genfun import identity_genfun, tensor
    from .grids import sample_ball, sample_box

    cols, consts = [], []
    for inst_idx, alpha in enumerate(_fit_instances()):
        d = alpha.d
        symbols = _symbols(alpha)
        I = identity_genfun(d)
        ps = sample_ball(n_points, 3 * d, 0.35, seed=seed + 100 * inst_idx)
        xs = sample_box(n_points, d, -0.9, 0.9, seed=seed + 100 * inst_idx + 1)
        defect = np.zeros((n_points, levels))
        for lev in range(levels):
            S = _expansion(alpha, symbols, eps / 2.0 ** lev, None, 1)
            # each side solves all n_points as one stack
            defect[:, lev] = compose(S, tensor(S, I))(ps, xs) - compose(S, tensor(I, S))(ps, xs)
        consts.append(_richardson_leading(defect, eps))
        trees = PolyKernel.from_polys(
            [{pe + xe: c for (pe, xe), c in tree.items()} for tree in symbols[2]], 3 * d)
        p1, p2, p3 = ps[:, :d], ps[:, d:2 * d], ps[:, 2 * d:]
        T = [trees.jet(np.concatenate([u, v, xs], axis=1), 0)[0]
             for u, v in ((p1 + p2, p3), (p1, p2), (p1, p2 + p3), (p2, p3))]
        cols.append(T[0] + T[1] - T[2] - T[3])
    return np.concatenate(cols), np.concatenate(consts)


@lru_cache(maxsize=None)
def fit_tree_weights(seed: int = 11, n_points: int = 24, eps: float = 0.08,
                     levels: int = 4) -> TreeWeightFit:
    """Determine the order-2 tree weights by least squares on the affine
    system of :func:`_fit_rows`.  The floor (its residual, in
    eps^2-coefficient units) reports how associative the fitted order-2
    monoid can possibly be.
    """
    A, b = _fit_rows(seed, n_points, eps, levels)
    sol, *_ = np.linalg.lstsq(A, -b, rcond=None)
    floor = float(np.max(np.abs(A @ sol + b), initial=0.0))
    return TreeWeightFit(float(sol[0]), float(sol[1]), floor,
                         n_rows=len(b), seed=seed, eps=eps, levels=levels)
