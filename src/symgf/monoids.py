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
constants) and ``PolyPoisson`` (a polynomial bivector).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .genfun import PolyGenFun
from .grids import sample_ball, sample_box
from .jets import PolyKernel, canonical_poly, unit_exponents
# perfbench/tracer.py patches poly_term_jet here by name
from .jets import poly_term_jet  # noqa: F401

ORDER2_GATE_FLOOR = 1e-8
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def rounding_floor(size, n):
    """gamma_n * size, with gamma_n = n u / (1 - n u) and u the unit roundoff: the
    bound on the rounding error of a computed sum of products that rounds each product
    at most n times, ``size`` being the sum of their absolute values (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 3)."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF) * size


def _exponent(coeffs):
    """e with 2^(e-1) <= max |coeffs| < 2^e; 0 when that maximum is 0 or not finite.
    The Jacobiators are formed from the coefficients times 2^-e, so their products of
    two cannot overflow; that leaves every |J| / floor as it is."""
    return int(np.frexp(np.max(np.abs(coeffs), initial=0.0))[1])


def _jacobi_gate(what, blocks, e=0):
    """Refuse ``what`` when a coefficient of its Jacobiator, which vanishes for a Poisson
    bivector, exceeds its rounding floor, naming the one with the largest |J| / floor.
    In a block (jac, size, n, name), coefficient r is J = jac[r], its floor is
    rounding_floor(size[r], n[r]), and name(r) = ((i, j, k), x-exponents); jac and size
    are formed from coefficients scaled by 2^-e, so the message scales them by 2^2e."""
    worst = (0.0, 0.0, 0.0, None)
    for jac, size, n, name in blocks:
        floor = np.maximum(rounding_floor(size, n), np.finfo(float).tiny)
        with np.errstate(invalid="ignore"):  # a non-finite J reads inf
            ratio = np.nan_to_num(np.abs(jac) / floor, nan=np.inf)
        if ratio.size and ratio.max() > worst[0]:
            r = int(np.argmax(ratio))
            worst = (ratio[r], jac[r], floor[r], name(r))
    if worst[0] > 1.0:
        _, value, floor, (ijk, xe) = worst
        with np.errstate(over="ignore"):  # a coefficient beyond the float range reads inf
            value, floor = np.ldexp([value, floor], 2 * e)
        raise ValueError(f"{what} the Jacobi identity: its {ijk} coefficient of x^{xe} is "
                         f"{value:.3e}, above its rounding floor {floor:.3e}")


def _jacobi_residual(c):
    """The Jacobiator of structure constants c as :func:`_jacobi_gate`'s blocks, one per
    upper index l, so no temporary exceeds (d, d, d).  With t[i, j, k] = c^m_ij c^l_mk,
    its (i, j, k) coefficient of x_l is t[i, j, k] + t[j, k, i] + t[k, i, j], a sum of 3d
    products; s is t computed from |c|, the sum of their absolute values."""
    d, absc = len(c), np.abs(c)
    i, j, k = np.array(list(combinations(range(d), 3)), dtype=int).reshape(-1, 3).T
    for l in range(d):
        t, s = (np.tensordot(a, a[l], axes=(0, 0)) for a in (c, absc))
        yield (t[i, j, k] + t[j, k, i] + t[k, i, j], s[i, j, k] + s[j, k, i] + s[k, i, j], 3 * d,
               lambda r, l=l: ((int(i[r]), int(j[r]), int(k[r])), unit_exponents(d, l)))


# --------------------------------------------------------------------------
# Lie structures
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
            raise ValueError(f"structure constants must have shape (d, d, d) = "
                             f"{(self.d,) * 3}, got {self.c.shape}")
        if not np.array_equal(self.c, -self.c.transpose(0, 2, 1)):
            raise ValueError("structure constants are not antisymmetric in the lower indices")
        e = _exponent(self.c)
        _jacobi_gate("structure constants violate", _jacobi_residual(np.ldexp(self.c, -e)), e)

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
    unit = [{unit_exponents(2 * d, i): 1.0} for i in range(2 * d)]
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


def lie_monoid(structure: LieStructure, trunc: int = 4) -> PolyGenFun:
    """S(p1, p2, x) = <x, A(p1, p2)> with A the truncated group law."""
    d = structure.d
    A = truncated_group_law(structure, trunc)
    terms = {}
    for k, comp in enumerate(A):
        xe = unit_exponents(d, k)
        for pe, coeff in comp.items():
            terms[(pe, xe)] = coeff
    kappa = float(np.linalg.norm(structure.c.ravel()))
    radius = np.inf if kappa == 0.0 else 0.5 * math.log(2.0) / kappa
    return PolyGenFun(terms, 2 * d, d, radius,
                      label=f"lie-{structure.name or 'custom'}-trunc{trunc}")


def abelian_monoid(d) -> PolyGenFun:
    """S = <p1 + p2, x>: the additive monoid, zero bivector."""
    terms = {}
    for i in range(d):
        xe = unit_exponents(d, i)
        for slot in range(2):
            terms[(unit_exponents(2 * d, slot * d + i), xe)] = 1.0
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


def symplectic_monoid(d) -> PolyGenFun:
    """S = <p1 + p2, x> + (1/2) p1^T J p2 for the block-standard bivector J."""
    J = standard_bivector(d)
    terms = dict(abelian_monoid(d).terms)
    xe0 = (0,) * d
    for i in range(d):
        for j in range(d):
            if J[i, j] != 0.0:
                terms[(unit_exponents(2 * d, i, d + j), xe0)] = 0.5 * J[i, j]
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
    (verification code must be able to represent broken bivectors); the
    semiclassical builder requires it, read from the coefficients.
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
        self._kernel = PolyKernel.from_polys(list(self.entries.values()), self.d, order=1)

    @classmethod
    def from_constant(cls, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or not np.array_equal(A, -A.T):
            raise ValueError("constant bivector must be an antisymmetric matrix")
        d = A.shape[0]
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
        d, c = structure.d, structure.c
        ent = {}  # the constructor drops the entries that come out empty
        for i in range(d):
            for j in range(i + 1, d):
                ent[(i, j)] = {unit_exponents(d, k): c[k, i, j]
                               for k in range(d) if c[k, i, j] != 0.0}
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
    after checking the Jacobi identity on its coefficients.

    Returns the abelian terms, the first-order symbol
    (1/2) alpha^{ij}(x) p1_i p2_j, and the two tree symbols

        T1 = sum d_l alpha^{ij} alpha^{lk} p1_i p2_j p1_k
        T2 = sum d_l alpha^{ij} alpha^{lk} p1_i p2_j p2_k

    (antisymmetry of alpha makes every other (2,2)-contraction a linear
    combination of these two).  Their sums over the cyclic turns of i < j < k
    are the Jacobiator's coefficients, which :func:`_jacobi_gate` reads.
    """
    d, e = alpha.d, _exponent(alpha.coeff_scale())
    first, t1, t2, jac = {}, {}, {}, {}
    for i in range(d):
        for j in range(d):
            aij = alpha.entry_poly(i, j)
            pe = unit_exponents(2 * d, i, d + j)
            for xe, c in aij.items():
                first[(pe, xe)] = 0.5 * c
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
                        pk = unit_exponents(2 * d, i, d + j, slot)
                        for xe, c in prod.items():
                            tree[(pk, xe)] = tree.get((pk, xe), 0.0) + c
                    if (i < j) + (j < k) + (k < i) == 2:  # a cyclic turn of i < j < k
                        for (ea, ca), (eb, cb) in product(dij.items(), alk.items()):
                            key = (tuple(sorted((i, j, k))), tuple(x + y for x, y in zip(ea, eb)))
                            # J, the sum of |products|, and the roundings of a product: its
                            # own, its derivative factor's, and one per addition
                            acc = jac.setdefault(key, [0.0, 0.0, 1])
                            q = math.ldexp(ca, -e) * math.ldexp(cb, -e)
                            acc[:] = acc[0] + q, acc[1] + abs(q), acc[2] + 1
    keys = list(jac)
    J, size, n = np.array(list(jac.values())).reshape(-1, 3).T
    _jacobi_gate("bivector violates", [(J, size, n, keys.__getitem__)], e)
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
    kappa = abs(eps) * alpha.coeff_scale()
    radius = np.inf if kappa == 0.0 else 0.5 / kappa
    return PolyGenFun(terms, 2 * d, d, radius,
                      label=f"kontsevich-d{d}-order{order}-eps{eps:g}")


def kontsevich_monoid(alpha: PolyPoisson, eps: float = 1.0, order: int = 1,
                      weights=None) -> PolyGenFun:
    """Semiclassical monoid genfun for a polynomial bivector.

    order=1:  S = <p1+p2, x> + (eps/2) alpha^{ij}(x) p1_i p2_j
    order=2:  adds eps^2 (c1 T1 + c2 T2) with (c1, c2) from the
              associativity fit (or ``weights``, taken at order 2 only).

    The bivector must satisfy the Jacobi identity, which :func:`_symbols`
    reads from its coefficients.  Raises :class:`Order2GateError` when the
    fit floor exceeds the gate.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if weights is not None and order != 2:
        raise ValueError(f"tree weights need order 2, got order {order}")
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

def _fit_instances():
    """Bivectors used by the weight fit: one linear (so3) and one
    non-linear d=2 instance (any single-entry bivector is Poisson)."""
    lin = PolyPoisson.linear_from_structure(LieStructure.so3()).scaled(0.6)
    quad = PolyPoisson(2, {(0, 1): {(0, 0): 0.4, (1, 0): 0.3, (2, 0): 0.25}})
    return [lin, quad]


def _fit_rows(seed, n_points):
    """The eps^2 coefficient ``A c + b`` of the associativity defect at each
    row (fit instance, sample point), affine in the tree weights ``c``.

    The trees enter at eps^2, so there they act through their values at the
    explicit critical point of <p1 + p2, x>: column T of ``A`` is the
    coboundary, the order-2 associativity equation of the formal symplectic
    groupoid (Cattaneo, Dherin & Felder, CMP 253, 2005),

        dT = T(p1 + p2, p3, x) + T(p1, p2, x) - T(p1, p2 + p3, x) - T(p2, p3, x).

    ``b`` is the weight-free monoid's defect, with no Newton solve: each
    triple product's slot-form phase L0 + eps L1 is linear in eps, so its
    eps^2 term is the second variation -g (hess L0)^-1 g / 2, g = grad L1,
    at the critical point (q, y) = (p1 + p2, x) of L0.  There hess L0 =
    [[0, -I], [-I, 0]] makes it g_q . g_y, with g_q = alpha(x) p3 / 2 and
    g_y = d alpha(x)[p1, p2] / 2 on the left, g_q = alpha(x)^T p1 / 2 and
    g_y = d alpha(x)[p2, p3] / 2 on the right.
    """
    cols, consts = [], []
    for inst_idx, alpha in enumerate(_fit_instances()):
        d = alpha.d
        symbols = _symbols(alpha)
        ps = sample_ball(n_points, 3 * d, 0.35, seed=seed + 100 * inst_idx)
        xs = sample_box(n_points, d, -0.9, 0.9, seed=seed + 100 * inst_idx + 1)
        p1, p2, p3 = ps[:, :d], ps[:, d:2 * d], ps[:, 2 * d:]
        al, dal = alpha.matrix_jet(xs, 1)
        left = np.einsum("blk,bk,bijl,bi,bj->b", al, p3, dal, p1, p2)
        right = np.einsum("bkl,bk,bijl,bi,bj->b", al, p1, dal, p2, p3)
        consts.append((left - right) / 4)
        trees = PolyKernel.from_polys(
            [{pe + xe: c for (pe, xe), c in tree.items()} for tree in symbols[2]], 3 * d, order=0)
        T = [trees.jet(np.concatenate([u, v, xs], axis=1), 0)[0]
             for u, v in ((p1 + p2, p3), (p1, p2), (p1, p2 + p3), (p2, p3))]
        cols.append(T[0] + T[1] - T[2] - T[3])
    return np.concatenate(cols), np.concatenate(consts)


@lru_cache(maxsize=None)
def fit_tree_weights(seed: int = 11, n_points: int = 24) -> TreeWeightFit:
    """Determine the order-2 tree weights by least squares on the affine
    system of :func:`_fit_rows`.  The floor (its residual, in
    eps^2-coefficient units) reports how associative the fitted order-2
    monoid can possibly be.
    """
    A, b = _fit_rows(seed, n_points)
    sol, *_ = np.linalg.lstsq(A, -b, rcond=None)
    floor = float(np.max(np.abs(A @ sol + b), initial=0.0))
    return TreeWeightFit(float(sol[0]), float(sol[1]), floor,
                         n_rows=len(b), seed=seed)
