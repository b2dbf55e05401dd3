"""Independent oracles the tests check the library against.

The Lie group law by matrix functions: ``group_log(rep, u, v)`` is
``log(exp(u) exp(v))`` computed in a faithful matrix representation
(``MatrixRep``, ``builtin_rep``) and pulled back to algebra coordinates, to
compare with a truncated group law evaluated by ``group_law_poly_eval``.
``mat_exp`` is scaling-and-squaring of a Taylor core, ``mat_log`` inverse
scaling (repeated principal square roots via the Denman-Beavers iteration)
followed by a Mercator series.  Matrices are plain ``numpy.ndarray``;
inputs here are tiny (<= 10 x 10 group representations), so simplicity and
verifiable series truncation beat cleverness.

The polynomial-kernel oracle: ``gather_reduce_jet`` evaluates a
:class:`symgf.jets.PolyKernel` from the kernel's own partial table by one
gather of every monomial's power columns, a product over them and scaled
sums in an entries-then-outputs layout: the evaluation the kernel's
column-by-column products must reproduce bit for bit.

The order-2 associativity oracle: ``composite_defect_eps2`` measures the
eps^2 coefficient of a semiclassical monoid's associativity defect through
the composition engine, by Newton solves at eps / 2^i and Richardson
elimination (``richardson_leading``), to check the closed-form fit against.

The jet paths a polynomial genfun short-cuts: ``jet_bivector`` reads a
monoid's bivector and its derivatives from the order-2 and order-3 jets of
S at p = 0, to check the coefficient-read bivector against; ``Undeclared``
hides a genfun's polynomial form and its base-linearity, so compositions with
it start at the anchor and take Newton, the reference for the explicit start.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from symgf.genfun import GenFun
from symgf.jets import PolyKernel

_TAYLOR_THETA = 0.25  # scale ||A|| below this before the exp Taylor core
_LOG_THETA = 0.25     # take square roots until ||M - I|| is below this


def mat_exp(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling-and-squaring with a convergent Taylor core."""
    A = np.asarray(A, dtype=float)
    _check_square(A)
    norm = np.linalg.norm(A, ord=np.inf)
    s = 0
    if norm > _TAYLOR_THETA:
        s = int(np.ceil(np.log2(norm / _TAYLOR_THETA)))
    B = A / (2.0 ** s)
    E = _exp_taylor(B)
    for _ in range(s):
        E = E @ E
    return E


def _exp_taylor(B, max_terms=30):
    n = B.shape[0]
    term = np.eye(n)
    acc = np.eye(n)
    for k in range(1, max_terms + 1):
        term = term @ B / k
        acc = acc + term
        if np.linalg.norm(term, ord=np.inf) < 1e-18 * max(1.0, np.linalg.norm(acc, ord=np.inf)):
            break
    return acc


def mat_log(M: np.ndarray, max_sqrt=40) -> np.ndarray:
    """Principal log of a matrix with no eigenvalues on the closed negative
    real axis.  Inverse scaling-and-squaring: sqrt until close to I, then
    log(I + X) = X - X^2/2 + X^3/3 - ...
    """
    M = np.asarray(M, dtype=float)
    _check_square(M)
    n = M.shape[0]
    Y = M.copy()
    s = 0
    while np.linalg.norm(Y - np.eye(n), ord=np.inf) > _LOG_THETA:
        if s >= max_sqrt:
            raise np.linalg.LinAlgError("mat_log: inverse scaling did not contract toward I")
        Y = _sqrtm_db(Y)
        s += 1
    L = _log_mercator(Y - np.eye(n))
    return (2.0 ** s) * L


def _log_mercator(X, max_terms=60):
    acc = np.zeros_like(X)
    P = np.eye(X.shape[0])
    for k in range(1, max_terms + 1):
        P = P @ X
        acc = acc + ((-1.0) ** (k + 1) / k) * P
        if np.linalg.norm(P, ord=np.inf) / k < 1e-18:
            break
    return acc


def _sqrtm_db(M, tol=1e-15, max_iter=60):
    """Principal square root by the Denman-Beavers iteration."""
    Y = M.copy()
    Z = np.eye(M.shape[0])
    for _ in range(max_iter):
        Yn = 0.5 * (Y + np.linalg.inv(Z))
        Zn = 0.5 * (Z + np.linalg.inv(Y))
        delta = np.linalg.norm(Yn - Y, ord=np.inf)
        Y, Z = Yn, Zn
        if delta < tol * max(1.0, np.linalg.norm(Y, ord=np.inf)):
            break
    else:
        raise np.linalg.LinAlgError("matrix square root iteration did not converge")
    return Y


def _check_square(A):
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")


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


def group_law_poly_eval(A, p1, p2):
    """Evaluate a truncated group law at numeric (p1, p2)."""
    pt = np.concatenate([np.asarray(p1, float), np.asarray(p2, float)])
    return PolyKernel.from_polys(A, pt.size).jet(pt, 0)[0]


def gather_reduce_jet(kernel, v, order):
    """``kernel.jet(v, order)`` by the ``(B, M, width)`` gather of the power
    columns, ``np.multiply.reduce`` over its last axis and ``np.add.reduceat``
    over the entries of a ``(B, N, k)`` layout, from the kernel's partial table."""
    kernel.jet(np.zeros(kernel.n), 0)  # the table, built on first use
    tab = kernel._table[0]
    scaled = tab.factor[:, None].astype(float) * kernel.C[tab.term]
    v = np.asarray(v, dtype=float)
    stack = v.reshape(-1, kernel.n)
    with np.errstate(over="ignore", invalid="ignore"):
        N, R, F, M = tab.ends[order]
        dense = np.zeros((len(stack), kernel.k, tab.offsets[order + 1]))
        powers = np.ones((len(stack), kernel.n, kernel._P))
        for r in range(1, kernel._P):
            np.multiply(powers[..., r - 1], stack, out=powers[..., r])
        if R:
            mono = np.multiply.reduce(powers.reshape(len(stack), -1)[:, tab.flat[:M]], axis=2)
            sums = np.add.reduceat(mono[:, tab.inv[:N], None] * scaled[:N], tab.starts[:R], 1)
            dense[:, :, tab.dst[:F]] = sums[:, tab.src[:F]].transpose(0, 2, 1)
    lead = v.shape[:-1] + (kernel.k,)
    return [dense[:, :, tab.offsets[q]:tab.offsets[q + 1]].reshape(lead + (kernel.n,) * q)
            for q in range(order + 1)]


def richardson_leading(values, eps, leading=2):
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


def composite_defect_eps2(alpha, ps, xs, weights=None, eps=0.08, levels=4):
    """The eps^2 coefficient of the associativity defect of the semiclassical
    monoid of ``alpha`` (order 1, or order 2 with tree ``weights``) at each
    sample, from its Newton-solved defect at eps / 2^i, i < ``levels``."""
    from symgf.monoids import _expansion, _symbols
    from symgf.verify import _associativity_defect
    symbols, order = _symbols(alpha), 1 if weights is None else 2
    defect = np.stack([_associativity_defect(
        _expansion(alpha, symbols, eps / 2.0 ** lev, weights, order))(ps, xs)
        for lev in range(levels)], axis=-1)
    return richardson_leading(defect, eps)


def jet_bivector(S, x):
    """``(alpha, dalpha)`` of a monoid genfun S at base points ``x (B, d)``, with
    alpha^{ij} = S_{p1_i p2_j} - S_{p1_j p2_i} and dalpha[..., i, j, l] its x_l
    derivative, read from the order-3 jet of S at p = 0."""
    d = S.n
    j = S.eval_jet(np.zeros((len(x), 2 * d)), x, 3)
    A, T = j.hess[:, :d, d:2 * d], j.third[:, :d, d:2 * d, 2 * d:]
    return A - A.swapaxes(1, 2), T - T.swapaxes(1, 2)


class Undeclared(GenFun):
    """The jets of ``S`` behind a genfun that is no ``PolyGenFun`` and declares
    neither momentum- nor base-linearity (the class defaults)."""

    def __init__(self, S):
        super().__init__(S.m, S.n, S.domain_radius, S.label)
        self.S = S

    def _jet(self, P, X, order):
        return self.S.eval_jet(P, X, order)
