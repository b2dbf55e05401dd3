"""Truncated Taylor expansions (jets) of scalar functions of several variables.

A ``Jet`` stores the value and the symmetric derivative tensors of a smooth
function at a point, truncated at a fixed order <= 3.  All higher-order
structure in this library (Hessians of generating functions, third
derivatives needed for Poisson bivectors of composed functions) is carried
through these objects.  Sparse polynomials are evaluated by one kernel,
:class:`PolyKernel`, which holds every polynomial type of the library
(genfuns, maps, bivectors) as an exponent matrix plus a coefficient matrix.

Conventions
-----------
* ``grad[i] = dF/dv_i``
* ``hess[i, j] = d^2 F / dv_i dv_j`` (symmetric)
* ``third[i, j, k] = d^3 F / dv_i dv_j dv_k`` (fully symmetric)

Derivative tensors above ``order`` are ``None``.  A jet may carry a leading
stack axis of B points: ``value`` of shape ``(B,)``, ``grad`` ``(B, n)`` and
so on; the indices above then count from the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

MAX_ORDER = 3


@dataclass
class Jet:
    """Taylor data of a scalar function of ``nvars`` variables at a point,
    or at each point of a stack (``value`` then has shape ``(B,)``)."""

    order: int
    value: float | np.ndarray
    grad: np.ndarray | None = None
    hess: np.ndarray | None = None
    third: np.ndarray | None = None

    @property
    def nvars(self) -> int:
        return 0 if self.grad is None else self.grad.shape[-1]

    def __post_init__(self):
        if not 0 <= self.order <= MAX_ORDER:
            raise ValueError(f"jet order must be in [0, {MAX_ORDER}], got {self.order}")
        if np.ndim(self.value) == 0:
            self.value = float(self.value)


def jet_const(value, nvars, order) -> Jet:
    """Jet of the constant function ``value`` (one per point for a stack)."""
    lead = np.shape(value)
    g = np.zeros(lead + (nvars,)) if order >= 1 else None
    h = np.zeros(lead + (nvars,) * 2) if order >= 2 else None
    t = np.zeros(lead + (nvars,) * 3) if order >= 3 else None
    return Jet(order, value, g, h, t)


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    out = Jet(a.order, a.value + b.value)
    if a.order >= 1:
        out.grad = a.grad + b.grad
    if a.order >= 2:
        out.hess = a.hess + b.hess
    if a.order >= 3:
        out.third = a.third + b.third
    return out


def _check_compatible(a: Jet, b: Jet):
    if a.order != b.order:
        raise ValueError(f"jet order mismatch: {a.order} vs {b.order}")
    if a.order >= 1 and a.grad.shape != b.grad.shape:
        raise ValueError("jet variable-count mismatch")


def jet_embed(j: Jet, index_map, nvars_out) -> Jet:
    """Re-index a jet into a larger variable space.

    ``index_map[i]`` is the slot in the output space occupied by input
    variable ``i``.  Derivatives with respect to all other output variables
    vanish (the function does not depend on them).
    """
    idx = np.asarray(index_map, dtype=int)
    out = jet_const(j.value, nvars_out, j.order)
    if j.order >= 1:
        out.grad[..., idx] = j.grad
    if j.order >= 2:
        out.hess[..., idx[:, None], idx] = j.hess
    if j.order >= 3:
        out.third[..., idx[:, None, None], idx[:, None], idx] = j.third
    return out


def canonical_poly(items, nvars) -> dict:
    """Canonical form ``{exponent tuple: coeff}`` of a sparse polynomial in
    ``nvars`` variables given as ``(exponents, coeff)`` pairs.

    Keys become int tuples, duplicates are merged and zero coefficients
    dropped, so two polynomials are equal as functions iff their canonical
    dicts are equal.  Raises ValueError on a wrong exponent count or a
    negative exponent (that would be a rational function with a pole).
    """
    out = {}
    for exps, coeff in items:
        exps = tuple(int(e) for e in exps)
        if len(exps) != nvars:
            raise ValueError(f"exponent tuple {exps} has length {len(exps)}, expected {nvars}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponents are not allowed, got {exps}")
        out[exps] = out.get(exps, 0.0) + float(coeff)
    return {e: c for e, c in out.items() if c != 0.0}


class PolyKernel:
    """Exact jets to order 3 of k polynomials in n variables sharing one
    exponent matrix: output o is ``sum_t C[t, o] * prod_i v_i**E[t, i]``.

    Derivatives come from falling-factorial tables, Taylor-mode propagation
    for monomials (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
    ch. 13), built once per order on first use.  A table holds only the
    partials that do not vanish identically: per term, the sorted index
    tuples over the term's support that its exponents allow.  Evaluation is
    a handful of array operations for all orders together, whatever the
    term count, and takes one point or a stack of points in the same body.
    """

    def __init__(self, E, C):
        self.E = np.asarray(E, dtype=np.int64)
        self.C = np.asarray(C, dtype=float)
        if self.E.ndim != 2 or self.C.ndim != 2 or self.C.shape[0] != self.E.shape[0]:
            raise ValueError(f"need E (T, n) and C (T, k), got {self.E.shape} and {self.C.shape}")
        self.n = self.E.shape[1]
        self.k = self.C.shape[1]
        self._powers = np.arange(int(self.E.max(initial=0)) + 1, dtype=float)
        self._tables = [None] * (MAX_ORDER + 1)

    @classmethod
    def from_polys(cls, polys, nvars):
        """Kernel of canonical polynomial dicts over ``nvars`` variables,
        one output per dict."""
        rows = {}
        for poly in polys:
            for e in poly:
                rows.setdefault(e, len(rows))
        C = np.zeros((len(rows), len(polys)))
        for o, poly in enumerate(polys):
            for e, c in poly.items():
                C[rows[e], o] = c
        return cls(np.array(list(rows), dtype=np.int64).reshape(len(rows), nvars), C)

    def jet(self, v, order) -> list:
        """``[value (k,), jac (k, n), hess (k, n, n), third (k, n, n, n)]`` at
        ``v``, truncated after ``order``.  For a stack ``v`` of shape
        ``(B, n)`` every output gets a leading ``B`` axis."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.n,) or v.ndim > 2:
            raise ValueError(f"point has shape {v.shape}, expected ({self.n},) or (B, {self.n})")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in [0, {MAX_ORDER}], got {order}")
        stack = v.reshape(-1, self.n)
        # powers[b, i * P + r] = v_bi**r, with 0**0 = 1
        powers = (stack[:, :, None] ** self._powers).reshape(len(stack), -1)
        if self._tables[order] is None:
            self._tables[order] = _PartialTable(self.E, self.C, order, self._powers.size)
        tab = self._tables[order]
        dense = np.zeros((len(stack), self.k, tab.offsets[-1]))
        if tab.starts.size:
            mono = np.multiply.reduce(powers[:, tab.flat], axis=2)
            sums = np.add.reduceat(mono[:, :, None] * tab.scaled, tab.starts, axis=1)
            dense[:, :, tab.dst] = sums[:, tab.src].transpose(0, 2, 1)
        lead = v.shape[:-1] + (self.k,)
        return [dense[:, :, tab.offsets[q]:tab.offsets[q + 1]].reshape(lead + (self.n,) * q)
                for q in range(order + 1)]


class _PartialTable:
    """The nonzero partials of orders 0..``order`` of a :class:`PolyKernel`.

    Entry r differentiates term ``t`` along a sorted index tuple ``w``: it
    leaves the monomial ``prod_j powers[flat[r, j]]`` (``flat = i * P + e``
    picks ``v_i**e`` out of the flattened power table) times
    ``scaled[r] = (falling factorial of E[t] along w) * C[t]``.  ``flat``
    runs over the support of the reduced exponents in ascending order,
    padded with exponent 0, so it is at most the total degree wide.  Entries
    are sorted by ``(len(w), w)``, so ``starts`` delimits the runs that
    ``reduceat`` sums; run ``src[i]`` fills position ``dst[i]`` of the
    flattened dense tensors of all orders, order q at ``offsets[q]``, once
    per distinct permutation of its ``w``.
    """

    def __init__(self, E, C, order, P):
        n = E.shape[1]
        keys, terms, reduced, factors = [], [], [], []
        for t, e in enumerate(E.tolist()):
            support = [i for i, ei in enumerate(e) if ei]
            for q in range(order + 1):
                for w in combinations_with_replacement(support, q):
                    r = list(e)
                    f = 1
                    for i in w:
                        f *= r[i]
                        r[i] -= 1
                    if f:
                        keys.append((q, w))
                        terms.append(t)
                        reduced.append(r)
                        factors.append(f)
        rank = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[r] for r in rank]
        reduced = np.array(reduced, dtype=np.int64).reshape(len(keys), n)[rank]
        support = reduced > 0
        width = int(support.sum(axis=1).max(initial=0))
        cols = np.argsort(~support, axis=1, kind="stable")[:, :width]
        self.flat = cols * P + np.take_along_axis(reduced, cols, axis=1)
        self.scaled = (np.array(factors, dtype=float)[:, None] * C[terms])[rank]
        self.starts = np.array([r for r in range(len(keys)) if r == 0 or keys[r] != keys[r - 1]],
                               dtype=np.int64)
        self.offsets = np.cumsum([0] + [n ** q for q in range(order + 1)])
        src, dst = [], []
        for u, r in enumerate(self.starts):
            q, w = keys[r]
            for perm in set(permutations(w)):
                flat = 0
                for i in perm:
                    flat = flat * n + i
                src.append(u)
                dst.append(self.offsets[q] + flat)
        self.src = np.array(src, dtype=np.int64)
        self.dst = np.array(dst, dtype=np.int64)


def poly_term_jet(coeff, exps, point, order) -> Jet:
    """Exact jet of the monomial ``coeff * prod_i v_i**exps[i]`` at ``point``.

    The one-term reference that :class:`PolyKernel` is tested against.
    """
    exps = np.asarray(exps, dtype=int)
    point = np.asarray(point, dtype=float)
    n = exps.shape[0]
    out = jet_const(0.0, n, order)
    out.value = coeff * _mono(point, exps)
    if order >= 1:
        for i in np.nonzero(exps)[0]:
            out.grad[i] = coeff * _dmono(point, exps, (i,))
    if order >= 2:
        for i in range(n):
            for jv in range(i, n):
                v = coeff * _dmono(point, exps, (i, jv))
                if v != 0.0:
                    out.hess[i, jv] = v
                    out.hess[jv, i] = v
    if order >= 3:
        for i in range(n):
            for jv in range(i, n):
                for k in range(jv, n):
                    v = coeff * _dmono(point, exps, (i, jv, k))
                    if v != 0.0:
                        for perm in {(i, jv, k), (i, k, jv), (jv, i, k),
                                     (jv, k, i), (k, i, jv), (k, jv, i)}:
                            out.third[perm] = v
    return out


def _mono(point, exps):
    v = 1.0
    for i in np.nonzero(exps)[0]:
        v *= point[i] ** exps[i]
    return v


def _dmono(point, exps, wrt):
    """Partial derivative of the monomial with exponents ``exps`` at ``point``,
    differentiated once per entry of ``wrt`` (repeats allowed)."""
    e = exps.copy()
    c = 1.0
    for i in wrt:
        if e[i] == 0:
            return 0.0
        c *= e[i]
        e[i] -= 1
    return c * _mono(point, e)
