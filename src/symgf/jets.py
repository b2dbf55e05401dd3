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
from itertools import accumulate, combinations_with_replacement, permutations
from math import factorial

import numpy as np

MAX_ORDER = 3


@dataclass
class Jet:
    """Taylor data of a scalar function of several variables at a point,
    or at each point of a stack (``value`` then has shape ``(B,)``)."""

    order: int
    value: float | np.ndarray
    grad: np.ndarray | None = None
    hess: np.ndarray | None = None
    third: np.ndarray | None = None

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


def jet_sum(nvars, *parts) -> Jet:
    """The jet of a sum of functions of disjoint variables over ``nvars`` variables.

    Each part is ``(jet, index_map)``: ``index_map[i]`` is the slot in the
    output space of the part's variable ``i``, and mixed derivatives across
    parts vanish.  Every part has the output's order, the first part's.
    """
    first, order = parts[0][0], parts[0][0].order
    out = jet_const(sum((j.value for j, _ in parts[1:]), first.value), nvars, order)
    for j, index_map in parts:
        idx = np.asarray(index_map, dtype=int)
        if order >= 1:
            out.grad[..., idx] += j.grad
        if order >= 2:
            out.hess[..., idx[:, None], idx] += j.hess
        if order >= 3:
            out.third[..., idx[:, None, None], idx[:, None], idx] += j.third
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


def unit_exponents(n, *slots) -> tuple:
    """Exponent tuple of the monomial ``prod v_s`` over ``slots`` in ``n``
    variables; a repeated slot raises its power."""
    e = [0] * n
    for s in slots:
        e[s] += 1
    return tuple(e)


class PolyKernel:
    """Exact jets up to ``order`` <= 3 of k polynomials in n variables sharing one
    exponent matrix: output o is ``sum_t C[t, o] * prod_i v_i**E[t, i]``.

    Derivatives come from a falling-factorial table, Taylor-mode propagation for
    monomials (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13), built
    to ``order`` on the first jet and scaled by ``C`` once; a jet of order o reads its
    order-o prefix, and one above ``order`` raises ValueError.  It holds only the
    partials that do not vanish identically: per term, the sorted index tuples over
    its support that its exponents allow.  Evaluation is a handful of array operations
    for all orders together, whatever the term count, on one point or a stack of
    points: the powers ``v_i**r`` by repeated products, one gather and product per
    distinct monomial of the partials (a common subexpression), then the scaled sums.
    """

    def __init__(self, E, C, order=MAX_ORDER):
        self.E = np.asarray(E, dtype=np.int64)
        self.C = np.asarray(C, dtype=float)
        if self.E.ndim != 2 or self.C.ndim != 2 or self.C.shape[0] != self.E.shape[0]:
            raise ValueError(f"need E (T, n) and C (T, k), got {self.E.shape} and {self.C.shape}")
        self.n = self.E.shape[1]
        self.k = self.C.shape[1]
        self.order = order
        self._P = int(self.E.max(initial=0)) + 1  # powers v_i**0 .. v_i**(P - 1)
        self._table = None  # (the table, its scaled coefficients)

    @classmethod
    def from_polys(cls, polys, nvars, order=MAX_ORDER):
        """Kernel of canonical polynomial dicts over ``nvars`` variables,
        one output per dict, with jets up to ``order``."""
        rows = {}
        for poly in polys:
            for e in poly:
                rows.setdefault(e, len(rows))
        C = np.zeros((len(rows), len(polys)))
        for o, poly in enumerate(polys):
            for e, c in poly.items():
                C[rows[e], o] = c
        return cls(np.array(list(rows), dtype=np.int64).reshape(len(rows), nvars), C, order)

    def jet(self, v, order) -> list:
        """``[value (k,), jac (k, n), hess (k, n, n), third (k, n, n, n)]`` at
        ``v``, truncated after ``order``.  For a stack ``v`` of shape
        ``(B, n)`` every output gets a leading ``B`` axis."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.n,) or v.ndim > 2:
            raise ValueError(f"point has shape {v.shape}, expected ({self.n},) or (B, {self.n})")
        if not 0 <= order <= self.order:
            raise ValueError(f"jet order must be in [0, {self.order}], got {order}")
        stack = v.reshape(-1, self.n)
        # far out the powers, and huge scaled coefficients, overflow; the caller classifies it
        with np.errstate(over="ignore", invalid="ignore"):
            if self._table is None:
                tab = _PartialTable(self.E, self.order)
                self._table = tab, tab.factor[:, None].astype(float) * self.C[tab.term]
            tab, scaled = self._table
            N, R, F, M = tab.ends[order]  # the prefix: entries, runs, fills, monomials
            dense = np.zeros((len(stack), self.k, tab.offsets[order + 1]))
            # powers[b, i, r] = v_bi**r, one IEEE product per step, with 0**0 = 1
            powers = np.ones((len(stack), self.n, self._P))
            for r in range(1, self._P):
                np.multiply(powers[..., r - 1], stack, out=powers[..., r])
            if R:
                mono = np.multiply.reduce(powers.reshape(len(stack), -1)[:, tab.flat[:M]], axis=2)
                sums = np.add.reduceat(mono[:, tab.inv[:N], None] * scaled[:N], tab.starts[:R], 1)
                dense[:, :, tab.dst[:F]] = sums[:, tab.src[:F]].transpose(0, 2, 1)
        lead = v.shape[:-1] + (self.k,)
        return [dense[:, :, tab.offsets[q]:tab.offsets[q + 1]].reshape(lead + (self.n,) * q)
                for q in range(order + 1)]


class _PartialTable:
    """The nonzero partials of orders 0..``order`` of the monomials ``E``.

    Entry r differentiates term ``t = term[r]`` along a sorted index tuple
    ``w``: it leaves the monomial ``prod_j powers[flat[inv[r], j]]`` (``flat
    = i * P + e`` picks ``v_i**e`` out of the flattened power table) times
    the falling factorial ``factor[r]`` of ``E[t]`` along ``w``.  Each row of
    ``flat``, a distinct monomial, runs over the support of its exponents in
    ascending order, padded with exponent 0, at most the total degree wide.  Entries
    are sorted by ``(len(w), w)``, then by term, so ``starts`` delimits the
    runs that ``reduceat`` sums; run ``src[i]`` fills position ``dst[i]`` of
    the flattened dense tensors of all orders, order q at ``offsets[q]``,
    once per distinct permutation of its ``w``.  Monomials are numbered by first
    use, so orders 0..o are a prefix of each array, of lengths ``ends[o]``.  Order
    0 is the terms themselves, and order q is order q - 1 differentiated once more.
    """

    def __init__(self, E, order):
        T, n = E.shape
        P = int(E.max(initial=0)) + 1
        self.offsets = np.array([0, *accumulate(n ** q for q in range(order + 1))])
        # order q differentiates each entry of order q - 1 once more along every variable i
        # at or after the last of its w where its reduced exponent is positive; code is the
        # base-n code of w, so w of order q sits at offsets[q] + code
        term, factor, reduced, code = np.arange(T), np.ones(T, np.int64), E, np.zeros(T, np.int64)
        orders = [(term, factor, reduced, code)]
        for _ in range(order):
            rows, i = np.nonzero((reduced > 0) & (np.arange(n) >= code[:, None] % n))
            rank = np.argsort(code[rows] * n + i, kind="stable")  # by w, then by term
            rows, i = rows[rank], i[rank]
            factor, term, code = factor[rows] * reduced[rows, i], term[rows], code[rows] * n + i
            reduced = reduced[rows]
            reduced[np.arange(rows.size), i] -= 1
            orders.append((term, factor, reduced, code))
        q = np.repeat(np.arange(order + 1), [len(o[0]) for o in orders])
        term, factor, reduced, code = (np.concatenate(a) for a in zip(*orders))
        self.starts, self.term, self.factor = _firsts(self.offsets[q] + code), term, factor
        support = reduced > 0
        width = int(support.sum(axis=1).max(initial=0))
        cols = np.argsort(~support, axis=1, kind="stable")[:, :width]
        flat = cols * P + reduced[np.arange(term.size)[:, None], cols]
        key, size = np.zeros(term.size, dtype=np.int64), 1
        for col in flat.T:  # a mixed-radix key per row, ranked before it could overflow
            if size * n * P > 2 ** 62:
                size, key = term.size, np.unique(key, return_inverse=True)[1]
            key, size = key * (n * P) + col, size * n * P
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        used = np.sort(first)  # the entry that first uses each monomial, in order
        self.flat, self.inv = flat[used], np.searchsorted(used, first)[inv]
        # run i fills the position of each distinct permutation of its w: sort
        # each run's positions and drop repeats (runs fill disjoint positions)
        run_q, place = q[self.starts], n ** np.arange(MAX_ORDER - 1, -1, -1)
        digits = code[self.starts, None] // place % n  # w, padded on the left with 0
        codes = digits[np.arange(run_q.size)[:, None, None], _PERMUTATIONS[run_q]] @ place
        dst = np.sort(self.offsets[run_q, None] + codes, axis=1).ravel()
        first = _firsts(dst)
        self.dst, self.src = dst[first], first // _PERMUTATIONS.shape[1]
        N, R = (np.searchsorted(a, np.arange(order + 1), "right") for a in (q, run_q))
        self.ends = np.stack([N, R, np.searchsorted(self.src, R), np.searchsorted(used, N)], 1)
        for a in vars(self).values():  # read-only: every jet reads the table as built
            a.flags.writeable = False


# _PERMUTATIONS[q]: the permutations of the last q of MAX_ORDER places, MAX_ORDER! rows
_PERMUTATIONS = np.array([[tuple(range(MAX_ORDER - q)) + p
                           for p in permutations(range(MAX_ORDER - q, MAX_ORDER))]
                          * (factorial(MAX_ORDER) // factorial(q)) for q in range(MAX_ORDER + 1)])


def _firsts(a):
    """Indices where the sorted array ``a`` takes a new value."""
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1]))[:a.size])


def poly_term_jet(coeff, exps, point, order) -> Jet:
    """Exact jet of the monomial ``coeff * prod_i v_i**exps[i]`` at ``point``.

    The one-term reference that :class:`PolyKernel` is tested against.
    """
    exps = np.asarray(exps, dtype=int)
    point = np.asarray(point, dtype=float)
    out = jet_const(coeff * _dmono(point, exps, ()), exps.shape[0], order)
    for q, tensor in enumerate((out.grad, out.hess, out.third)[:order], 1):
        for w in combinations_with_replacement(range(exps.shape[0]), q):
            v = coeff * _dmono(point, exps, w)
            if v != 0.0:
                for perm in set(permutations(w)):
                    tensor[perm] = v
    return out


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
    v = 1.0
    for i in np.nonzero(e)[0]:
        v *= point[i] ** e[i]
    return c * v
