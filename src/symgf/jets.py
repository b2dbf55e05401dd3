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
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, permutations
from math import comb, factorial

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
    ch. 13), shared per exponent matrix and scaled by ``C`` once per order;
    they hold only the partials that do not vanish identically: per term,
    the sorted index tuples over its support that its exponents allow.
    Evaluation is a handful of array operations for all orders together,
    whatever the term count, on one point or a stack of points.
    """

    def __init__(self, E, C):
        self.E = np.asarray(E, dtype=np.int64)
        self.C = np.asarray(C, dtype=float)
        if self.E.ndim != 2 or self.C.ndim != 2 or self.C.shape[0] != self.E.shape[0]:
            raise ValueError(f"need E (T, n) and C (T, k), got {self.E.shape} and {self.C.shape}")
        self.n = self.E.shape[1]
        self.k = self.C.shape[1]
        self._powers = np.arange(int(self.E.max(initial=0)) + 1, dtype=float)
        self._tables = [None] * (MAX_ORDER + 1)  # (shared table, its scaled coefficients)

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
        if self._tables[order] is None:
            tab = _shared_table(self.E.shape, self.E.tobytes(), order)
            self._tables[order] = tab, tab.factor[:, None].astype(float) * self.C[tab.term]
        tab, scaled = self._tables[order]
        dense = np.zeros((len(stack), self.k, tab.offsets[-1]))
        # far out the powers overflow; the caller classifies the non-finite jet
        with np.errstate(over="ignore", invalid="ignore"):
            # powers[b, i * P + r] = v_bi**r, with 0**0 = 1
            powers = (stack[:, :, None] ** self._powers).reshape(len(stack), -1)
            if tab.starts.size:
                mono = np.multiply.reduce(powers[:, tab.flat], axis=2)
                sums = np.add.reduceat(mono[:, :, None] * scaled, tab.starts, axis=1)
                dense[:, :, tab.dst] = sums[:, tab.src].transpose(0, 2, 1)
        lead = v.shape[:-1] + (self.k,)
        return [dense[:, :, tab.offsets[q]:tab.offsets[q + 1]].reshape(lead + (self.n,) * q)
                for q in range(order + 1)]


# bounded: 64 entries hold the 10 (E, order) pairs of the order-2 fit and a check's few
@lru_cache(maxsize=64)
def _shared_table(shape, data, order):
    E = np.frombuffer(data, dtype=np.int64).reshape(shape)
    return _PartialTable(E, order, int(E.max(initial=0)) + 1)


class _PartialTable:
    """The nonzero partials of orders 0..``order`` of the monomials ``E``.

    Entry r differentiates term ``t = term[r]`` along a sorted index tuple
    ``w``: it leaves the monomial ``prod_j powers[flat[r, j]]`` (``flat = i
    * P + e`` picks ``v_i**e`` out of the flattened power table) times the
    falling factorial ``factor[r]`` of ``E[t]`` along ``w``.  ``flat``
    runs over the support of the reduced exponents in ascending order,
    padded with exponent 0, so it is at most the total degree wide.  Entries
    are sorted by ``(len(w), w)``, then by term, so ``starts`` delimits the
    runs that ``reduceat`` sums; run ``src[i]`` fills position ``dst[i]`` of
    the flattened dense tensors of all orders, order q at ``offsets[q]``,
    once per distinct permutation of its ``w``.  The table is built with
    array operations over all terms, each enumerating its own support.
    """

    def __init__(self, E, order, P):
        T, n = E.shape
        self.offsets = np.array([0, *accumulate(n ** q for q in range(order + 1))])
        # support[t, a]: the a-th column where E[t] > 0; the negative slots that
        # pad a tuple w to `order` places are column n, of exponent 1
        size = (E > 0).sum(axis=1)
        smax = int(size.max(initial=0))
        support = np.full((T, smax + order), n)
        support[:, :smax] = np.argsort(E == 0, axis=1, kind="stable")[:, :smax]
        E1 = np.concatenate((E, np.ones((T, 1), np.int64)), axis=1)
        # the sorted tuples of at most `order` slots, right-aligned and ordered by
        # their largest slot: the first comb(s + order, order) range over s slots;
        # with each, how often each place's slot occurs in the places before it
        tuples = [()] + [w + (s,) for s in range(smax) for q in range(order)
                         for w in combinations_with_replacement(range(s + 1), q)]
        slots = np.array([tuple(range(len(w) - order, 0)) + w for w in tuples], dtype=np.int64)
        before = ((slots[:, :, None] == slots[:, None, :])
                  & (np.arange(order) < np.arange(order)[:, None])).sum(axis=2)
        # term t enumerates the tuples over its own support
        count = np.array([comb(s + order, order) for s in range(smax + 1)])[size]
        term, begin = np.repeat(np.arange(T), count), np.cumsum(count) - count
        m = np.arange(term.size) - np.repeat(begin, count)
        cols = support[term[:, None], slots[m]]
        # the falling factorial of E[t] along w, zero where w exceeds an exponent
        factor = (E1[term[:, None], cols] - before[m]).prod(axis=1)
        keep = np.flatnonzero(factor)
        term, cols, factor = term[keep], cols[keep], factor[keep]
        # w of order q sits at offsets[q] + digits @ place, with digit 0 on the padding
        q = (cols < n).sum(axis=1)
        digits = cols * (cols < n)
        place = n ** np.arange(order - 1, -1, -1)
        key = self.offsets[q] + digits @ place
        rank = np.lexsort((term, key))  # by (q, w), then by term
        term, cols, factor, q, key, digits = (a[rank] for a in (term, cols, factor, q, key, digits))
        self.starts = _firsts(key)
        reduced = E1[term]
        np.subtract.at(reduced, (np.arange(term.size)[:, None], cols), 1)
        support = reduced[:, :n] > 0
        width = int(support.sum(axis=1).max(initial=0))
        cols = np.argsort(~support, axis=1, kind="stable")[:, :width]
        self.flat = cols * P + reduced[np.arange(term.size)[:, None], cols]
        self.factor, self.term = factor, term
        # run i fills the position of each distinct permutation of its w: sort
        # each run's positions and drop repeats (runs fill disjoint positions)
        perms = _PERMUTATIONS[:order + 1, :, MAX_ORDER - order:] - (MAX_ORDER - order)
        run_q = q[self.starts]
        codes = digits[self.starts[:, None, None], perms[run_q]] @ place
        dst = np.sort(self.offsets[run_q, None] + codes, axis=1).ravel()
        first = _firsts(dst)
        self.dst, self.src = dst[first], first // perms.shape[1]
        for a in vars(self).values():  # shared by every kernel with this E
            a.flags.writeable = False


# _PERMUTATIONS[q]: the permutations of the last q of MAX_ORDER places, repeated
# to MAX_ORDER! rows; shifted down, its last `order` columns permute `order` places
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
