import tracemalloc
import warnings
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symgf import (LieStructure, PolyGenFun, PolyMap, PolyPoisson, kontsevich_monoid,
                   lie_monoid, poly_genfun, symplectic_monoid)
from symgf.cli import MAX_DIM
from symgf.jets import PolyKernel, _PartialTable, jet_sum, poly_term_jet

from conftest import fd_grad
from oracles import gather_reduce_jet


coeffs = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


def _poly_value(coeff, exps, z):
    out = coeff
    for zi, e in zip(z, exps):
        out *= zi ** e
    return out


@given(st.lists(st.integers(0, 3), min_size=2, max_size=4), coeffs)
def test_poly_term_jet_gradient_matches_fd(exps, coeff):
    z = np.linspace(0.3, 1.1, len(exps))
    j = poly_term_jet(coeff, tuple(exps), z, 2)
    assert j.value == pytest.approx(_poly_value(coeff, exps, z), rel=1e-12, abs=1e-12)
    g = fd_grad(lambda w: _poly_value(coeff, exps, w), z)
    np.testing.assert_allclose(j.grad, g, rtol=1e-6, atol=1e-6)


def test_poly_term_jet_third_order_symmetry():
    j = poly_term_jet(1.7, (2, 1, 3), np.array([0.5, -0.8, 1.2]), 3)
    t = j.third
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        np.testing.assert_array_equal(t, np.transpose(t, perm))


def test_poly_term_jet_exact_quadratic():
    # z0^2: value, grad, hess, third all closed form
    j = poly_term_jet(2.0, (2, 0), np.array([3.0, 5.0]), 3)
    assert j.value == 18.0
    np.testing.assert_array_equal(j.grad, [12.0, 0.0])
    np.testing.assert_array_equal(j.hess, [[4.0, 0.0], [0.0, 0.0]])
    assert np.all(j.third == 0.0)


def test_jet_sum_scatters_disjoint_parts():
    # u w**2 on the slots (2, 0) plus 0.5 y**3 z on (3, 1): the sum of the two
    # monomials written over all four variables
    v = np.array([0.25, -1.3, 0.6, 0.8])
    for order in range(4):
        got = jet_sum(4, (poly_term_jet(1.0, (1, 2), v[[2, 0]], order), (2, 0)),
                      (poly_term_jet(0.5, (3, 1), v[[3, 1]], order), (3, 1)))
        a, b = (poly_term_jet(c, e, v, order) for c, e in ((1.0, (2, 0, 1, 0)), (0.5, (0, 1, 0, 3))))
        assert got.order == order
        np.testing.assert_allclose(got.value, a.value + b.value, rtol=1e-12)
        for name in ("grad", "hess", "third")[:order]:
            np.testing.assert_allclose(getattr(got, name), getattr(a, name) + getattr(b, name),
                                       rtol=1e-12)


def test_zero_exponent_at_zero_point():
    # 0^0 must count as 1 in monomial evaluation
    j = poly_term_jet(3.0, (0, 1), np.array([0.0, 2.0]), 1)
    assert j.value == 6.0
    np.testing.assert_array_equal(j.grad, [0.0, 3.0])


# -- the sparse-polynomial kernel against the one-term reference ------------

def _kernel_cases():
    """(polynomials, nvars, jets) triples: ``jets(v, order)`` evaluates the
    polynomials through a library object at a point ``v (n,)`` or a stack
    ``v (B, n)``, with one axis per polynomial after the stack axis."""
    so3 = LieStructure.so3()

    def genfun(S):
        def jets(v, order):
            j = S.eval_jet(v[..., :S.m], v[..., S.m:], order)
            return [np.expand_dims(t, v.ndim - 1)
                    for t in (j.value, j.grad, j.hess, j.third)[:order + 1]]
        return [{pe + xe: c for (pe, xe), c in S.terms.items()}], S.m + S.n, jets

    phi = PolyMap([{(1, 0, 0): 1.0, (0, 2, 1): 0.3, (3, 0, 0): -0.1},
                   {(2, 0, 0): 0.0},
                   {(0, 1, 0): 1.0, (1, 1, 0): -0.2, (0, 0, 0): 0.7}], 3)
    alpha = PolyPoisson(3, {(0, 1): {(0, 0, 1): 1.0, (2, 0, 0): 0.4},
                            (1, 2): {(1, 0, 0): 1.0, (0, 0, 0): 0.3, (0, 1, 2): -0.5}})
    rows, cols = zip(*alpha.entries)
    kernel = PolyKernel.from_polys(list(alpha.entries.values()), 3)

    def map_jets(v, order):
        mj = phi.jet(v, order)
        return [mj.value, mj.grad, mj.hess, mj.third][:order + 1]

    def poisson_jets(v, order):
        A, dA = alpha.matrix_jet(v, min(order, 1))
        upper = [A[..., rows, cols]] + ([] if dA is None else [dA[..., rows, cols, :]])
        return upper + kernel.jet(v, order)[2:]

    return {
        "lie-so3-trunc4": genfun(lie_monoid(so3, trunc=4)),
        "kontsevich-order2": genfun(kontsevich_monoid(
            PolyPoisson.linear_from_structure(so3), eps=0.5, order=2,
            weights=(-1.0 / 12.0, 1.0 / 12.0))),
        "empty": genfun(PolyGenFun({}, 0, 3)),
        "polymap-with-zero-component": (phi.components, 3, map_jets),
        "polypoisson": (list(alpha.entries.values()), 3, poisson_jets),
    }


KERNEL_CASES = _kernel_cases()


def _reference(polys, nvars, v):
    """Order-3 jets of each polynomial as sums of poly_term_jet over terms."""
    out = [np.zeros((len(polys),) + (nvars,) * q) for q in range(4)]
    for o, poly in enumerate(polys):
        for exps, c in poly.items():
            j = poly_term_jet(c, exps, v, 3)
            for q, t in enumerate((j.value, j.grad, j.hess, j.third)):
                out[q][o] += t
    return out


coords = st.one_of(st.just(0.0), st.floats(-1.2, 1.2, allow_nan=False))


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
@given(data=st.data())
def test_kernel_matches_sum_of_term_jets(case, data):
    polys, nvars, jets = KERNEL_CASES[case]
    drawn = np.array(data.draw(st.lists(coords, min_size=nvars, max_size=nvars)))
    for v in (drawn, np.zeros(nvars)):  # the origin exercises 0**0 = 1
        ref = _reference(polys, nvars, v)
        for order in range(4):
            got = jets(v, order)
            assert len(got) == order + 1
            for q in range(order + 1):
                np.testing.assert_allclose(got[q], ref[q], rtol=1e-13, atol=1e-13)
    # a stack of points evaluates each row exactly as that point alone
    stack = np.stack([drawn, np.zeros(nvars), -drawn])
    for order in range(4):
        got = jets(stack, order)
        for b, v in enumerate(stack):
            for q, want in enumerate(jets(v, order)):
                assert np.array_equal(got[q][b], want), (order, q, b)


def _bit_kernels():
    """``(kernel, width of its table's flat)``: widths 0 (without and with runs), 1, 2, 4
    and 5, k = 1, 2 and 3 outputs, and kernels of order 3 and, for a ``PolyPoisson``, 1."""
    so3 = LieStructure.so3()
    phi = PolyMap([{(1, 0, 0): 1.0, (0, 2, 1): 0.3, (3, 0, 0): -0.1},
                   {(2, 0, 0): 0.0},
                   {(0, 1, 0): 1.0, (1, 1, 0): -0.2, (0, 0, 0): 0.7}], 3)
    alpha = PolyPoisson(3, {(0, 1): {(0, 0, 1): 1.0, (2, 0, 0): 0.4},
                            (1, 2): {(1, 0, 0): 1.0, (0, 0, 0): 0.3, (0, 1, 2): -0.5}})
    return {
        "empty-genfun": (PolyGenFun({}, 0, 3)._kernel, 0),
        "constant": (PolyKernel(np.zeros((1, 2), dtype=np.int64), np.array([[2.0, -0.5]])), 0),
        "linear-polymap": (PolyMap.linear(np.array([[2.0, 1.0], [0.0, -1.0]]))._kernel, 1),
        "symplectic-d2": (symplectic_monoid(2)._kernel, 2),
        "kontsevich-order2": (kontsevich_monoid(PolyPoisson.linear_from_structure(so3), eps=0.5,
                                                order=2, weights=(-1.0 / 12.0, 1.0 / 12.0))._kernel, 4),
        "lie-so3-trunc4": (lie_monoid(so3, trunc=4)._kernel, 5),
        "polymap-3-outputs": (phi._kernel, 2),
        "polypoisson": (alpha._kernel, 2),
    }


BIT_KERNELS = _bit_kernels()


@pytest.mark.parametrize("case", sorted(BIT_KERNELS))
def test_kernel_gives_the_gather_reduce_bits(case):
    # the column-by-column monomial products and the (B, k, N) sums give the
    # bits of one (B, M, width) gather, its product and (B, N, k) sums
    kernel, width = BIT_KERNELS[case]
    rng = np.random.default_rng(36)
    points = [np.zeros(kernel.n), rng.uniform(-1.2, 1.2, kernel.n)]
    points += [rng.uniform(-1.2, 1.2, (B, kernel.n)) for B in (1, 6, 64)]
    for v in points:
        for order in range(kernel.order + 1):
            got, want = kernel.jet(v, order), gather_reduce_jet(kernel, v, order)
            assert len(got) == len(want) == order + 1
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b), (v.shape, order)
    assert kernel._table[0].flat.shape[1] == width


def test_negative_exponents_rejected_by_every_polynomial_type():
    with pytest.raises(ValueError, match="negative"):
        PolyMap([{(-1, 0): 1.0}, {(0, 1): 1.0}], 2)
    with pytest.raises(ValueError, match="negative"):
        PolyPoisson(2, {(0, 1): {(-2, 0): 1.0}})
    with pytest.raises(ValueError, match="negative"):
        poly_genfun({((1,), (-1,)): 1.0}, 1, 1)


# -- the kernel's partial tables against a per-term loop --------------------

def _reference_table(E, C, order, P):
    """The tables of :class:`symgf.jets._PartialTable`, built term by term:
    every sorted index tuple over the term's support, its falling factorial
    and reduced exponents, then one sort by ``(len(w), w)`` and the scatter
    of every distinct permutation."""
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
    out = {"flat": cols * P + np.take_along_axis(reduced, cols, axis=1),
           "scaled": (np.array(factors, dtype=float)[:, None] * C[terms])[rank],
           "starts": np.array([r for r in range(len(keys)) if r == 0 or keys[r] != keys[r - 1]],
                              dtype=np.int64),
           "offsets": np.cumsum([0] + [n ** q for q in range(order + 1)])}
    pairs = []
    for u, r in enumerate(out["starts"]):
        q, w = keys[r]
        for perm in set(permutations(w)):
            flat = 0
            for i in perm:
                flat = flat * n + i
            pairs.append((int(out["offsets"][q] + flat), u))
    return out, sorted(pairs)


def _assert_table_matches_reference(E, C, order, built=3):
    # order o's prefix of the shared coefficient-free table, built to order
    # `built`, and of the coefficients the kernel scales it by
    kernel = PolyKernel(E, C, built)
    kernel.jet(np.zeros(kernel.n), order)
    got, scaled = kernel._table
    entries, runs, fills, monomials = got.ends[order]
    want, pairs = _reference_table(kernel.E, kernel.C, order, kernel._P)
    # the table keeps each distinct monomial once; inv maps entries to them
    inv = got.inv[:entries]
    prefix = {"flat": got.flat[inv], "scaled": scaled[:entries], "starts": got.starts[:runs],
              "offsets": got.offsets[:order + 2]}
    for name, ref in want.items():
        assert prefix[name].dtype == ref.dtype and np.array_equal(prefix[name], ref), (name, order)
    # numbered by first use, order o's monomials are the first `monomials` rows
    assert np.array_equal(np.unique(inv), np.arange(monomials)), order
    assert len(np.unique(got.flat, axis=0)) == len(got.flat), order
    assert got.ends[-1].tolist() == [got.inv.size, got.starts.size, got.dst.size, len(got.flat)]
    assert got.src.dtype == got.dst.dtype == got.inv.dtype == np.int64
    assert sorted(zip(got.dst[:fills].tolist(), got.src[:fills].tolist())) == pairs, order


@given(data=st.data())
def test_partial_table_matches_per_term_loop(data):
    T = data.draw(st.integers(0, 6), label="T")
    n = data.draw(st.integers(1, 4), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    # zero-heavy exponents give constant terms and terms of every support size
    E = np.array(data.draw(st.lists(st.lists(st.one_of(st.just(0), st.integers(0, 5)),
                                             min_size=n, max_size=n),
                                    min_size=T, max_size=T)), dtype=np.int64).reshape(T, n)
    C = np.array(data.draw(st.lists(coeffs, min_size=T * k, max_size=T * k))).reshape(T, k)
    order = data.draw(st.integers(0, 3), label="order")
    _assert_table_matches_reference(E, C, order, data.draw(st.integers(order, 3), label="built"))


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_tables_match_per_term_loop(case):
    polys, nvars, _ = KERNEL_CASES[case]
    kernel = PolyKernel.from_polys(polys, nvars)
    for order in range(4):
        _assert_table_matches_reference(kernel.E, kernel.C, order)


def test_partial_tables_gather_each_distinct_monomial_once():
    # (entries, distinct monomials) of each order's prefix of the one table
    so3 = LieStructure.so3()
    counts = {lie_monoid(so3, trunc=4): {0: (54, 54), 2: (534, 262), 3: (768, 262)},
              kontsevich_monoid(PolyPoisson.linear_from_structure(so3), eps=0.05,
                                order=2): {2: (294, 145)}}
    for S, want in counts.items():
        for order, (entries, distinct) in want.items():
            S._kernel.jet(np.zeros(S._kernel.n), order)
            ends = S._kernel._table[0].ends[order]
            assert (ends[0], ends[3]) == (entries, distinct), order


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_jet_bits_do_not_depend_on_call_order_and_build_one_table(case, table_builds):
    # every order reads a prefix of the one order-3 table, built on first use
    polys, nvars, _ = KERNEL_CASES[case]
    v = np.linspace(-0.9, 1.1, 2 * nvars).reshape(2, nvars)
    jets = []
    for orders in ((3, 2, 1, 0), (0, 1, 2, 3)):
        table_builds.clear()
        kernel = PolyKernel.from_polys(polys, nvars)
        jets.append({order: kernel.jet(v, order) for order in orders})
        assert len(table_builds) == 1, orders
    for order in range(4):
        assert all(np.array_equal(a, b) for a, b in zip(jets[0][order], jets[1][order])), order


def test_partial_table_ranks_a_monomial_key_wider_than_int64():
    # 34 variables, P = 4: the mixed-radix key of a 34-wide row would need
    # 136**34 values, and wrapped modulo 2**64 these two rows would collide
    E = np.array([[2] + [1] * 33, [3] + [1] * 33])
    for order in range(4):
        _assert_table_matches_reference(E, np.ones((2, 1)), order)


inf, nan = np.inf, np.nan
# order-3 jets [value, grad, hess, third] flattened per point, as evaluated
# with numpy's power table before the powers were built by products
SPECIAL_POINTS = np.array([[0.0, -0.0], [-0.0, 3.0], [inf, 0.0], [-inf, -2.0], [nan, 1.0],
                           [1e200, -1e103]])
SPECIAL_JETS = [
    # x**2 y + 0.5 x**3 - 2 + 3 x y**2 - y**3
    ([[2, 1], [3, 0], [0, 0], [1, 2], [0, 3]], [[1.0], [0.5], [-2.0], [3.0], [-1.0]],
     [(-2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 2.0, 6.0, 2.0, 6.0, 6.0, -6.0),
      (-29.0, 27.0, -27.0, 6.0, 18.0, 18.0, -18.0, 3.0, 2.0, 2.0, 6.0, 2.0, 6.0, 6.0, -6.0),
      (nan, nan, nan, inf, inf, inf, inf, 3.0, 2.0, 2.0, 6.0, 2.0, 6.0, 6.0, -6.0),
      (-inf, inf, inf, -inf, -inf, -inf, -inf, 3.0, 2.0, 2.0, 6.0, 2.0, 6.0, 6.0, -6.0),
      (nan, nan, nan, nan, nan, nan, nan, 3.0, 2.0, 2.0, 6.0, 2.0, 6.0, 6.0, -6.0),
      (nan, inf, inf, 3e+200, 2e+200, 2e+200, 6e+200, 3.0, 2.0, 2.0, 6.0, 2.0, 6.0, 6.0, -6.0)]),
    # x**3 y, whose partials keep the sign of a zero
    ([[3, 1]], [[1.0]],
     [(-0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
      (-0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 18.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0),
      (nan, nan, inf, nan, inf, inf, 0.0, 0.0, inf, inf, 0.0, inf, 0.0, 0.0, 0.0),
      (inf, -inf, -inf, inf, inf, inf, 0.0, -12.0, -inf, -inf, 0.0, -inf, 0.0, 0.0, 0.0),
      (nan, nan, nan, nan, nan, nan, 0.0, 6.0, nan, nan, 0.0, nan, 0.0, 0.0, 0.0),
      (-inf, -inf, inf, -6.000000000000001e+303, inf, inf, 0.0, -6e+103, 6e+200, 6e+200, 0.0,
       6e+200, 0.0, 0.0, 0.0)]),
]


@pytest.mark.parametrize("E, C, jets", SPECIAL_JETS)
def test_kernel_jets_at_signed_zeros_infinities_and_nan(E, C, jets):
    # every order is a prefix of the order-3 jet; overflow and inf * 0 stay silent
    kernel = PolyKernel(E, C)
    want = np.array(jets)
    for order in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel.jet(SPECIAL_POINTS, order)
        got = np.concatenate([t.reshape(len(SPECIAL_POINTS), -1) for t in got], axis=1)
        ref = want[:, :got.shape[1]]
        assert np.array_equal(got, ref, equal_nan=True), order
        signed = ~np.isnan(ref)
        assert np.array_equal(np.signbit(got[signed]), np.signbit(ref[signed])), order


def test_kernel_table_is_read_only():
    # every jet reads the table as its kernel's first jet built it
    kernel = PolyKernel(np.array([[2, 0, 1], [0, 3, 0], [1, 1, 1], [0, 0, 0]]),
                        np.array([[1.0, -0.5], [0.3, 2.0], [-1.2, 0.0], [0.7, 0.1]]))
    kernel.jet(np.array([[0.3, -0.7, 1.1], [0.0, 0.2, -0.4]]), 3)
    assert not any(arr.flags.writeable for arr in vars(kernel._table[0]).values())


def test_partial_table_at_the_dimension_bound_matches_per_term_loop():
    # n = 192, the most the CLI accepts: its tuple codes and dense offsets
    # (order 3 starts past n**2) are the widest any table reaches
    kernel = symplectic_monoid(MAX_DIM)._kernel
    for order in range(4):
        _assert_table_matches_reference(kernel.E, kernel.C, order)


def test_partial_table_memory_at_the_dimension_bound():
    # symplectic_monoid(MAX_DIM) has n = 192 variables; the per-term loop
    # peaked at 3.6 MB for its order-3 table, an enumeration of the index
    # tuples over range(n) at 155 MB; the order-by-order build, which carries
    # each entry's reduced exponents over all n variables, peaks at 3.7 MB
    kernel = symplectic_monoid(MAX_DIM)._kernel
    tracemalloc.start()
    try:
        _PartialTable(kernel.E, kernel.order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.n == 192
    assert peak < 4 * 3.6e6, peak
